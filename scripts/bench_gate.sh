#!/usr/bin/env bash
# CI perf-regression gate: runs the seeded smoke pipeline with telemetry,
# writes results/BENCH_ci.json, and fails on counter regressions or a >10%
# wall-clock overshoot against scripts/bench_thresholds.json.
#
# The smoke workload runs the pipeline twice with a shared evaluation
# cache: the second roll-out is served from cache, and the gate checks both
# bit-identity of the two runs and a >= 20% saved-EM-seconds floor.
#
# A training smoke phase then gates the data-parallel training engine:
# serial and 4-thread fits of a forest and an MLP must be bit-identical,
# the phase has its own wall-clock budget (max_train_seconds), and on
# hosts with >= 4 cores the forest fit must parallelize >= 2x.
#
# A fault-injection smoke phase then gates the fault-tolerant roll-out: a
# rate-0 run through the FaultInjector must be bit-identical to a run
# without the fault layer, a fixed-rate faulted run must be bit-identical
# at 1 vs 4 threads (outcome and every counter), and the faulted run's
# em.retries / em.failures_* / em.topped_up land in the counter budget, so
# a retry storm fails the gate. The phase has its own wall-clock budget
# (max_fault_seconds).
#
# A scheduler smoke phase then gates the async batched roll-out: under a
# fixed fault config it must deliver the pinned candidate count of a
# synchronous wave schedule while charging strictly less EM time than that
# schedule's pinned charge (70.67 s), and the faulted run must be
# bit-identical at 1 vs 4 threads. Its
# em.sched.batches / em.sched.slack_slots / em.sched.interleaved counters
# land in the counter budget, and the phase has its own wall-clock budget
# (max_sched_seconds).
#
# A sweep smoke phase then gates the batched EM frequency sweep: the
# structure-of-arrays SweepPlan must be bit-identical to the scalar
# per-point ABCD chain over a fleet of link channels (and at lane width 1
# vs 4), and when the simd-lanes feature is compiled in, the batched path
# must beat the scalar path by >= 2x. The phase has its own wall-clock
# budget (max_sweep_seconds).
#
# A warm-store smoke phase then gates the persistent evaluation store and
# the trained-model registry: the pipeline runs cold against a fresh
# store directory, then warm from fresh handles at 1 and 4 threads. The
# warm replays must be bit-identical to the cold run (candidates,
# charged+saved ledger sum, every counter across widths) while eliding
# >= 90% of the cold charged EM seconds, and a registry-fitted surrogate
# must reload with zero training work (no ml.fit.* span, train.chunks
# = 0) and bit-identical predictions. The store.* counters land in the
# counter budget, the phase has its own wall-clock budget
# (max_store_seconds), and the cold-vs-warm wall-clock comparison is
# written to results/BENCH_pr8.json.
#
# A multi-job engine smoke phase then gates the shared-executor job
# scheduler: a four-job mixed-space batch (two tenants, each one fresh
# space and one rerun) runs serially (one core permit, one wave slot) and
# concurrently (host cores, two wave slots). A job run solo must be
# bit-identical — candidates, both EM ledgers, every per-job counter — to
# the same job inside both batches, the wave-1 reruns must charge zero EM
# seconds (full cross-job elision from wave 0's flushed records), and the
# core budget's peak outstanding permits must respect the grant. On hosts
# with >= 4 cores the concurrent batch must beat the serial batch >= 1.5x
# wall-clock. The engine.* counters land in the counter budget, the phase
# has its own wall-clock budget (max_engine_seconds), and the
# serial-vs-concurrent comparison is written to results/BENCH_pr9.json.
#
# A daemon smoke phase finally gates the live optimization daemon: a real
# Daemon serves the four-job demo over a loopback TCP socket (NDJSON
# submit/status/shutdown) until every job's Finished frame reaches the
# journal, then a second daemon is deterministically killed mid-epoch —
# right after wave 1's safe-point journal flush — restarted on the same
# store directory, and must replay + resume to results bit-identical to a
# never-killed daemon (candidates, both EM ledgers, every per-job counter)
# with exactly one Finished frame per job, i.e. zero double-charged EM
# seconds. The daemon.* counters land in the counter budget, the phase has
# its own wall-clock budget (max_daemon_seconds), the kill-vs-calm
# comparison is written to results/BENCH_pr10.json, and the recovered
# journal's shards are exported to results/daemon_journal/ for the CI
# artifact.
#
# Usage:
#   scripts/bench_gate.sh            # gate against the checked-in budget
#   scripts/bench_gate.sh --update   # refresh the budget from a local run
#   scripts/bench_gate.sh --no-cache # cache off; fails a cache-on budget
#                                    # (em.cache.misses over budget)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -d results ]; then
  echo "bench_gate: results/ is missing — run from a full checkout of the repo root" >&2
  echo "bench_gate: (the gate writes results/BENCH_ci.json next to the checked-in baselines)" >&2
  exit 1
fi

cargo run --release --offline -p isop-bench --bin bench_gate -- "$@"
