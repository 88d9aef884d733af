#!/usr/bin/env bash
# CI perf-regression gate: runs the seeded smoke phases with telemetry,
# writes results/BENCH_ci.json, and fails, against
# scripts/bench_thresholds.json, on a counter over its exact budget, a
# phase over its wall-clock budget (+10%), an EM ledger under its elision
# floor, or a smoke phase that no longer exercises its path. Identity
# contracts (thread width, cache on/off, warm/cold, kill/restart) are
# asserted by the test suite, not here. The phases and the test holding
# each contract are listed in the module doc of
# crates/bench/src/bin/bench_gate.rs.
#
# Usage:
#   scripts/bench_gate.sh            # gate against the checked-in budget
#   scripts/bench_gate.sh --update   # refresh the budget from a local run
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -d results ]; then
  echo "bench_gate: results/ is missing — run from a full checkout of the repo root" >&2
  echo "bench_gate: (the gate writes results/BENCH_ci.json next to the checked-in baselines)" >&2
  exit 1
fi

cargo run --release --offline -p isop-bench --bin bench_gate -- "$@"
