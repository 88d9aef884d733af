//! CI perf-regression gate: runs the seeded smoke pipeline with telemetry,
//! writes the machine-readable `BENCH_ci.json` run report, and diffs it
//! against the checked-in thresholds (`scripts/bench_thresholds.json`).
//!
//! Failure policy:
//!
//! * **Counters** are deterministic at a fixed seed (commutative atomic
//!   adds, any thread width), so any measured value *above* its threshold
//!   is a hard failure — the change made the pipeline do more work than
//!   the budget allows. Values below threshold only warn (run `--update`
//!   to tighten the budget). The thresholds file and the report must name
//!   the same counter set: a budget on a counter the report lacks, or a
//!   reported counter without a budget, fails the gate.
//! * **Wall-clock** is noisy, so it fails only beyond a 10% margin over
//!   the threshold. Every timed phase in [`PHASES`] has one
//!   `max_{phase}_seconds` budget, and one loop checks them all.
//!
//! The smoke workload runs the seeded pipeline **twice** on one telemetry
//! handle, sharing one evaluation cache and surrogate memo across the two
//! runs: the second run's roll-out is served entirely from cache, which is
//! what the `em.cache.*` budgets and the >= 20% saved-EM-seconds assertion
//! pin down. The gate also verifies the cache contract directly — both
//! runs must produce bit-identical candidates. `--no-cache` runs the same
//! protocol with the cache disabled; against a cache-enabled budget this
//! *fails* (`em.cache.misses` lands over budget), which is the CI tripwire
//! for the cache being silently turned off.
//!
//! A training smoke phase then gates the data-parallel training engine: a
//! random forest and a dropout MLP each train serially and at 4 workers,
//! the fits must be bit-identical, and — only on hosts that actually have
//! >= 4 cores — the forest fit must be at least 2x faster in parallel.
//!
//! A fault-injection smoke phase then gates the roll-out's fault
//! tolerance and the async batched scheduler: a rate-0 run through the
//! [`FaultInjector`] must be bit-identical to a run without the fault
//! layer (candidates, ledgers, every counter), and at a fixed fault rate
//! the outcome and every counter, the `em.sched.*` gauges included, must
//! be bit-identical at 1 vs 4 threads, with retries actually exercised.
//! The faulted run must also deliver the pinned candidate count of a
//! synchronous wave schedule while charging **strictly less** EM time than
//! that schedule's pinned charge ([`SYNC_SMOKE_EM_SECONDS`], the retry
//! surcharge the batch stream exists to absorb). The faulted serial run's
//! counters fold into the budgeted report once, so `em.retries` /
//! `em.failures_*` / `em.topped_up` / `em.sched.*` regressions (e.g. a
//! retry storm) trip the gate like any other counter.
//!
//! A warm-store smoke phase then gates the persistent evaluation store and
//! the trained-model registry: the seeded pipeline runs cold against a
//! fresh store directory, then warm from fresh handles at 1 and 4 threads.
//! The warm runs must replay the cold candidates and ledger sum bit for
//! bit while eliding at least 90% of the cold run's charged EM seconds
//! (full-hit replay elides 100%), the two warm widths must agree on every
//! counter, and a zoo surrogate fitted through the registry must reload
//! warm with zero training work — no `ml.fit.*` span, `train.chunks` = 0 —
//! and bit-identical predictions. Its serial handles' counters fold into
//! the budgeted report so the `store.*` read/write volumes are gated.
//!
//! A multi-job engine smoke phase then gates the shared-executor job
//! scheduler: the four-job demo batch ([`demo_specs`]) runs once serially
//! (one core permit, one wave slot) and once concurrently (host cores, two
//! wave slots), each against its own fresh store. Always enforced: a job
//! run **solo** is bit-identical — candidates, both EM ledgers, every
//! per-job counter — to the same job running beside its wave neighbors,
//! in both the serial and the concurrent batch; the rerun jobs elide their
//! accurate EM time entirely through cross-job store hits; and the core
//! budget's peak outstanding permits never exceed the grant. Only on hosts
//! with at least [`ENGINE_SPEEDUP_CORES`] cores, the concurrent batch must
//! beat the serial batch by [`MIN_ENGINE_SPEEDUP`]x wall-clock. The serial
//! batch's per-job and engine counters fold into the budgeted report.
//!
//! A daemon smoke phase finally gates the live optimization daemon: a
//! real [`Daemon`] serves the four-job demo over a loopback TCP socket
//! (NDJSON submit/status/shutdown) until every job's `Finished` frame
//! lands in the journal; then a second daemon is deterministically killed
//! mid-epoch — right after wave 1's safe-point journal flush, via the
//! chaos knob — restarted on the same store directory, and must replay
//! the finished jobs and resume the interrupted wave to results
//! bit-identical to a never-killed daemon: candidates, both EM ledgers,
//! and every per-job counter, with the journal holding exactly one
//! `Finished` frame per job (zero double-charged EM seconds). The
//! synchronous legs' counters fold into the budgeted report, so the
//! `daemon.*` volumes are gated, and the recovered journal is copied to
//! `daemon_journal/` next to the CI report.
//!
//! ```text
//! bench_gate [--thresholds scripts/bench_thresholds.json]
//!            [--out results/BENCH_ci.json] [--update] [--no-cache]
//! ```
//!
//! `--update` reruns the smoke pipeline and rewrites the thresholds file
//! from the measurement (counters exact, wall-clock with 3x headroom).

use isop::data::generate_dataset;
use isop::evalcache::{EvalCache, SurrogateMemo};
use isop::prelude::*;
use isop_em::simulator::AnalyticalSolver;
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;
use isop_ml::models::{Mlp, MlpConfig, RandomForest, TreeConfig};
use isop_ml::registry::ModelRegistry;
use isop_ml::train::TrainContext;
use isop_ml::Regressor;
use isop_store::Store;
use isop_telemetry::CounterEntry;
use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock headroom factor applied on top of the stored threshold.
const WALL_MARGIN: f64 = 1.10;
/// Headroom baked into the stored wall-clock threshold by `--update` —
/// generous because CI machines are slower than the laptop that recorded
/// the budget; the counters carry the tight, exact part of the gate.
const WALL_UPDATE_HEADROOM: f64 = 3.0;
/// Seed of the smoke run; thresholds are only meaningful at this seed.
const SMOKE_SEED: u64 = 3;
/// Worker threads of the smoke run (counters are width-independent).
const SMOKE_THREADS: usize = 2;
/// Worker threads of the training smoke (the data-parallel engine's gate).
const TRAIN_THREADS: usize = 4;
/// Minimum forest-training speedup at [`TRAIN_THREADS`] workers, enforced
/// only on hosts that actually have that many cores — bit-identity of the
/// fits is enforced everywhere.
const MIN_TRAIN_SPEEDUP: f64 = 2.0;
/// Transient fault rate of the fault-injection smoke — high enough to
/// guarantee retries at [`SMOKE_SEED`], low enough that the retry budget
/// usually rescues the candidate.
const FAULT_RATE: f64 = 0.35;
/// Per-design permanent ("doomed") fault rate of the fault-injection
/// smoke, exercising the top-up path.
const FAULT_PERMANENT_RATE: f64 = 0.30;
/// Seed of the injected fault stream (independent of the pipeline seed).
const FAULT_SEED: u64 = 2;
/// Candidates a synchronous wave schedule (every retry chain finishing
/// inside its wave) delivered on the fault smoke's faulted run, measured
/// with that schedule and pinned so the gate needs no second scheduler.
const SYNC_SMOKE_CANDIDATES: usize = 3;
/// EM seconds the same synchronous schedule charged there: one nominal
/// per batch of three deliveries plus one nominal per failed attempt and
/// an exponential backoff per re-issue. The async stream must stay
/// strictly below it.
const SYNC_SMOKE_EM_SECONDS: f64 = 166.49999999999997;
/// Fraction of the cold run's charged EM seconds the warm-store replay
/// must elide (a full-hit replay elides 100%; 90% leaves room for a
/// future smoke tweak that adds a handful of fresh designs).
const STORE_MIN_ELIDED_FRACTION: f64 = 0.9;
/// Registry key of the store smoke's zoo surrogate (any stable value —
/// the registry only requires it to be consistent between cold and warm).
const STORE_ZOO_SPACE_ID: u64 = 0x5105;
/// Minimum serial-over-concurrent wall-clock speedup of the engine smoke's
/// four-job batch, enforced only on hosts with at least
/// [`ENGINE_SPEEDUP_CORES`] cores — solo-vs-concurrent bit-identity and
/// the cross-job EM elision are enforced everywhere.
const MIN_ENGINE_SPEEDUP: f64 = 1.5;
/// Core count a host needs before the engine throughput ratio is enforced
/// (two concurrent jobs x two leased threads each).
const ENGINE_SPEEDUP_CORES: usize = 4;

/// The timed phases of one smoke pass, in run order. Each is gated by the
/// `max_{phase}_seconds` wall budget of the thresholds file.
const PHASES: [&str; 6] = ["wall", "train", "fault", "store", "engine", "daemon"];

/// Measured wall-clock seconds per phase, in [`PHASES`] order.
type PhaseWalls = Vec<(&'static str, f64)>;

/// The checked-in perf budget the gate compares against.
#[derive(Debug, Clone, PartialEq)]
struct GateThresholds {
    /// Must match [`RunReport::SCHEMA_VERSION`] of the measuring binary.
    schema_version: u32,
    /// Seed the counter budget was recorded at.
    seed: u64,
    /// Wall-clock budget per phase, seconds (compared with a
    /// [`WALL_MARGIN`] tolerance), stored as `max_{phase}_seconds` keys.
    walls: Vec<(String, f64)>,
    /// Exact counter budget, one entry per [`Counter`].
    counters: Vec<CounterEntry>,
}

impl Serialize for GateThresholds {
    fn to_value(&self) -> Value {
        let mut obj = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ];
        obj.extend(
            self.walls
                .iter()
                .map(|(phase, secs)| (format!("max_{phase}_seconds"), secs.to_value())),
        );
        obj.push(("counters".to_string(), self.counters.to_value()));
        Value::Obj(obj)
    }
}

impl Deserialize for GateThresholds {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v.as_obj().ok_or_else(|| Error::mismatch("object", v))?;
        let walls = obj
            .iter()
            .filter_map(|(key, secs)| {
                let phase = key.strip_prefix("max_")?.strip_suffix("_seconds")?;
                Some(f64::from_value(secs).map(|secs| (phase.to_string(), secs)))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            schema_version: u32::from_value(Value::field(obj, "schema_version"))?,
            seed: u64::from_value(Value::field(obj, "seed"))?,
            walls,
            counters: Vec::from_value(Value::field(obj, "counters"))?,
        })
    }
}

/// Fraction of total EM wall-clock the cache must elide over the two-run
/// smoke protocol (run two's roll-out is all hits, so the honest value is
/// 0.5; 0.2 leaves room for a partial-hit batch without going stale).
const MIN_SAVED_FRACTION: f64 = 0.2;

/// A named serial/parallel model pair for the training smoke.
type TrainTwin = (&'static str, Box<dyn Regressor>, Box<dyn Regressor>);

/// The data-parallel training engine's smoke: fits a random forest and a
/// dropout MLP twice each — serial and at [`TRAIN_THREADS`] workers — on
/// `telemetry`, and fails unless every parallel fit is bit-identical to
/// its serial twin. On hosts with at least [`TRAIN_THREADS`] cores the
/// forest (the embarrassingly parallel workload) must also come back at
/// least [`MIN_TRAIN_SPEEDUP`]x faster. Returns the phase's total
/// wall-clock, seconds.
fn train_smoke(telemetry: &Telemetry) -> Result<f64, String> {
    let data = generate_dataset(
        &isop::spaces::s1(),
        1200,
        &AnalyticalSolver::new(),
        SMOKE_SEED,
    )
    .map_err(|e| format!("train smoke dataset: {e:?}"))?;
    let serial_ctx = TrainContext::serial().with_telemetry(telemetry.clone());
    let par_ctx =
        TrainContext::new(Parallelism::new(TRAIN_THREADS)).with_telemetry(telemetry.clone());
    let forest = || {
        RandomForest::new(
            12,
            TreeConfig {
                max_depth: 9,
                ..TreeConfig::default()
            },
            SMOKE_SEED,
        )
    };
    let mlp = || {
        Mlp::new(MlpConfig {
            hidden: vec![48, 48],
            epochs: 6,
            dropout: 0.05,
            seed: SMOKE_SEED,
            ..MlpConfig::default()
        })
    };
    let mut twins: Vec<TrainTwin> = vec![
        ("forest", Box::new(forest()), Box::new(forest())),
        ("mlp", Box::new(mlp()), Box::new(mlp())),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut total = 0.0;
    for (name, serial, parallel) in &mut twins {
        let t0 = Instant::now();
        serial
            .fit_with(&data, &serial_ctx)
            .map_err(|e| format!("{name} serial fit: {e:?}"))?;
        let serial_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        parallel
            .fit_with(&data, &par_ctx)
            .map_err(|e| format!("{name} parallel fit: {e:?}"))?;
        let par_secs = t1.elapsed().as_secs_f64();
        total += serial_secs + par_secs;

        let a = serial.predict(&data.x).map_err(|e| format!("{e:?}"))?;
        let b = parallel.predict(&data.x).map_err(|e| format!("{e:?}"))?;
        if a != b {
            return Err(format!(
                "training determinism violation: {name} fit at {TRAIN_THREADS} threads \
                 diverged from the serial fit"
            ));
        }
        let speedup = serial_secs / par_secs.max(1e-9);
        if *name == "forest" && cores >= TRAIN_THREADS && speedup < MIN_TRAIN_SPEEDUP {
            return Err(format!(
                "training speedup regression: forest {speedup:.2}x < \
                 {MIN_TRAIN_SPEEDUP:.1}x at {TRAIN_THREADS} threads ({cores} cores)"
            ));
        }
        println!(
            "bench_gate: train smoke {name}: serial {serial_secs:.2}s, \
             {TRAIN_THREADS} threads {par_secs:.2}s ({speedup:.2}x, bit-identical)"
        );
    }
    if cores < TRAIN_THREADS {
        println!(
            "bench_gate: host has {cores} core(s) < {TRAIN_THREADS} — speedup ratio not \
             enforced (bit-identity still checked)"
        );
    }
    Ok(total)
}

/// The pipeline config every smoke runs, at `threads` workers.
fn smoke_config(threads: usize) -> IsopConfig {
    IsopConfig {
        harmonica: HarmonicaConfig {
            stages: 2,
            samples_per_stage: 120,
            top_monomials: 6,
            bits_per_stage: 8,
            ..HarmonicaConfig::default()
        },
        hyperband: HyperbandConfig {
            max_resource: 3.0,
            eta: 3.0,
        },
        gd_candidates: 4,
        gd_epochs: 25,
        cand_num: 3,
        parallelism: Parallelism::new(threads),
        ..IsopConfig::default()
    }
}

/// The four-job demo batch of the engine and daemon smokes: tenants
/// `acme` and `blue`, each submitting a fresh space and a rerun of it, so
/// fair admission at two slots puts the fresh pair in wave 0 and the
/// reruns in wave 1.
fn demo_specs() -> [JobSpec; 4] {
    let spec = |id: &str, tenant: &str, space: &str| JobSpec {
        id: id.to_string(),
        tenant: tenant.to_string(),
        space: space.to_string(),
        seed: SMOKE_SEED,
        threads: SMOKE_THREADS,
        ..JobSpec::default()
    };
    [
        spec("acme-s1", "acme", "s1"),
        spec("acme-s1-rerun", "acme", "s1"),
        spec("blue-s2", "blue", "s2"),
        spec("blue-s2-rerun", "blue", "s2"),
    ]
}

/// Runs the seeded smoke pipeline twice on one telemetry handle, sharing
/// one evaluation cache + surrogate memo across the runs (both disabled
/// under `--no-cache`), then every other smoke phase on the same handle.
/// Returns the budgeted report and each of [`PHASES`]' wall-clock, or an
/// error if the runs are not bit-identical, (cache on) the saved-EM
/// fraction falls under [`MIN_SAVED_FRACTION`], or any phase breaks its
/// contract.
fn run_smoke(
    use_cache: bool,
    journal_dir: &std::path::Path,
) -> Result<(RunReport, PhaseWalls), String> {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let telemetry = Telemetry::enabled();
    let simulator = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let config = smoke_config(SMOKE_THREADS);
    let cache = if use_cache {
        EvalCache::new()
    } else {
        EvalCache::disabled()
    };
    let memo = if use_cache {
        SurrogateMemo::new()
    } else {
        SurrogateMemo::disabled()
    };
    let t0 = Instant::now();
    let run = || {
        IsopOptimizer::new(&space, &surrogate, &simulator, config.clone())
            .with_telemetry(telemetry.clone())
            .with_eval_cache(cache.clone())
            .with_surrogate_memo(memo.clone())
            .run(
                isop::tasks::objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                SMOKE_SEED,
            )
    };
    let first = run();
    let second = run();
    let wall = t0.elapsed().as_secs_f64();

    // The cache contract, checked on every gate invocation: a warm cache
    // must not change a single bit of the outcome.
    if first.candidates != second.candidates || first.success != second.success {
        return Err("cache contract violation: repeat run diverged from the first".into());
    }
    if (first.em_seconds + first.em_seconds_saved).to_bits()
        != (second.em_seconds + second.em_seconds_saved).to_bits()
    {
        return Err("cache contract violation: charged + saved EM differs between runs".into());
    }
    if use_cache {
        let charged = telemetry.em_seconds();
        let saved = telemetry.em_seconds_saved();
        let fraction = saved / (charged + saved);
        // NaN (0/0: no EM ran at all) must fail too, not just low fractions.
        if fraction.is_nan() || fraction < MIN_SAVED_FRACTION {
            return Err(format!(
                "cache ineffective: saved {saved:.2}s of {:.2}s total EM \
                 ({:.0}% < {:.0}% required)",
                charged + saved,
                fraction * 100.0,
                MIN_SAVED_FRACTION * 100.0
            ));
        }
        println!(
            "bench_gate: cache elided {saved:.2}s of {:.2}s EM ({:.0}%)",
            charged + saved,
            fraction * 100.0
        );
    }

    // Training phase on the same telemetry handle, so `train.chunks` (and
    // any future training counters) land in the budgeted report.
    let train_wall = train_smoke(&telemetry)?;

    // Fault-injection phase: the rate-0 transparency run, the faulted
    // roll-out's thread-width identity and its ledger against the pinned
    // synchronous charge, folding the faulted serial run's counters into
    // the main handle once so the retry and `em.sched.*` budgets are gated.
    let fault_wall = fault_smoke(&telemetry)?;

    // Warm-store phase: cold-vs-warm persistent replay plus the model
    // registry round-trip, folding the store counters into the main
    // handle so the `store.*` budgets are gated.
    let store_wall = store_smoke(&telemetry)?;

    // Multi-job engine phase: solo-vs-batched bit-identity, cross-job EM
    // elision, and the serial-vs-concurrent throughput comparison, folding
    // the serial batch's counters into the main handle so the `engine.*`
    // budgets are gated.
    let engine_wall = engine_smoke(&telemetry)?;

    // Daemon phase: a live TCP round-trip plus the deterministic
    // kill-mid-epoch / journal-replay contract, folding the synchronous
    // legs' counters into the main handle so the `daemon.*` budgets are
    // gated.
    let daemon_wall = daemon_smoke(&telemetry, journal_dir)?;

    let mut report = telemetry.run_report();
    report.task = TaskId::T1.to_string();
    report.space = "s1".to_string();
    report.seed = SMOKE_SEED;
    report.threads = SMOKE_THREADS;
    report.success = second.success;
    report.samples_seen = first.samples_seen + second.samples_seen;
    report.invalid_seen = first.invalid_seen + second.invalid_seen;
    report.algorithm_seconds = first.algorithm_seconds + second.algorithm_seconds;
    report.resolution = first.resolution.as_str().to_string();
    let walls: [f64; PHASES.len()] = [
        wall,
        train_wall,
        fault_wall,
        store_wall,
        engine_wall,
        daemon_wall,
    ];
    Ok((report, PHASES.into_iter().zip(walls).collect()))
}

/// The fault-tolerant, async batched roll-out's smoke. Four pipeline runs
/// on scratch telemetry handles (no shared cache, so each roll-out is
/// cold):
///
/// 1. a plain run without the fault layer;
/// 2. a rate-0 run *through* [`FaultInjector`] — must be bit-identical to
///    (1) in candidates, success, both EM ledgers, and every counter (the
///    disabled fault layer is invisible);
/// 3. a faulted run at 1 thread and 4. at 4 threads, at the
///    [`FAULT_RATE`]/[`FAULT_PERMANENT_RATE`] fault config — bit-identical
///    to each other in candidates, both ledgers, and every counter (batch
///    composition is a pure function of design identity and the logical
///    clock, never thread arrival order), with retries, transient failures
///    and live batches actually observed. They deliver
///    [`SYNC_SMOKE_CANDIDATES`] designs with a full resolution, and the
///    charged ledger lands **strictly below** [`SYNC_SMOKE_EM_SECONDS`],
///    the pinned charge of a synchronous schedule whose per-record retry
///    surcharge and backoff the batch stream absorbs into shared slots.
///
/// Folds run (3)'s counters into `main` once, so `em.retries`, the
/// `em.sched.*` gauges and friends are gated by the checked-in counter
/// budgets. Returns the phase wall-clock.
fn fault_smoke(main: &Telemetry) -> Result<f64, String> {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let t0 = Instant::now();
    let run = |rate: f64, permanent: f64, threads: usize, telemetry: &Telemetry| {
        let solver = AnalyticalSolver::new().with_telemetry(telemetry.clone());
        let injector = FaultInjector::new(
            solver,
            FaultConfig {
                transient_rate: rate,
                permanent_rate: permanent,
                seed: FAULT_SEED,
            },
        )
        .with_telemetry(telemetry.clone());
        IsopOptimizer::new(&space, &surrogate, &injector, smoke_config(threads))
            .with_telemetry(telemetry.clone())
            .run(
                isop::tasks::objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                SMOKE_SEED,
            )
    };
    let plain_tele = Telemetry::enabled();
    let plain = {
        let solver = AnalyticalSolver::new().with_telemetry(plain_tele.clone());
        IsopOptimizer::new(&space, &surrogate, &solver, smoke_config(SMOKE_THREADS))
            .with_telemetry(plain_tele.clone())
            .run(
                isop::tasks::objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                SMOKE_SEED,
            )
    };
    let zero_tele = Telemetry::enabled();
    let zero = run(0.0, 0.0, SMOKE_THREADS, &zero_tele);
    if zero.candidates != plain.candidates
        || zero.success != plain.success
        || zero.em_seconds.to_bits() != plain.em_seconds.to_bits()
        || zero.em_seconds_saved.to_bits() != plain.em_seconds_saved.to_bits()
        || zero.resolution != RolloutResolution::Full
    {
        return Err("fault transparency violation: rate-0 fault layer changed the outcome".into());
    }
    for c in Counter::ALL {
        if zero_tele.counter(c) != plain_tele.counter(c) {
            return Err(format!(
                "fault transparency violation: rate-0 fault layer moved counter {}",
                c.name()
            ));
        }
    }

    let serial_tele = Telemetry::enabled();
    let serial = run(FAULT_RATE, FAULT_PERMANENT_RATE, 1, &serial_tele);
    let wide_tele = Telemetry::enabled();
    let wide = run(FAULT_RATE, FAULT_PERMANENT_RATE, 4, &wide_tele);
    if serial.candidates != wide.candidates
        || serial.resolution != wide.resolution
        || serial.em_seconds.to_bits() != wide.em_seconds.to_bits()
        || serial.em_seconds_saved.to_bits() != wide.em_seconds_saved.to_bits()
    {
        return Err(
            "fault determinism violation: faulted outcome diverged between 1 and 4 threads".into(),
        );
    }
    for c in Counter::ALL {
        if serial_tele.counter(c) != wide_tele.counter(c) {
            return Err(format!(
                "fault determinism violation: counter {} diverged between 1 and 4 threads",
                c.name()
            ));
        }
    }
    if serial_tele.counter(Counter::EmRetries) == 0
        || serial_tele.counter(Counter::EmFailuresTransient) == 0
    {
        return Err(format!(
            "fault smoke inert: rate {FAULT_RATE} produced no retries at seed {SMOKE_SEED} — \
             the retry budgets below gate nothing"
        ));
    }
    if serial.candidates.len() != SYNC_SMOKE_CANDIDATES
        || serial.resolution != RolloutResolution::Full
    {
        return Err(format!(
            "scheduler quality violation: async schedule delivered {} candidate(s) ({}), \
             the synchronous schedule {SYNC_SMOKE_CANDIDATES} (full)",
            serial.candidates.len(),
            serial.resolution
        ));
    }
    if serial.em_seconds >= SYNC_SMOKE_EM_SECONDS {
        return Err(format!(
            "scheduler ledger regression: async charged {:.2}s >= synchronous \
             {SYNC_SMOKE_EM_SECONDS:.2}s — batching no longer absorbs the retry surcharge",
            serial.em_seconds
        ));
    }
    if serial_tele.counter(Counter::EmSchedBatches) == 0 {
        return Err("scheduler smoke inert: async run formed no live batches".into());
    }
    for c in Counter::ALL {
        main.add(c, serial_tele.counter(c));
    }
    println!(
        "bench_gate: fault smoke: rate-0 transparent; 1 vs 4 threads bit-identical \
         ({} retries, {} transient, {} permanent, {} topped up, resolution {}); async \
         charged {:.2}s < pinned sync {SYNC_SMOKE_EM_SECONDS:.2}s at equal candidates \
         ({} batches, {} slack slots)",
        serial_tele.counter(Counter::EmRetries),
        serial_tele.counter(Counter::EmFailuresTransient),
        serial_tele.counter(Counter::EmFailuresPermanent),
        serial_tele.counter(Counter::EmToppedUp),
        serial.resolution,
        serial.em_seconds,
        serial_tele.counter(Counter::EmSchedBatches),
        serial_tele.counter(Counter::EmSchedSlackSlots),
    );
    Ok(t0.elapsed().as_secs_f64())
}

/// The persistent store's smoke: the seeded pipeline runs **cold**
/// against a fresh store directory, then **warm** against the same
/// directory from fresh handles at 1 and at 4 threads — a separate
/// process would observe exactly the same bytes, so this is the
/// cross-run warm-start contract:
///
/// 1. the warm candidates, success, and charged+saved ledger sum are
///    bit-identical to the cold run's, with the replay eliding at least
///    [`STORE_MIN_ELIDED_FRACTION`] of the cold charged EM seconds and
///    at least one record served as a cross-job hit;
/// 2. the two warm widths agree bit for bit — candidates, both ledgers,
///    every counter (store hydration sits in the serial probe path, so
///    thread width cannot reorder it);
/// 3. a zoo surrogate fitted through the model registry reloads warm
///    with **zero** training work — no `ml.fit.*` span, `train.chunks`
///    still 0 on the warm handle — and predicts bit-identically.
///
/// Folds the cold and warm-serial handles' counters into `main` so the
/// `store.*` read/write volumes (and the registry hit/miss split) are
/// budgeted like any other counter. Returns the phase wall-clock.
fn store_smoke(main: &Telemetry) -> Result<f64, String> {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let t0 = Instant::now();
    let dir = std::env::temp_dir().join(format!("isop-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let run = |threads: usize, telemetry: &Telemetry, persist: bool| {
        let store = Arc::new(
            Store::open(&dir)
                .map_err(|e| format!("store smoke: open {}: {e}", dir.display()))?
                .with_telemetry(telemetry.clone()),
        );
        let cache = EvalCache::with_store(Arc::clone(&store));
        let solver = AnalyticalSolver::new().with_telemetry(telemetry.clone());
        let outcome = IsopOptimizer::new(&space, &surrogate, &solver, smoke_config(threads))
            .with_telemetry(telemetry.clone())
            .with_eval_cache(cache.clone())
            .run(
                isop::tasks::objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                SMOKE_SEED,
            );
        if persist {
            cache
                .persist()
                .map_err(|e| format!("store smoke: flush: {e}"))?;
        }
        Ok::<_, String>(outcome)
    };

    let cold_tele = Telemetry::enabled();
    let cold = run(SMOKE_THREADS, &cold_tele, true)?;
    if cold.em_seconds <= 0.0 {
        return Err("store smoke inert: the cold run charged no EM seconds".into());
    }

    // Cold zoo fit through the registry, persisted next to the eval
    // records (serial training context so the folded `train.*` counters
    // stay host-independent).
    let data = generate_dataset(&space, 300, &AnalyticalSolver::new(), SMOKE_SEED)
        .map_err(|e| format!("store smoke dataset: {e:?}"))?;
    let zoo_mlp = || {
        Mlp::new(MlpConfig {
            hidden: vec![16, 16],
            epochs: 4,
            seed: SMOKE_SEED,
            ..MlpConfig::default()
        })
    };
    let t_fit_cold = Instant::now();
    let cold_pred = {
        let store = Arc::new(
            Store::open(&dir)
                .map_err(|e| format!("store smoke: reopen for zoo: {e}"))?
                .with_telemetry(cold_tele.clone()),
        );
        let zoo = isop::surrogate::ModelZoo::new(Parallelism::serial())
            .with_telemetry(cold_tele.clone())
            .with_registry(ModelRegistry::new(store).with_telemetry(cold_tele.clone()));
        let (s, hit) = zoo
            .fit_neural_registered(STORE_ZOO_SPACE_ID, zoo_mlp(), &data)
            .map_err(|e| format!("store smoke: cold zoo fit: {e:?}"))?;
        if hit {
            return Err("store smoke: cold zoo fit was served from an empty store".into());
        }
        zoo.registry()
            .expect("registry attached above")
            .persist()
            .map_err(|e| format!("store smoke: zoo flush: {e}"))?;
        isop_ml::Regressor::predict(s.model(), &data.x).map_err(|e| format!("{e:?}"))?
    };
    let cold_fit_wall = t_fit_cold.elapsed().as_secs_f64();

    // Warm replays from fresh handles (no persist: the store stays
    // byte-identical between the two widths, and a full-hit replay has
    // nothing new to write anyway).
    let warm_tele = Telemetry::enabled();
    let warm = run(1, &warm_tele, false)?;
    let wide_tele = Telemetry::enabled();
    let wide = run(4, &wide_tele, false)?;

    if warm.candidates != cold.candidates || warm.success != cold.success {
        return Err("store replay violation: warm run diverged from the cold run".into());
    }
    if (warm.em_seconds + warm.em_seconds_saved).to_bits()
        != (cold.em_seconds + cold.em_seconds_saved).to_bits()
    {
        return Err(
            "store replay violation: charged + saved EM differs between cold and warm".into(),
        );
    }
    let elided = 1.0 - warm.em_seconds / cold.em_seconds;
    if elided < STORE_MIN_ELIDED_FRACTION {
        return Err(format!(
            "store replay ineffective: warm run still charged {:.2}s of {:.2}s cold EM \
             ({:.0}% elided < {:.0}% required)",
            warm.em_seconds,
            cold.em_seconds,
            elided * 100.0,
            STORE_MIN_ELIDED_FRACTION * 100.0
        ));
    }
    if warm_tele.counter(Counter::StoreCrossJobHits) == 0 {
        return Err("store smoke inert: warm run observed no cross-job hits".into());
    }
    if warm.candidates != wide.candidates
        || warm.em_seconds.to_bits() != wide.em_seconds.to_bits()
        || warm.em_seconds_saved.to_bits() != wide.em_seconds_saved.to_bits()
    {
        return Err(
            "store determinism violation: warm outcome diverged between 1 and 4 threads".into(),
        );
    }
    for c in Counter::ALL {
        if warm_tele.counter(c) != wide_tele.counter(c) {
            return Err(format!(
                "store determinism violation: counter {} diverged between 1 and 4 threads",
                c.name()
            ));
        }
    }

    // Warm zoo load: zero training work, bit-identical predictions.
    let zoo_tele = Telemetry::enabled();
    let t_fit_warm = Instant::now();
    {
        let store = Arc::new(
            Store::open(&dir)
                .map_err(|e| format!("store smoke: reopen warm zoo: {e}"))?
                .with_telemetry(zoo_tele.clone()),
        );
        let zoo = isop::surrogate::ModelZoo::new(Parallelism::serial())
            .with_telemetry(zoo_tele.clone())
            .with_registry(ModelRegistry::new(store).with_telemetry(zoo_tele.clone()));
        let (s, hit) = zoo
            .fit_neural_registered(STORE_ZOO_SPACE_ID, zoo_mlp(), &data)
            .map_err(|e| format!("store smoke: warm zoo load: {e:?}"))?;
        if !hit {
            return Err(
                "store registry violation: warm zoo fit retrained instead of loading".into(),
            );
        }
        let warm_pred =
            isop_ml::Regressor::predict(s.model(), &data.x).map_err(|e| format!("{e:?}"))?;
        for r in 0..cold_pred.rows() {
            for (a, b) in cold_pred.row(r).iter().zip(warm_pred.row(r)) {
                if a.to_bits() != b.to_bits() {
                    return Err(
                        "store registry violation: warm surrogate predictions diverged".into(),
                    );
                }
            }
        }
    }
    let warm_fit_wall = t_fit_warm.elapsed().as_secs_f64();
    let zoo_report = zoo_tele.run_report();
    if zoo_report.counter("train.chunks") != 0
        || zoo_report
            .spans
            .iter()
            .any(|s| s.name.starts_with("ml.fit."))
    {
        return Err("store registry violation: warm zoo load performed training work".into());
    }

    for c in Counter::ALL {
        main.add(c, cold_tele.counter(c));
        main.add(c, warm_tele.counter(c));
        main.add(c, zoo_tele.counter(c));
    }
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "bench_gate: store smoke: warm replay elided {:.0}% of {:.2}s cold EM \
         ({} cross-job hits), zoo reload {:.3}s vs {:.3}s cold fit, \
         1 vs 4 threads bit-identical",
        elided * 100.0,
        cold.em_seconds,
        warm_tele.counter(Counter::StoreCrossJobHits),
        warm_fit_wall,
        cold_fit_wall,
    );
    Ok(t0.elapsed().as_secs_f64())
}

/// Compares one job's outcome across two engine runs: candidates, both EM
/// ledgers at exact bits, resolution, and every per-job counter.
fn engine_jobs_identical(a: &isop::engine::JobResult, b: &isop::engine::JobResult) -> bool {
    a.candidates == b.candidates
        && a.em_seconds_charged.to_bits() == b.em_seconds_charged.to_bits()
        && a.em_seconds_saved.to_bits() == b.em_seconds_saved.to_bits()
        && a.success == b.success
        && a.resolution == b.resolution
        && a.report.counters == b.report.counters
}

/// The multi-job engine's smoke. The four-job demo batch ([`demo_specs`])
/// runs three ways against fresh store directories:
///
/// 1. job `acme-s1` **solo** (the reference the identity clause compares
///    against);
/// 2. the batch **serially**: one core permit, one wave slot;
/// 3. the batch **concurrently**: host cores, two wave slots.
///
/// Always enforced: the solo job is bit-identical — candidates, ledgers,
/// every per-job counter — to the same job inside both batches; the rerun
/// jobs charge zero EM seconds (served entirely from wave 0's flushed
/// records, observed as cross-job hits); and the permit high-water mark
/// respects the budget. On hosts with at least [`ENGINE_SPEEDUP_CORES`]
/// cores the concurrent batch must additionally beat the serial batch by
/// [`MIN_ENGINE_SPEEDUP`]x wall-clock. Folds the serial batch's per-job
/// and engine/store counters into `main` so the `engine.*` wave/job
/// counts and the batch's EM volumes are budgeted. Returns the phase
/// wall-clock.
fn engine_smoke(main: &Telemetry) -> Result<f64, String> {
    let t0 = Instant::now();
    let scratch = std::env::temp_dir().join(format!("isop-bench-engine-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let batch = demo_specs();
    let run = |label: &str, specs: &[JobSpec], cores: usize, wave_slots: usize| {
        let mut queue = JobQueue::new();
        for s in specs {
            queue.push(s.clone());
        }
        let telemetry = Telemetry::enabled();
        let store = Arc::new(
            Store::open(&scratch.join(label))
                .map_err(|e| format!("engine smoke: open {label} store: {e}"))?
                .with_telemetry(telemetry.clone()),
        );
        let report = Engine::new(EngineConfig {
            cores,
            wave_slots,
            pipeline: smoke_config(SMOKE_THREADS),
        })
        .with_telemetry(telemetry.clone())
        .with_store(store)
        .run(&queue)
        .map_err(|e| format!("engine smoke: {label} run: {e}"))?;
        Ok::<_, String>((report, telemetry))
    };

    let (solo, _) = run("solo", &batch[..1], 1, 1)?;
    let t_serial = Instant::now();
    let (serial, serial_tele) = run("serial", &batch, 1, 1)?;
    let serial_wall = t_serial.elapsed().as_secs_f64();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t_conc = Instant::now();
    let (concurrent, _) = run("concurrent", &batch, host_cores, 2)?;
    let concurrent_wall = t_conc.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&scratch).ok();

    // Identity clause: the wave-0 job must not feel its batch at all.
    let find = |rep: &isop::engine::EngineReport, id: &str| {
        rep.jobs
            .iter()
            .find(|j| j.id == id)
            .cloned()
            .ok_or_else(|| format!("engine smoke: job '{id}' missing"))
    };
    let reference = find(&solo, "acme-s1")?;
    for (label, rep) in [("serial", &serial), ("concurrent", &concurrent)] {
        if !engine_jobs_identical(&reference, &find(rep, "acme-s1")?) {
            return Err(format!(
                "engine identity violation: acme-s1 in the {label} batch diverged from \
                 running solo"
            ));
        }
    }

    // Elision clause: wave 1's reruns run entirely off wave 0's records.
    if concurrent.waves != 2 {
        return Err(format!(
            "engine smoke: expected 2 admission waves, got {}",
            concurrent.waves
        ));
    }
    for id in ["acme-s1-rerun", "blue-s2-rerun"] {
        let rerun = find(&concurrent, id)?;
        if rerun.em_seconds_charged.to_bits() != 0f64.to_bits() || rerun.em_seconds_saved <= 0.0 {
            return Err(format!(
                "engine elision violation: {id} charged {:.2}s EM despite an identical \
                 wave-0 predecessor (saved {:.2}s)",
                rerun.em_seconds_charged, rerun.em_seconds_saved
            ));
        }
    }
    if concurrent.cross_job_hits == 0 {
        return Err("engine smoke inert: concurrent batch observed no cross-job hits".into());
    }
    if concurrent.peak_core_permits > host_cores || serial.peak_core_permits > 1 {
        return Err(format!(
            "engine budget violation: peak permits {} (serial {}) exceeded the grant",
            concurrent.peak_core_permits, serial.peak_core_permits
        ));
    }

    // Throughput clause, only where the host can actually overlap jobs.
    let speedup = serial_wall / concurrent_wall.max(1e-9);
    if host_cores >= ENGINE_SPEEDUP_CORES && speedup < MIN_ENGINE_SPEEDUP {
        return Err(format!(
            "engine throughput regression: concurrent batch {speedup:.2}x < \
             {MIN_ENGINE_SPEEDUP:.1}x over serial ({serial_wall:.2}s vs \
             {concurrent_wall:.2}s on {host_cores} cores)"
        ));
    }

    // Budget fold: the serial batch's engine handle (engine.* + store.*)
    // plus each per-job report — all deterministic in serial admission.
    for c in Counter::ALL {
        main.add(c, serial_tele.counter(c));
        for job in &serial.jobs {
            main.add(c, job.report.counter(c.name()));
        }
    }
    println!(
        "bench_gate: engine smoke: 4-job batch serial {serial_wall:.2}s vs concurrent \
         {concurrent_wall:.2}s ({speedup:.2}x{}); reruns elided {:.2}s EM via {} cross-job \
         hits; solo == batched bit for bit",
        if host_cores >= ENGINE_SPEEDUP_CORES {
            ""
        } else {
            "; few cores — ratio not enforced"
        },
        concurrent.em_seconds_saved,
        concurrent.cross_job_hits
    );
    Ok(t0.elapsed().as_secs_f64())
}

/// The live daemon's smoke, in two legs.
///
/// **TCP leg**: a real [`Daemon`] serves a loopback socket; the four-job
/// demo streams in as NDJSON `submit` lines, `status` is polled until all
/// four jobs finish, and `shutdown` drains the daemon. Proves the wire
/// path end to end — every response must be `"ok":true` and the journal
/// must hold a `Finished` frame per job. (Epoch composition on this leg
/// depends on request timing, so it asserts liveness, not bit-identity.)
///
/// **Kill/restart leg**, driven synchronously so the epoch layout is
/// deterministic: a victim daemon takes the same four jobs in one
/// two-wave epoch and dies mid-epoch via the chaos knob — immediately
/// after wave 1's safe-point journal flush, the worst crash window the
/// safety invariant allows. A restarted daemon on the same store must
/// recover exactly two replayed and two resumed jobs and finish the epoch
/// bit-identically to a never-killed reference daemon — candidates, both
/// EM ledgers, every per-job counter — with exactly one `Finished` frame
/// per job in the journal, i.e. zero double-charged EM seconds. Folds the
/// synchronous legs' counters into `main` so the `daemon.*` volumes are
/// budgeted, and copies the recovered journal's shards into `journal_dir`
/// so CI can upload the exact frames the replay identity was proven from.
/// Returns the phase wall-clock.
fn daemon_smoke(main: &Telemetry, journal_dir: &std::path::Path) -> Result<f64, String> {
    use isop_store::JobState;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let t0 = Instant::now();
    let scratch = std::env::temp_dir().join(format!("isop-bench-daemon-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let demo = demo_specs();
    let build = |label: &str, chaos: u64, telemetry: &Telemetry| -> Result<Daemon, String> {
        let store = Arc::new(
            Store::open(&scratch.join(label))
                .map_err(|e| format!("daemon smoke: open {label} store: {e}"))?
                .with_telemetry(telemetry.clone()),
        );
        Ok(Daemon::new(DaemonConfig {
            engine: isop::engine::EngineConfig {
                cores: SMOKE_THREADS,
                wave_slots: 2,
                pipeline: smoke_config(SMOKE_THREADS),
            },
            chaos_crash_after_waves: chaos,
            ..DaemonConfig::default()
        })
        .with_store(store)
        .with_telemetry(telemetry.clone()))
    };

    // TCP leg: stream the demo over a real socket and drain it.
    let t_tcp = Instant::now();
    let tcp_tele = Telemetry::enabled();
    let tcp_daemon = Arc::new(build("live", 0, &tcp_tele)?);
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("daemon smoke: bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("daemon smoke: local addr: {e}"))?;
    std::thread::scope(|scope| -> Result<(), String> {
        let server = {
            let daemon = Arc::clone(&tcp_daemon);
            scope.spawn(move || daemon.serve(listener))
        };
        let stream = TcpStream::connect(addr).map_err(|e| format!("daemon smoke: connect: {e}"))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("daemon smoke: clone stream: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut ask = |request: &str| -> Result<Value, String> {
            writer
                .write_all(request.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| format!("daemon smoke: send: {e}"))?;
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("daemon smoke: read: {e}"))?;
            let value = Value::parse(line.trim())
                .map_err(|e| format!("daemon smoke: bad response '{}': {e}", line.trim()))?;
            let ok = matches!(
                value.as_obj().map(|o| Value::field(o, "ok")),
                Some(Value::Bool(true))
            );
            if !ok {
                return Err(format!("daemon smoke: refused: {}", line.trim()));
            }
            Ok(value)
        };
        for s in &demo {
            ask(&format!(
                r#"{{"op":"submit","job":{}}}"#,
                s.to_value().to_json_string()
            ))?;
        }
        loop {
            let status = ask(r#"{"op":"status"}"#)?;
            let finished = status
                .as_obj()
                .and_then(|o| match Value::field(o, "finished") {
                    Value::Num(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or(0.0);
            if finished as usize >= demo.len() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        ask(r#"{"op":"shutdown"}"#)?;
        drop(writer);
        drop(reader);
        server
            .join()
            .map_err(|_| "daemon smoke: server thread panicked".to_string())?
            .map_err(|e| format!("daemon smoke: serve: {e}"))
    })?;
    drop(tcp_daemon);
    let tcp_frames = Store::open(&scratch.join("live"))
        .map_err(|e| format!("daemon smoke: reopen live store: {e}"))?
        .load_jobs()
        .map_err(|e| format!("daemon smoke: live journal: {e}"))?;
    let tcp_finished = tcp_frames
        .iter()
        .filter(|f| f.state == JobState::Finished)
        .count() as u64;
    if tcp_finished != demo.len() as u64 {
        return Err(format!(
            "daemon smoke: TCP leg journaled {tcp_finished} Finished frames, expected {}",
            demo.len()
        ));
    }
    let tcp_wall = t_tcp.elapsed().as_secs_f64();

    // Kill/restart leg: deterministic single epoch, crash after wave 1.
    let t_recovery = Instant::now();
    let victim_tele = Telemetry::enabled();
    let victim = build("crash", 1, &victim_tele)?;
    for s in &demo {
        let response = victim.handle_request(Request::Submit(s.clone()));
        if let Some(kind) = response.error_kind() {
            return Err(format!("daemon smoke: victim refused '{}': {kind}", s.id));
        }
    }
    match victim.run_next_epoch() {
        Err(e) if e.contains("chaos") => {}
        other => {
            return Err(format!(
                "daemon smoke: victim survived the chaos crash: {other:?}"
            ))
        }
    }
    drop(victim);

    let revived_tele = Telemetry::enabled();
    let revived = build("crash", 0, &revived_tele)?;
    let recovery = revived
        .recover()
        .map_err(|e| format!("daemon smoke: recover: {e}"))?;
    if recovery.epochs_pending != 1 || recovery.jobs_replayed != 2 || recovery.jobs_resumed != 2 {
        return Err(format!(
            "daemon smoke: unexpected recovery {recovery:?} (want 1 epoch, 2 replayed, 2 resumed)"
        ));
    }
    let mut revived_jobs = Vec::new();
    while let Some((_, report)) = revived
        .run_next_epoch()
        .map_err(|e| format!("daemon smoke: resumed epoch: {e}"))?
    {
        revived_jobs.extend(report.jobs);
    }
    let recovery_wall = t_recovery.elapsed().as_secs_f64();

    // Reference: the same epoch on a daemon that was never killed.
    let calm_tele = Telemetry::enabled();
    let calm = build("calm", 0, &calm_tele)?;
    for s in &demo {
        let response = calm.handle_request(Request::Submit(s.clone()));
        if let Some(kind) = response.error_kind() {
            return Err(format!("daemon smoke: calm refused '{}': {kind}", s.id));
        }
    }
    let mut calm_jobs = Vec::new();
    while let Some((_, report)) = calm
        .run_next_epoch()
        .map_err(|e| format!("daemon smoke: calm epoch: {e}"))?
    {
        calm_jobs.extend(report.jobs);
    }

    let find = |jobs: &[isop::engine::JobResult], id: &str| {
        jobs.iter()
            .find(|j| j.id == id)
            .cloned()
            .ok_or_else(|| format!("daemon smoke: job '{id}' missing"))
    };
    for s in &demo {
        let replayed = find(&revived_jobs, &s.id)?;
        let reference = find(&calm_jobs, &s.id)?;
        if !engine_jobs_identical(&replayed, &reference)
            || replayed.disposition != reference.disposition
        {
            return Err(format!(
                "daemon replay violation: job '{}' after kill + restart diverged from the \
                 never-killed daemon",
                s.id
            ));
        }
    }
    let crash_frames = Store::open(&scratch.join("crash"))
        .map_err(|e| format!("daemon smoke: reopen crash store: {e}"))?
        .load_jobs()
        .map_err(|e| format!("daemon smoke: crash journal: {e}"))?;
    let mut finished_frames = 0u64;
    for s in &demo {
        let per_job = crash_frames
            .iter()
            .filter(|f| f.state == JobState::Finished && f.job_id == s.id)
            .count() as u64;
        if per_job != 1 {
            return Err(format!(
                "daemon double-charge violation: job '{}' has {per_job} Finished frames",
                s.id
            ));
        }
        finished_frames += per_job;
    }
    let charged =
        |jobs: &[isop::engine::JobResult]| jobs.iter().map(|j| j.em_seconds_charged).sum::<f64>();
    let calm_charged = charged(&calm_jobs);
    let recovered_charged = charged(&revived_jobs);
    if calm_charged.to_bits() != recovered_charged.to_bits() {
        return Err(format!(
            "daemon double-charge violation: recovered run charged {recovered_charged:.3}s \
             vs calm {calm_charged:.3}s"
        ));
    }

    for c in Counter::ALL {
        main.add(c, victim_tele.counter(c));
        main.add(c, revived_tele.counter(c));
        main.add(c, calm_tele.counter(c));
    }
    // Preserve the proven journal as a CI artifact before the scratch
    // directory goes away.
    std::fs::create_dir_all(journal_dir)
        .map_err(|e| format!("daemon smoke: create {}: {e}", journal_dir.display()))?;
    for entry in std::fs::read_dir(scratch.join("crash"))
        .map_err(|e| format!("daemon smoke: list crash store: {e}"))?
    {
        let entry = entry.map_err(|e| format!("daemon smoke: list crash store: {e}"))?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), journal_dir.join(entry.file_name()))
                .map_err(|e| format!("daemon smoke: export journal: {e}"))?;
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    println!(
        "bench_gate: daemon smoke: TCP leg drained {} jobs in {tcp_wall:.2}s; kill at wave 1 \
         replayed {} + resumed {} jobs bit-identically in {recovery_wall:.2}s \
         ({finished_frames} Finished frames, {recovered_charged:.2}s EM charged == calm)",
        demo.len(),
        recovery.jobs_replayed,
        recovery.jobs_resumed,
    );
    Ok(t0.elapsed().as_secs_f64())
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
    }
    std::fs::write(path, contents).map_err(|e| e.to_string())
}

/// Checks every measured phase's wall-clock against its budget x
/// [`WALL_MARGIN`]. Returns one failure per phase over its limit, per
/// phase without a budget, and per budget that names no measured phase.
fn wall_failures(budgets: &[(String, f64)], walls: &[(&str, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for &(phase, secs) in walls {
        let Some(&(_, budget)) = budgets.iter().find(|(p, _)| p == phase) else {
            failures.push(format!(
                "wall-clock budget missing: phase {phase} has no max_{phase}_seconds"
            ));
            continue;
        };
        let limit = budget * WALL_MARGIN;
        if secs > limit {
            failures.push(format!(
                "wall-clock regression in phase {phase}: {secs:.2}s > {limit:.2}s \
                 ({budget:.2}s budget x {WALL_MARGIN} margin)"
            ));
        } else {
            println!("bench_gate: {phase} phase {secs:.2}s within {limit:.2}s limit");
        }
    }
    for (phase, _) in budgets {
        if !walls.iter().any(|(p, _)| p == phase) {
            failures.push(format!(
                "wall-clock budget max_{phase}_seconds names no smoke phase"
            ));
        }
    }
    failures
}

/// Checks every measured counter against its exact budget. Returns one
/// failure per counter over its budget, per reported counter without a
/// budget, and per budget that names no reported counter.
fn counter_failures(budgets: &[CounterEntry], measured: &[CounterEntry]) -> Vec<String> {
    let mut failures = Vec::new();
    for m in measured {
        let Some(budget) = budgets.iter().find(|b| b.name == m.name) else {
            failures.push(format!(
                "counter budget missing: {} is reported but not budgeted",
                m.name
            ));
            continue;
        };
        if m.value > budget.value {
            failures.push(format!(
                "counter regression: {} = {} > budget {}",
                m.name, m.value, budget.value
            ));
        } else if m.value < budget.value {
            println!(
                "bench_gate: note: {} = {} under budget {} (consider --update)",
                m.name, m.value, budget.value
            );
        }
    }
    for budget in budgets {
        if !measured.iter().any(|m| m.name == budget.name) {
            failures.push(format!(
                "counter budget {} names no reported counter",
                budget.name
            ));
        }
    }
    failures
}

fn gate(
    thresholds_path: &str,
    out_path: &str,
    update: bool,
    use_cache: bool,
) -> Result<(), String> {
    let (report, walls) = run_smoke(
        use_cache,
        &std::path::Path::new(out_path).with_file_name("daemon_journal"),
    )?;
    write_file(out_path, &report.to_json().map_err(|e| format!("{e:?}"))?)?;
    let timings: Vec<String> = walls
        .iter()
        .map(|(phase, secs)| format!("{phase} {secs:.2}s"))
        .collect();
    println!(
        "bench_gate: smoke phases took {}; report at {out_path}",
        timings.join(", ")
    );

    if update {
        let thresholds = GateThresholds {
            schema_version: RunReport::SCHEMA_VERSION,
            seed: SMOKE_SEED,
            walls: walls
                .iter()
                .map(|&(phase, secs)| (phase.to_string(), secs * WALL_UPDATE_HEADROOM))
                .collect(),
            counters: report.counters.clone(),
        };
        let json = serde_json::to_string(&thresholds).map_err(|e| format!("{e:?}"))?;
        write_file(thresholds_path, &json)?;
        println!("bench_gate: wrote thresholds to {thresholds_path}");
        return Ok(());
    }

    let text = std::fs::read_to_string(thresholds_path)
        .map_err(|e| format!("{thresholds_path}: {e} (run with --update to create)"))?;
    let thresholds: GateThresholds =
        serde_json::from_str(&text).map_err(|e| format!("{thresholds_path}: {e:?}"))?;
    if thresholds.schema_version != RunReport::SCHEMA_VERSION {
        return Err(format!(
            "threshold schema v{} != report schema v{} (run --update)",
            thresholds.schema_version,
            RunReport::SCHEMA_VERSION
        ));
    }
    if thresholds.seed != SMOKE_SEED {
        return Err(format!(
            "thresholds recorded at seed {} but the smoke run uses seed {SMOKE_SEED}",
            thresholds.seed
        ));
    }

    let mut failures = counter_failures(&thresholds.counters, &report.counters);
    failures.extend(wall_failures(&thresholds.walls, &walls));

    if failures.is_empty() {
        println!(
            "bench_gate: OK ({} counters checked)",
            thresholds.counters.len()
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut thresholds_path = "scripts/bench_thresholds.json".to_string();
    let mut out_path = "results/BENCH_ci.json".to_string();
    let mut update = false;
    let mut use_cache = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--update" => {
                update = true;
                i += 1;
            }
            "--no-cache" => {
                use_cache = false;
                i += 1;
            }
            "--thresholds" if i + 1 < args.len() => {
                thresholds_path = args[i + 1].clone();
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            other => {
                eprintln!("bench_gate: unknown argument '{other}'");
                eprintln!(
                    "usage: bench_gate [--thresholds FILE] [--out FILE] [--update] [--no-cache]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    match gate(&thresholds_path, &out_path, update, use_cache) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_gate: FAIL\n{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_has_exactly_one_wall_budget() {
        let thresholds: GateThresholds =
            serde_json::from_str(include_str!("../../../../scripts/bench_thresholds.json"))
                .expect("checked-in thresholds parse");
        let budgeted: Vec<&str> = thresholds.walls.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(budgeted, PHASES, "one budget per phase, in run order");
        let on_budget: Vec<(&str, f64)> = thresholds
            .walls
            .iter()
            .map(|(p, secs)| (p.as_str(), *secs))
            .collect();
        assert!(wall_failures(&thresholds.walls, &on_budget).is_empty());
    }

    #[test]
    fn a_phase_over_budget_fails_by_name() {
        let budgets: Vec<(String, f64)> = PHASES.iter().map(|p| (p.to_string(), 1.0)).collect();
        for phase in PHASES {
            let walls: Vec<(&str, f64)> = PHASES
                .iter()
                .map(|&p| (p, if p == phase { WALL_MARGIN * 1.01 } else { 1.0 }))
                .collect();
            let failures = wall_failures(&budgets, &walls);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(
                failures[0].contains(&format!("in phase {phase}:")),
                "{failures:?}"
            );
        }
        // A phase without a budget, and a budget without a phase, fail too.
        let failures = wall_failures(&budgets[1..], &[("wall", 0.0)]);
        assert_eq!(failures.len(), 1 + PHASES.len() - 1, "{failures:?}");
        assert!(failures[0].contains("phase wall has no max_wall_seconds"));
    }

    #[test]
    fn checked_in_budgets_name_every_counter_exactly_once() {
        let thresholds: GateThresholds =
            serde_json::from_str(include_str!("../../../../scripts/bench_thresholds.json"))
                .expect("checked-in thresholds parse");
        let budgeted: Vec<&str> = thresholds
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        let counters: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            budgeted, counters,
            "one budget per counter, in Counter::ALL order"
        );
    }

    #[test]
    fn a_counter_set_mismatch_fails_by_name() {
        let entry = |name: &str, value: u64| CounterEntry {
            name: name.to_string(),
            value,
        };
        let budgets = vec![entry("a", 2), entry("b", 2)];
        let on_budget = vec![entry("a", 2), entry("b", 1)];
        assert!(counter_failures(&budgets, &on_budget).is_empty());

        let over = vec![entry("a", 3), entry("b", 2)];
        let failures = counter_failures(&budgets, &over);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("counter regression: a = 3"));

        // A budget without a counter, and a counter without a budget, fail
        // even at value 0.
        let renamed = vec![entry("a", 2), entry("c", 0)];
        let failures = counter_failures(&budgets, &renamed);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("c is reported but not budgeted"));
        assert!(failures[1].contains("budget b names no reported counter"));
    }

    #[test]
    fn thresholds_round_trip_through_json() {
        let text = include_str!("../../../../scripts/bench_thresholds.json");
        let thresholds: GateThresholds = serde_json::from_str(text).expect("parses");
        assert_eq!(serde_json::to_string(&thresholds).expect("writes"), text);
    }
}
