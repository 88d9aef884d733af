//! CI perf-regression gate: runs the seeded smoke pipeline with telemetry,
//! writes the machine-readable `BENCH_ci.json` run report, and diffs it
//! against the checked-in thresholds (`scripts/bench_thresholds.json`).
//!
//! The gate checks four things, and only these:
//!
//! * **Counters** are deterministic at a fixed seed (commutative atomic
//!   adds, any thread width), so any measured value *above* its threshold
//!   is a hard failure — the change made the pipeline do more work than
//!   the budget allows. Values below threshold only warn (run `--update`
//!   to tighten the budget). The thresholds file and the report must name
//!   the same counter set: a budget on a counter the report lacks, or a
//!   reported counter without a budget, fails the gate.
//! * **EM ledgers**: the shared evaluation cache must elide at least
//!   [`MIN_SAVED_FRACTION`] of the smoke's EM seconds, and the warm store
//!   replay at least [`STORE_MIN_ELIDED_FRACTION`] of the cold run's.
//! * **Inert-smoke guards**: each phase whose counters fold into the
//!   report must actually exercise its path (retries and live scheduler
//!   batches under faults, cross-job store hits, a mid-epoch daemon kill
//!   that recovers 2 replayed + 2 resumed jobs), or the pins on it would
//!   gate nothing.
//! * **Wall-clock** is noisy, so it fails only beyond a 10% margin over
//!   the threshold. Every timed phase in [`PHASES`] has one
//!   `max_{phase}_seconds` budget, and one loop checks them all. Two
//!   speedup ratios ([`MIN_TRAIN_SPEEDUP`], [`MIN_ENGINE_SPEEDUP`]) are
//!   enforced only on hosts with enough cores to show them.
//!
//! The phases, each folding its counters into the one budgeted report:
//! `wall` runs the seeded pipeline twice sharing one evaluation cache (the
//! second roll-out is served from cache); `train` fits a random forest and
//! a dropout MLP serially and at [`TRAIN_THREADS`] workers; `fault` runs
//! the roll-out through the seeded [`FaultInjector`]; `store` runs the
//! pipeline cold and then warm against one store directory and fits and
//! reloads a zoo surrogate through the model registry; `engine` runs the
//! four-job demo batch ([`demo_specs`]) serially (plus a concurrent twin
//! timed for the speedup ratio); `daemon` kills a daemon mid-epoch,
//! restarts it on the same store, and runs a never-killed reference. The
//! recovered store is copied to `daemon_journal/` next to the report.
//!
//! Identity contracts are asserted once, by the test suite, not here:
//! cache on/off and warm replay (`tests/evalcache_identity.rs`), training
//! thread width (`tests/train_parallel_identity.rs`), the fault layer's
//! transparency, width identity and top-up (`tests/em_fault_tolerance.rs`),
//! async-vs-wave charging (`scheduler::tests` in `isop`), cold/warm store
//! replay (`tests/store_persistence.rs`), the registry reload
//! (`surrogate::tests` in `isop`), solo-vs-batched engine jobs
//! (`tests/engine_concurrency.rs`), and the daemon's TCP path and
//! kill/restart replay (`tests/daemon_lifecycle.rs`).
//!
//! ```text
//! bench_gate [--thresholds scripts/bench_thresholds.json]
//!            [--out results/BENCH_ci.json] [--update]
//! ```
//!
//! `--update` reruns the smoke pipeline and rewrites the thresholds file
//! from the measurement (counters exact, wall-clock with 3x headroom).

use isop::data::generate_dataset;
use isop::evalcache::EvalCache;
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
/// Worker threads of the training smoke's parallel fits.
const TRAIN_THREADS: usize = 4;
/// Minimum forest-training speedup at [`TRAIN_THREADS`] workers, enforced
/// only on hosts that actually have that many cores.
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
/// Fraction of the cold run's charged EM seconds the warm-store replay
/// must elide (a full-hit replay elides 100%; 90% leaves room for a
/// future smoke tweak that adds a handful of fresh designs).
const STORE_MIN_ELIDED_FRACTION: f64 = 0.9;
/// Registry key of the store smoke's zoo surrogate (any stable value —
/// the registry only requires it to be consistent between cold and warm).
const STORE_ZOO_SPACE_ID: u64 = 0x5105;
/// Minimum serial-over-concurrent wall-clock speedup of the engine smoke's
/// four-job batch, enforced only on hosts with at least
/// [`ENGINE_SPEEDUP_CORES`] cores.
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

/// Builds one unfitted model of the training smoke.
type MakeModel = fn() -> Box<dyn Regressor>;

/// The training smoke: fits a random forest and a dropout MLP twice each —
/// serially and at [`TRAIN_THREADS`] workers — on `telemetry`, so every
/// fit's `train.*` counters land in the budgeted report. On hosts with at
/// least [`TRAIN_THREADS`] cores the forest (the embarrassingly parallel
/// workload) must come back at least [`MIN_TRAIN_SPEEDUP`]x faster.
/// Returns the phase's total wall-clock, seconds.
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
    let models: [(&str, MakeModel); 2] = [
        ("forest", || {
            Box::new(RandomForest::new(
                12,
                TreeConfig {
                    max_depth: 9,
                    ..TreeConfig::default()
                },
                SMOKE_SEED,
            ))
        }),
        ("mlp", || {
            Box::new(Mlp::new(MlpConfig {
                hidden: vec![48, 48],
                epochs: 6,
                dropout: 0.05,
                seed: SMOKE_SEED,
                ..MlpConfig::default()
            }))
        }),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut total = 0.0;
    for (name, make) in models {
        let fit = |ctx: &TrainContext| {
            let t0 = Instant::now();
            make()
                .fit_with(&data, ctx)
                .map_err(|e| format!("{name} fit: {e:?}"))?;
            Ok::<_, String>(t0.elapsed().as_secs_f64())
        };
        let serial_secs = fit(&serial_ctx)?;
        let par_secs = fit(&par_ctx)?;
        total += serial_secs + par_secs;
        let speedup = serial_secs / par_secs.max(1e-9);
        if name == "forest" && cores >= TRAIN_THREADS && speedup < MIN_TRAIN_SPEEDUP {
            return Err(format!(
                "training speedup regression: forest {speedup:.2}x < \
                 {MIN_TRAIN_SPEEDUP:.1}x at {TRAIN_THREADS} threads ({cores} cores)"
            ));
        }
        println!(
            "bench_gate: train smoke {name}: serial {serial_secs:.2}s, \
             {TRAIN_THREADS} threads {par_secs:.2}s ({speedup:.2}x)"
        );
    }
    if cores < TRAIN_THREADS {
        println!(
            "bench_gate: host has {cores} core(s) < {TRAIN_THREADS} — speedup ratio not \
             enforced"
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
/// one evaluation cache across the runs, then every other smoke phase on
/// the same handle. Returns the budgeted report and each of [`PHASES`]'
/// wall-clock, or an error if the saved-EM fraction falls under
/// [`MIN_SAVED_FRACTION`] or any phase fails its ledger or inert guard.
fn run_smoke(journal_dir: &std::path::Path) -> Result<(RunReport, PhaseWalls), String> {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let telemetry = Telemetry::enabled();
    let simulator = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let config = smoke_config(SMOKE_THREADS);
    let cache = EvalCache::new();
    let t0 = Instant::now();
    let run = || {
        IsopOptimizer::new(&space, &surrogate, &simulator, config.clone())
            .with_telemetry(telemetry.clone())
            .with_eval_cache(cache.clone())
            .run(
                isop::tasks::objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                SMOKE_SEED,
            )
    };
    let first = run();
    let second = run();
    let wall = t0.elapsed().as_secs_f64();

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

    let walls: [f64; PHASES.len()] = [
        wall,
        train_smoke(&telemetry)?,
        fault_smoke(&telemetry)?,
        store_smoke(&telemetry)?,
        engine_smoke(&telemetry)?,
        daemon_smoke(&telemetry, journal_dir)?,
    ];

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
    Ok((report, PHASES.into_iter().zip(walls).collect()))
}

/// The fault-injection smoke: one serial pipeline run through
/// [`FaultInjector`] at the [`FAULT_RATE`]/[`FAULT_PERMANENT_RATE`] config,
/// on a scratch telemetry handle whose counters then fold into `main`
/// once, so `em.retries`, `em.failures_*`, `em.topped_up` and the
/// `em.sched.*` gauges are gated by the counter budgets. Fails when the
/// run formed no live batch or retried nothing. Returns the phase
/// wall-clock.
fn fault_smoke(main: &Telemetry) -> Result<f64, String> {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let t0 = Instant::now();
    let telemetry = Telemetry::enabled();
    let injector = FaultInjector::new(
        AnalyticalSolver::new().with_telemetry(telemetry.clone()),
        FaultConfig {
            transient_rate: FAULT_RATE,
            permanent_rate: FAULT_PERMANENT_RATE,
            seed: FAULT_SEED,
        },
    )
    .with_telemetry(telemetry.clone());
    let outcome = IsopOptimizer::new(&space, &surrogate, &injector, smoke_config(1))
        .with_telemetry(telemetry.clone())
        .run(
            isop::tasks::objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            SMOKE_SEED,
        );
    if telemetry.counter(Counter::EmRetries) == 0
        || telemetry.counter(Counter::EmFailuresTransient) == 0
    {
        return Err(format!(
            "fault smoke inert: rate {FAULT_RATE} produced no retries at seed {SMOKE_SEED} — \
             the retry budgets below gate nothing"
        ));
    }
    if telemetry.counter(Counter::EmSchedBatches) == 0 {
        return Err("scheduler smoke inert: async run formed no live batches".into());
    }
    for c in Counter::ALL {
        main.add(c, telemetry.counter(c));
    }
    println!(
        "bench_gate: fault smoke: {} retries, {} transient, {} permanent, {} topped up, \
         resolution {}; charged {:.2}s EM in {} batches ({} slack slots)",
        telemetry.counter(Counter::EmRetries),
        telemetry.counter(Counter::EmFailuresTransient),
        telemetry.counter(Counter::EmFailuresPermanent),
        telemetry.counter(Counter::EmToppedUp),
        outcome.resolution,
        outcome.em_seconds,
        telemetry.counter(Counter::EmSchedBatches),
        telemetry.counter(Counter::EmSchedSlackSlots),
    );
    Ok(t0.elapsed().as_secs_f64())
}

/// The persistent store's smoke: the seeded pipeline runs **cold** against
/// a fresh store directory, a zoo surrogate is fitted through the model
/// registry into the same store, then the pipeline runs **warm** from
/// fresh handles at one thread and the zoo surrogate is reloaded. The warm
/// replay must elide at least [`STORE_MIN_ELIDED_FRACTION`] of the cold
/// charged EM seconds through cross-job hits.
///
/// Folds the cold, warm and reload handles' counters into `main` so the
/// `store.*` read/write volumes and the registry hit/miss split are
/// budgeted like any other counter (a reload that retrains lands over the
/// `store.model_misses` and `train.chunks` budgets). Returns the phase
/// wall-clock.
fn store_smoke(main: &Telemetry) -> Result<f64, String> {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let t0 = Instant::now();
    let dir = std::env::temp_dir().join(format!("isop-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let open = |telemetry: &Telemetry| {
        Store::open(&dir)
            .map(|store| Arc::new(store.with_telemetry(telemetry.clone())))
            .map_err(|e| format!("store smoke: open {}: {e}", dir.display()))
    };

    let run = |threads: usize, telemetry: &Telemetry, persist: bool| {
        let cache = EvalCache::with_store(open(telemetry)?);
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

    // Zoo fit through the registry, persisted next to the eval records
    // (serial training context so the folded `train.*` counters stay
    // host-independent); the second call reloads it from a fresh handle.
    let data = generate_dataset(&space, 300, &AnalyticalSolver::new(), SMOKE_SEED)
        .map_err(|e| format!("store smoke dataset: {e:?}"))?;
    let zoo_fit = |telemetry: &Telemetry| {
        let zoo = isop::surrogate::ModelZoo::new(Parallelism::serial())
            .with_telemetry(telemetry.clone())
            .with_registry(ModelRegistry::new(open(telemetry)?).with_telemetry(telemetry.clone()));
        let t_fit = Instant::now();
        zoo.fit_neural_registered(
            STORE_ZOO_SPACE_ID,
            Mlp::new(MlpConfig {
                hidden: vec![16, 16],
                epochs: 4,
                seed: SMOKE_SEED,
                ..MlpConfig::default()
            }),
            &data,
        )
        .map_err(|e| format!("store smoke: zoo fit: {e:?}"))?;
        zoo.registry()
            .expect("registry attached above")
            .persist()
            .map_err(|e| format!("store smoke: zoo flush: {e}"))?;
        Ok::<_, String>(t_fit.elapsed().as_secs_f64())
    };
    let cold_fit_wall = zoo_fit(&cold_tele)?;

    // Warm replay from fresh handles (no persist: a full-hit replay has
    // nothing new to write).
    let warm_tele = Telemetry::enabled();
    let warm = run(1, &warm_tele, false)?;
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
    let zoo_tele = Telemetry::enabled();
    let warm_fit_wall = zoo_fit(&zoo_tele)?;

    for c in Counter::ALL {
        main.add(c, cold_tele.counter(c));
        main.add(c, warm_tele.counter(c));
        main.add(c, zoo_tele.counter(c));
    }
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "bench_gate: store smoke: warm replay elided {:.0}% of {:.2}s cold EM \
         ({} cross-job hits), zoo reload {warm_fit_wall:.3}s vs {cold_fit_wall:.3}s cold fit",
        elided * 100.0,
        cold.em_seconds,
        warm_tele.counter(Counter::StoreCrossJobHits),
    );
    Ok(t0.elapsed().as_secs_f64())
}

/// The multi-job engine's smoke: the four-job demo batch ([`demo_specs`])
/// runs serially (one core permit, one wave slot) and concurrently (host
/// cores, two wave slots), each against a fresh store directory. The
/// serial batch's engine handle and per-job counters fold into `main`, so
/// the `engine.*` wave/job counts and the batch's EM volumes are budgeted;
/// its reruns must hit wave 0's records, or those budgets gate nothing.
/// The concurrent batch exists for the throughput clause: on hosts with at
/// least [`ENGINE_SPEEDUP_CORES`] cores it must beat the serial batch by
/// [`MIN_ENGINE_SPEEDUP`]x wall-clock. Returns the phase wall-clock.
fn engine_smoke(main: &Telemetry) -> Result<f64, String> {
    let t0 = Instant::now();
    let scratch = std::env::temp_dir().join(format!("isop-bench-engine-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let run = |label: &str, cores: usize, wave_slots: usize| {
        let mut queue = JobQueue::new();
        for s in demo_specs() {
            queue.push(s);
        }
        let telemetry = Telemetry::enabled();
        let store = Arc::new(
            Store::open(&scratch.join(label))
                .map_err(|e| format!("engine smoke: open {label} store: {e}"))?
                .with_telemetry(telemetry.clone()),
        );
        let t_run = Instant::now();
        let report = Engine::new(EngineConfig {
            cores,
            wave_slots,
            pipeline: smoke_config(SMOKE_THREADS),
        })
        .with_telemetry(telemetry.clone())
        .with_store(store)
        .run(&queue)
        .map_err(|e| format!("engine smoke: {label} run: {e}"))?;
        Ok::<_, String>((report, telemetry, t_run.elapsed().as_secs_f64()))
    };

    let (serial, serial_tele, serial_wall) = run("serial", 1, 1)?;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (_, _, concurrent_wall) = run("concurrent", host_cores, 2)?;
    std::fs::remove_dir_all(&scratch).ok();

    if serial.cross_job_hits == 0 {
        return Err("engine smoke inert: serial batch observed no cross-job hits".into());
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
         {concurrent_wall:.2}s ({speedup:.2}x{}); serial reruns saved {:.2}s EM via {} \
         cross-job hits",
        if host_cores >= ENGINE_SPEEDUP_CORES {
            ""
        } else {
            "; few cores — ratio not enforced"
        },
        serial.em_seconds_saved,
        serial.cross_job_hits
    );
    Ok(t0.elapsed().as_secs_f64())
}

/// The daemon's smoke, driven synchronously so the epoch layout is
/// deterministic: a victim daemon takes the four demo jobs in one two-wave
/// epoch and dies mid-epoch via the chaos knob, right after wave 1's
/// safe-point journal flush; a daemon restarted on the same store must
/// recover one epoch with two replayed and two resumed jobs and finish it;
/// a never-killed daemon runs the same epoch on its own store. Folds all
/// three handles' counters into `main` so the `daemon.*` volumes are
/// budgeted, and copies the recovered store's files into `journal_dir` as
/// a CI artifact. Returns the phase wall-clock.
fn daemon_smoke(main: &Telemetry, journal_dir: &std::path::Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let scratch = std::env::temp_dir().join(format!("isop-bench-daemon-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let build = |label: &str, chaos: u64, telemetry: &Telemetry| -> Result<Daemon, String> {
        let store = Arc::new(
            Store::open(&scratch.join(label))
                .map_err(|e| format!("daemon smoke: open {label} store: {e}"))?
                .with_telemetry(telemetry.clone()),
        );
        let daemon = Daemon::new(DaemonConfig {
            engine: isop::engine::EngineConfig {
                cores: SMOKE_THREADS,
                wave_slots: 2,
                pipeline: smoke_config(SMOKE_THREADS),
            },
            chaos_crash_after_waves: chaos,
            ..DaemonConfig::default()
        })
        .with_store(store)
        .with_telemetry(telemetry.clone());
        Ok(daemon)
    };
    let submit_demo = |daemon: &Daemon, label: &str| {
        for s in demo_specs() {
            let id = s.id.clone();
            if let Some(kind) = daemon.handle_request(Request::Submit(s)).error_kind() {
                return Err(format!("daemon smoke: {label} refused '{id}': {kind}"));
            }
        }
        Ok(())
    };
    let drain = |daemon: &Daemon, label: &str| {
        while daemon
            .run_next_epoch()
            .map_err(|e| format!("daemon smoke: {label} epoch: {e}"))?
            .is_some()
        {}
        Ok::<_, String>(())
    };

    // Victim: deterministic single epoch, crash after wave 1.
    let victim_tele = Telemetry::enabled();
    let victim = build("crash", 1, &victim_tele)?;
    submit_demo(&victim, "victim")?;
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
    drain(&revived, "resumed")?;
    drop(revived);

    // Reference: the same epoch on a daemon that was never killed.
    let calm_tele = Telemetry::enabled();
    let calm = build("calm", 0, &calm_tele)?;
    submit_demo(&calm, "calm")?;
    drain(&calm, "calm")?;

    for c in Counter::ALL {
        main.add(c, victim_tele.counter(c));
        main.add(c, revived_tele.counter(c));
        main.add(c, calm_tele.counter(c));
    }
    // Keep the recovered store as a CI artifact before the scratch
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
        "bench_gate: daemon smoke: kill at wave 1 recovered {} replayed + {} resumed jobs",
        recovery.jobs_replayed, recovery.jobs_resumed,
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

fn gate(thresholds_path: &str, out_path: &str, update: bool) -> Result<(), String> {
    let (report, walls) =
        run_smoke(&std::path::Path::new(out_path).with_file_name("daemon_journal"))?;
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
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--update" => {
                update = true;
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
                eprintln!("usage: bench_gate [--thresholds FILE] [--out FILE] [--update]");
                return ExitCode::FAILURE;
            }
        }
    }
    match gate(&thresholds_path, &out_path, update) {
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
