//! Integration tests of the fault-tolerant roll-out contract: the seeded
//! fault layer is bit-transparent at rate 0, faulted outcomes and every
//! fault counter are independent of the thread width (faults are keyed by
//! design identity, never call order), top-up keeps the accurate simulator
//! fed to `cand_num` successes, retries charge simulated time to the EM
//! ledger, cache hits bypass the retry path entirely, and a total outage
//! resolves as `all_simulations_failed` instead of an ordinary infeasible
//! trial.

use isop::evalcache::EvalCache;
use isop::prelude::*;
use isop_em::fault::{PermanentFault, TransientFault};
use isop_em::simulator::{AnalyticalSolver, EmSimulator, SimulationResult, PAPER_EM_BATCH_SECONDS};
use isop_em::stackup::DiffStripline;
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;
use std::collections::HashMap;
use std::sync::Mutex;

const SEED: u64 = 3;
const FAULT_SEED: u64 = 2;

/// What a synchronous wave schedule delivered and charged when every
/// design fails twice before succeeding, measured with that schedule and
/// pinned so the ledger comparison needs no second scheduler.
const SYNC_FAIL_TWICE_CANDIDATES: usize = 3;
const SYNC_FAIL_TWICE_EM_SECONDS: f64 = 151.16666666666663;

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

fn run_with(
    simulator: &dyn EmSimulator,
    threads: usize,
    telemetry: &Telemetry,
    cache: &EvalCache,
) -> isop::pipeline::IsopOutcome {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    IsopOptimizer::new(&space, &surrogate, simulator, smoke_config(threads))
        .with_telemetry(telemetry.clone())
        .with_eval_cache(cache.clone())
        .run(
            isop::tasks::objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            SEED,
        )
}

/// A deterministic flaky simulator: every distinct design fails its first
/// `fail_first` attempts with a transient fault, then succeeds. Keyed by
/// the design's parameter bits (like the fault injector), so the behaviour
/// is identical at any thread width.
struct FailNth<S> {
    inner: S,
    fail_first: u32,
    seen: Mutex<HashMap<Vec<u64>, u32>>,
}

impl<S> FailNth<S> {
    fn new(inner: S, fail_first: u32) -> Self {
        Self {
            inner,
            fail_first,
            seen: Mutex::new(HashMap::new()),
        }
    }
}

impl<S: EmSimulator> EmSimulator for FailNth<S> {
    fn simulate(&self, layer: &DiffStripline) -> Result<SimulationResult, SimError> {
        let key: Vec<u64> = layer.to_vector().iter().map(|v| v.to_bits()).collect();
        let attempt = {
            let mut seen = self.seen.lock().expect("seen lock");
            let n = seen.entry(key).or_insert(0);
            *n += 1;
            *n
        };
        if attempt <= self.fail_first {
            return Err(SimError::Transient(TransientFault::Timeout));
        }
        self.inner.simulate(layer)
    }

    fn nominal_seconds(&self) -> f64 {
        self.inner.nominal_seconds()
    }

    fn name(&self) -> &str {
        "fail-nth"
    }
}

/// A simulator where every design is permanently unsolvable.
struct AlwaysDoomed;

impl EmSimulator for AlwaysDoomed {
    fn simulate(&self, _layer: &DiffStripline) -> Result<SimulationResult, SimError> {
        Err(SimError::Permanent(PermanentFault::Unsolvable))
    }

    fn nominal_seconds(&self) -> f64 {
        PAPER_EM_BATCH_SECONDS / 3.0
    }

    fn name(&self) -> &str {
        "doomed"
    }
}

#[test]
fn zero_rate_fault_layer_is_bit_transparent() {
    let plain_tele = Telemetry::enabled();
    let plain_sim = AnalyticalSolver::new().with_telemetry(plain_tele.clone());
    let plain = run_with(&plain_sim, 2, &plain_tele, &EvalCache::disabled());

    let zero_tele = Telemetry::enabled();
    let zero_sim = FaultInjector::new(
        AnalyticalSolver::new().with_telemetry(zero_tele.clone()),
        FaultConfig::disabled(FAULT_SEED),
    )
    .with_telemetry(zero_tele.clone());
    let zero = run_with(&zero_sim, 2, &zero_tele, &EvalCache::disabled());

    assert_eq!(plain.candidates, zero.candidates);
    assert_eq!(plain.success, zero.success);
    assert_eq!(plain.em_seconds.to_bits(), zero.em_seconds.to_bits());
    assert_eq!(
        plain.em_seconds_saved.to_bits(),
        zero.em_seconds_saved.to_bits()
    );
    assert_eq!(zero.resolution, RolloutResolution::Full);
    assert_eq!(zero.em_retries, 0);
    assert_eq!(zero.em_failures_transient, 0);
    assert_eq!(zero.em_failures_permanent, 0);
    assert_eq!(zero.em_topped_up, 0);
    for c in Counter::ALL {
        assert_eq!(
            plain_tele.counter(c),
            zero_tele.counter(c),
            "rate-0 fault layer moved counter {}",
            c.name()
        );
    }
}

#[test]
fn faulted_outcome_and_counters_bit_identical_across_thread_widths() {
    let config = FaultConfig {
        transient_rate: 0.35,
        permanent_rate: 0.30,
        seed: FAULT_SEED,
    };
    let run_at = |threads: usize| {
        let telemetry = Telemetry::enabled();
        let simulator = FaultInjector::new(
            AnalyticalSolver::new().with_telemetry(telemetry.clone()),
            config,
        )
        .with_telemetry(telemetry.clone());
        let outcome = run_with(&simulator, threads, &telemetry, &EvalCache::disabled());
        (outcome, telemetry)
    };
    let (serial, serial_tele) = run_at(1);
    let (wide, wide_tele) = run_at(4);

    assert_eq!(serial.candidates, wide.candidates);
    assert_eq!(serial.resolution, wide.resolution);
    assert_eq!(serial.em_retries, wide.em_retries);
    assert_eq!(serial.em_failures_transient, wide.em_failures_transient);
    assert_eq!(serial.em_failures_permanent, wide.em_failures_permanent);
    assert_eq!(serial.em_topped_up, wide.em_topped_up);
    assert_eq!(serial.em_seconds.to_bits(), wide.em_seconds.to_bits());
    assert_eq!(
        serial.em_seconds_saved.to_bits(),
        wide.em_seconds_saved.to_bits()
    );
    for c in Counter::ALL {
        assert_eq!(
            serial_tele.counter(c),
            wide_tele.counter(c),
            "counter {} diverged between 1 and 4 threads",
            c.name()
        );
    }
    // The fixture actually exercises the fault path.
    assert!(serial.em_retries > 0);
    assert!(serial.em_failures_transient > 0);
    // Injected failures keep the attempt ledger closed.
    assert_eq!(
        serial_tele.counter(Counter::EmSimAttempted),
        serial_tele.counter(Counter::EmSimSucceeded) + serial_tele.counter(Counter::EmSimFailed)
    );
}

#[test]
fn top_up_restores_full_rollout_after_permanent_failure() {
    let telemetry = Telemetry::enabled();
    let simulator = FaultInjector::new(
        AnalyticalSolver::new().with_telemetry(telemetry.clone()),
        FaultConfig {
            transient_rate: 0.35,
            permanent_rate: 0.30,
            seed: FAULT_SEED,
        },
    )
    .with_telemetry(telemetry.clone());
    let outcome = run_with(&simulator, 2, &telemetry, &EvalCache::disabled());

    // A design was permanently lost, yet the surplus surrogate-ranked pool
    // refilled the roll-out to the full cand_num.
    assert!(outcome.em_failures_permanent > 0);
    assert!(outcome.em_topped_up > 0);
    assert_eq!(outcome.candidates.len(), smoke_config(2).cand_num);
    assert_eq!(outcome.resolution, RolloutResolution::Full);
}

#[test]
fn retries_rescue_flaky_designs_and_charge_simulated_time() {
    let plain_tele = Telemetry::enabled();
    let plain_sim = AnalyticalSolver::new().with_telemetry(plain_tele.clone());
    let plain = run_with(&plain_sim, 2, &plain_tele, &EvalCache::disabled());

    // Every design fails twice then succeeds; the default budget of three
    // attempts rescues all of them.
    let telemetry = Telemetry::enabled();
    let simulator = FailNth::new(AnalyticalSolver::new().with_telemetry(telemetry.clone()), 2);
    let flaky = run_with(&simulator, 2, &telemetry, &EvalCache::disabled());

    assert_eq!(flaky.candidates.len(), plain.candidates.len());
    for (f, p) in flaky.candidates.iter().zip(&plain.candidates) {
        assert_eq!(f.values, p.values);
        assert_eq!(f.g_exact.to_bits(), p.g_exact.to_bits());
        assert_eq!(f.attempts, 3);
    }
    let n = flaky.candidates.len() as u64;
    assert_eq!(flaky.em_retries, 2 * n);
    assert_eq!(flaky.em_failures_transient, 2 * n);
    assert_eq!(flaky.resolution, RolloutResolution::Full);

    // Async charging: the three designs retry *together*, so the whole
    // roll-out is three full batches (attempt rounds) at one nominal each
    // — no per-failure surcharge, no backoff billing. The ledger must be
    // bit-exactly three nominals…
    let nominal = plain_sim.nominal_seconds();
    assert_eq!(flaky.em_seconds.to_bits(), (3.0 * nominal).to_bits());
    assert_eq!(telemetry.counter(Counter::EmBatchesCharged), 3);

    // …and strictly below what a synchronous wave schedule charges for the
    // same candidates: one batch for the three deliveries plus, per design,
    // two failed attempts at one nominal each and 5 s + 10 s of backoff
    // before attempts two and three.
    assert_eq!(flaky.candidates.len(), SYNC_FAIL_TWICE_CANDIDATES);
    assert_eq!(
        SYNC_FAIL_TWICE_EM_SECONDS.to_bits(),
        (0..n)
            .fold(plain.em_seconds, |acc, _| acc + (2.0 * nominal + 15.0))
            .to_bits(),
        "the pinned synchronous charge follows from the nominal run time"
    );
    assert!(
        flaky.em_seconds < SYNC_FAIL_TWICE_EM_SECONDS,
        "async ledger {} must undercut the synchronous schedule {}",
        flaky.em_seconds,
        SYNC_FAIL_TWICE_EM_SECONDS
    );
}

#[test]
fn warm_cache_replay_bypasses_the_retry_path() {
    let cache = EvalCache::new();
    let cold_tele = Telemetry::enabled();
    let cold_sim = FailNth::new(AnalyticalSolver::new().with_telemetry(cold_tele.clone()), 2);
    let cold = run_with(&cold_sim, 2, &cold_tele, &cache);
    assert_eq!(cold.em_retries, 2 * cold.candidates.len() as u64);

    // Fresh simulator state and telemetry: the warm run must be served
    // entirely from cache — attempt counts replayed, no retries, no
    // backoff, the whole batch charge landing in the saved ledger.
    let warm_tele = Telemetry::enabled();
    let warm_sim = FailNth::new(AnalyticalSolver::new().with_telemetry(warm_tele.clone()), 2);
    let warm = run_with(&warm_sim, 2, &warm_tele, &cache);

    assert_eq!(warm.candidates, cold.candidates);
    assert!(warm
        .candidates
        .iter()
        .all(|candidate| candidate.attempts == 3));
    assert_eq!(warm.em_retries, 0);
    assert_eq!(warm.em_failures_transient, 0);
    assert_eq!(warm_tele.counter(Counter::EmRetries), 0);
    assert_eq!(warm.em_seconds, 0.0);
    assert!(warm.em_seconds_saved > 0.0);
    assert_eq!(warm.resolution, RolloutResolution::Full);
}

#[test]
fn total_outage_resolves_as_all_simulations_failed() {
    let telemetry = Telemetry::enabled();
    let outcome = run_with(&AlwaysDoomed, 2, &telemetry, &EvalCache::disabled());
    assert!(outcome.candidates.is_empty());
    assert!(!outcome.success);
    assert_eq!(outcome.resolution, RolloutResolution::AllSimulationsFailed);
    assert!(outcome.em_failures_permanent > 0);

    // The experiment harness surfaces the outage as a degraded trial
    // instead of silently recording an infeasible result.
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let simulator = AlwaysDoomed;
    let ctx = isop::experiment::ExperimentContext {
        space: &space,
        surrogate: &surrogate,
        simulator: &simulator,
        isop_config: smoke_config(2),
        n_trials: 1,
        seed: SEED,
        telemetry: Telemetry::disabled(),
        eval_cache: EvalCache::disabled(),
    };
    let cell = ctx.run_isop(&isop::tasks::objective_for(TaskId::T1, vec![]));
    assert!(cell.results.is_empty());
    assert_eq!(
        cell.degraded,
        vec![(0, RolloutResolution::AllSimulationsFailed)]
    );
}
