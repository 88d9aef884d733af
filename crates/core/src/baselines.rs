//! Baseline optimizers (Section IV-A): simulated annealing and TPE-based
//! Bayesian optimization, run against the **same surrogate and the same
//! smoothed objective** as ISOP+, then verified with accurate simulation at
//! the end — the paper's exact comparison protocol.

use crate::objective::Objective;
use crate::params::ParamSpace;
use crate::pipeline::DesignCandidate;
use crate::surrogate::Surrogate;
use isop_em::simulator::EmSimulator;
use isop_em::stackup::DiffStripline;
use isop_hpo::budget::Budget;
use isop_hpo::objective::{BinaryObjective, DiscreteObjective};
use isop_hpo::order::nan_last;
use isop_hpo::sa::{self, SaConfig};
use isop_hpo::space::{BinarySpace, DiscreteSpace};
use isop_hpo::tpe::{Tpe, TpeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Outcome of a baseline run, mirroring [`crate::pipeline::IsopOutcome`].
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Ranked roll-out candidates (best first).
    pub candidates: Vec<DesignCandidate>,
    /// Valid surrogate evaluations consumed.
    pub samples_seen: u64,
    /// Invalid encodings encountered (SA only; TPE levels are always valid).
    pub invalid_seen: u64,
    /// Real algorithm wall-clock, seconds.
    pub algorithm_seconds: f64,
    /// Simulated EM seconds at verification.
    pub em_seconds: f64,
    /// Constraint satisfaction of the best verified candidate.
    pub success: bool,
}

impl BaselineOutcome {
    /// The best candidate, if any.
    pub fn best(&self) -> Option<&DesignCandidate> {
        self.candidates.first()
    }

    /// Total reported runtime.
    pub fn total_seconds(&self) -> f64 {
        self.algorithm_seconds + self.em_seconds
    }
}

struct SurrogateBits<'a> {
    space: &'a ParamSpace,
    surrogate: &'a dyn Surrogate,
    objective: &'a Objective,
    valid: u64,
    invalid: u64,
    /// Best (value, design) pairs seen, kept small and sorted.
    top: Vec<(f64, Vec<f64>, [f64; 3])>,
}

impl SurrogateBits<'_> {
    fn note(&mut self, g: f64, values: Vec<f64>, metrics: [f64; 3]) {
        const KEEP: usize = 8;
        if self.top.len() < KEEP || g < self.top.last().expect("non-empty").0 {
            self.top.push((g, values, metrics));
            self.top.sort_by(|a, b| nan_last(a.0, b.0));
            self.top.truncate(KEEP);
        }
    }
}

impl BinaryObjective for SurrogateBits<'_> {
    fn eval(&mut self, bits: &[bool]) -> Option<f64> {
        let values = match self.space.decode_values(bits) {
            Some(v) => v,
            None => {
                self.invalid += 1;
                return None;
            }
        };
        let metrics = match self.surrogate.predict(&values) {
            Ok(m) => m,
            Err(_) => {
                self.invalid += 1;
                return None;
            }
        };
        self.valid += 1;
        let g = self.objective.g_hat(&metrics, &values);
        self.note(g, values, metrics);
        Some(g)
    }

    fn n_bits(&self) -> usize {
        self.space.total_bits()
    }
}

struct SurrogateLevels<'a> {
    space: &'a ParamSpace,
    surrogate: &'a dyn Surrogate,
    objective: &'a Objective,
    valid: u64,
    top: Vec<(f64, Vec<f64>, [f64; 3])>,
}

impl SurrogateLevels<'_> {
    fn note(&mut self, g: f64, values: Vec<f64>, metrics: [f64; 3]) {
        const KEEP: usize = 8;
        if self.top.len() < KEEP || g < self.top.last().expect("non-empty").0 {
            self.top.push((g, values, metrics));
            self.top.sort_by(|a, b| nan_last(a.0, b.0));
            self.top.truncate(KEEP);
        }
    }
}

impl DiscreteObjective for SurrogateLevels<'_> {
    fn eval(&mut self, levels: &[usize]) -> f64 {
        let values = self.space.values_of_levels(levels);
        let Ok(metrics) = self.surrogate.predict(&values) else {
            return f64::INFINITY;
        };
        self.valid += 1;
        let g = self.objective.g_hat(&metrics, &values);
        self.note(g, values, metrics);
        g
    }

    fn cardinalities(&self) -> Vec<usize> {
        self.space.cardinalities()
    }
}

/// Verifies the top surrogate candidates with the accurate simulator and
/// packages the outcome (three EM runs in one accounted parallel batch, as
/// in the paper).
#[allow(clippy::type_complexity)]
fn roll_out(
    top: Vec<(f64, Vec<f64>, [f64; 3])>,
    objective: &Objective,
    simulator: &dyn EmSimulator,
    n_verify: usize,
) -> (Vec<DesignCandidate>, f64, bool) {
    let mut em_seconds = 0.0;
    let mut candidates = Vec::new();
    for (_, values, predicted) in top.into_iter().take(n_verify) {
        let Ok(layer) = DiffStripline::from_vector(&values) else {
            continue;
        };
        let Ok(sim) = simulator.simulate(&layer) else {
            continue;
        };
        // Batches of up to three successful simulations run in parallel and
        // cost the wall-clock of one run (see the pipeline roll-out).
        if candidates.len().is_multiple_of(3) {
            em_seconds += simulator.nominal_seconds();
        }
        let metrics = sim.to_array();
        candidates.push(DesignCandidate {
            g_exact: objective.g_exact(&metrics, &values),
            values,
            predicted,
            simulated: Some(sim),
            attempts: 1,
        });
    }
    // Feasible-first ranking, then exact objective (see pipeline roll-out).
    let feasible = |c: &DesignCandidate| {
        objective.all_satisfied(&c.simulated.expect("simulated").to_array(), &c.values)
    };
    candidates.sort_by(|a, b| {
        feasible(b)
            .cmp(&feasible(a))
            .then(nan_last(a.g_exact, b.g_exact))
    });
    let success = candidates.first().is_some_and(feasible);
    (candidates, em_seconds, success)
}

/// Runs the paper's simulated-annealing baseline.
///
/// The budget expresses the match mode: `SA-1` (`MatchMode::Runtime`) caps
/// wall-clock at ISOP+'s runtime; `SA-2` (`MatchMode::Samples`) caps
/// samples at ISOP+'s count.
pub fn run_sa(
    space: &ParamSpace,
    surrogate: &dyn Surrogate,
    simulator: &dyn EmSimulator,
    objective: Objective,
    sa_cfg: &SaConfig,
    mut budget: Budget,
    seed: u64,
) -> BaselineOutcome {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut obj = SurrogateBits {
        space,
        surrogate,
        objective: &objective,
        valid: 0,
        invalid: 0,
        top: Vec::new(),
    };
    let bin_space = BinarySpace::free(space.total_bits());
    let _ = sa::run(&mut obj, &bin_space, sa_cfg, &mut budget, &mut rng);
    let algorithm_seconds = t0.elapsed().as_secs_f64();
    let (candidates, em_seconds, success) =
        roll_out(std::mem::take(&mut obj.top), &objective, simulator, 3);
    BaselineOutcome {
        candidates,
        samples_seen: obj.valid,
        invalid_seen: obj.invalid,
        algorithm_seconds,
        em_seconds,
        success,
    }
}

/// Runs the paper's TPE-based Bayesian-optimization baseline (sequential:
/// one sample per iteration, as their Optuna setup).
#[allow(clippy::too_many_arguments)] // mirrors run_sa's harness signature
pub fn run_bo(
    space: &ParamSpace,
    surrogate: &dyn Surrogate,
    simulator: &dyn EmSimulator,
    objective: Objective,
    tpe_cfg: &TpeConfig,
    iterations: usize,
    mut budget: Budget,
    seed: u64,
) -> BaselineOutcome {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut obj = SurrogateLevels {
        space,
        surrogate,
        objective: &objective,
        valid: 0,
        top: Vec::new(),
    };
    let mut tpe = Tpe::new(DiscreteSpace::new(space.cardinalities()), *tpe_cfg);
    let _ = tpe.optimize(&mut obj, iterations, &mut budget, &mut rng);
    let algorithm_seconds = t0.elapsed().as_secs_f64();
    let (candidates, em_seconds, success) =
        roll_out(std::mem::take(&mut obj.top), &objective, simulator, 3);
    BaselineOutcome {
        candidates,
        samples_seen: obj.valid,
        invalid_seen: 0,
        algorithm_seconds,
        em_seconds,
        success,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::s1;
    use crate::surrogate::OracleSurrogate;
    use crate::tasks::{objective_for, TaskId};
    use isop_em::simulator::AnalyticalSolver;

    #[test]
    fn sa_baseline_solves_t1() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let cfg = SaConfig {
            iterations: 3000,
            ..SaConfig::default()
        };
        let out = run_sa(
            &space,
            &surrogate,
            &simulator,
            objective_for(TaskId::T1, vec![]),
            &cfg,
            Budget::unlimited(),
            1,
        );
        let best = out.best().expect("found");
        let sim = best.simulated.expect("verified");
        assert!(out.success, "SA should satisfy T1: Z = {}", sim.z_diff);
        assert!(out.samples_seen > 1000);
    }

    #[test]
    fn bo_baseline_observes_fewer_samples_sequentially() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let out = run_bo(
            &space,
            &surrogate,
            &simulator,
            objective_for(TaskId::T1, vec![]),
            &TpeConfig::default(),
            150,
            Budget::unlimited(),
            2,
        );
        assert_eq!(out.samples_seen, 150);
        assert!(out.best().is_some());
    }

    #[test]
    fn sample_budget_matches_sa1_protocol() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let cfg = SaConfig {
            iterations: 1_000_000,
            ..SaConfig::default()
        };
        let out = run_sa(
            &space,
            &surrogate,
            &simulator,
            objective_for(TaskId::T1, vec![]),
            &cfg,
            Budget::unlimited().with_samples(500),
            3,
        );
        // Budgets count *valid* observations (the paper's "samples seen");
        // invalid encodings are tracked separately and can be numerous
        // (only ~0.76% of S_1 codes are valid designs).
        assert!(out.samples_seen >= 500);
        assert!(out.samples_seen <= 502);
        assert!(out.invalid_seen > 0);
    }

    #[test]
    fn candidates_carry_simulated_metrics() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let out = run_bo(
            &space,
            &surrogate,
            &simulator,
            objective_for(TaskId::T2, vec![]),
            &TpeConfig::default(),
            60,
            Budget::unlimited(),
            4,
        );
        for c in &out.candidates {
            assert!(c.simulated.is_some());
            assert!(c.g_exact.is_finite());
        }
    }
}
