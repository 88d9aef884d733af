//! Experiment harness: repeated trials, aggregate statistics, and the
//! FoM-improvement metric (Eq. 12) behind Tables IV, V, VII, and VIII.

use crate::baselines::{run_bo, run_sa, BaselineOutcome};
use crate::evalcache::EvalCache;
use crate::objective::{Metric, Objective};
use crate::params::ParamSpace;
use crate::pipeline::{DesignCandidate, IsopConfig, IsopOptimizer, IsopOutcome, RolloutResolution};
use crate::surrogate::Surrogate;
use isop_em::simulator::EmSimulator;
use isop_hpo::budget::Budget;
use isop_hpo::sa::SaConfig;
use isop_hpo::tpe::TpeConfig;
use isop_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Result of one optimization trial, in the units of the paper's tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Constraints satisfied by the verified best design.
    pub success: bool,
    /// Total reported runtime (algorithm + accounted EM), seconds.
    pub runtime_seconds: f64,
    /// Valid surrogate samples observed.
    pub samples_seen: u64,
    /// Verified metrics `[Z, L, NEXT]` of the best design.
    pub metrics: [f64; 3],
    /// FoM of the best design (per the task's FoM spec).
    pub fom: f64,
    /// The winning design vector.
    pub design: Vec<f64>,
    /// Roll-out resolution label (`"full"` / `"degraded"`); baselines have
    /// no fault layer and always report `"full"`. A trial whose every
    /// simulation failed produces no `TrialResult` at all — it is surfaced
    /// through [`IsopCellOutcome::degraded`] instead of masquerading as an
    /// ordinary infeasible trial.
    pub resolution: String,
}

impl TrialResult {
    fn from_candidate(
        c: &DesignCandidate,
        objective: &Objective,
        success: bool,
        runtime_seconds: f64,
        samples_seen: u64,
        resolution: RolloutResolution,
    ) -> Self {
        let metrics = c.simulated.expect("verified candidate").to_array();
        Self {
            success,
            runtime_seconds,
            samples_seen,
            metrics,
            fom: objective.fom.value(&metrics),
            design: c.values.clone(),
            resolution: resolution.as_str().to_string(),
        }
    }

    /// Converts an ISOP+ outcome.
    pub fn from_isop(outcome: &IsopOutcome, objective: &Objective) -> Option<Self> {
        outcome.best().map(|c| {
            Self::from_candidate(
                c,
                objective,
                outcome.success,
                outcome.total_seconds(),
                outcome.samples_seen,
                outcome.resolution,
            )
        })
    }

    /// Converts a baseline outcome.
    pub fn from_baseline(outcome: &BaselineOutcome, objective: &Objective) -> Option<Self> {
        outcome.best().map(|c| {
            Self::from_candidate(
                c,
                objective,
                outcome.success,
                outcome.total_seconds(),
                outcome.samples_seen,
                RolloutResolution::Full,
            )
        })
    }
}

/// Mean and (population) standard deviation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanStd {
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

fn mean_std(values: impl Iterator<Item = f64> + Clone) -> MeanStd {
    let n = values.clone().count().max(1) as f64;
    let mean = values.clone().sum::<f64>() / n;
    let var = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    MeanStd {
        mean,
        std: var.sqrt(),
    }
}

/// Aggregated statistics over repeated trials — one table row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialStats {
    /// Method label (e.g. `"SA-1"`).
    pub method: String,
    /// Successful trials.
    pub successes: usize,
    /// Total trials.
    pub trials: usize,
    /// Average reported runtime, seconds.
    pub avg_runtime: f64,
    /// Average valid samples seen.
    pub avg_samples: f64,
    /// `|Z - Z_o|` statistics.
    pub delta_z: MeanStd,
    /// `L` statistics.
    pub l: MeanStd,
    /// `NEXT` statistics.
    pub next: MeanStd,
    /// Mean FoM of the per-trial best designs.
    pub fom: f64,
}

impl TrialStats {
    /// Aggregates `results` for a task whose Z target is `z_target`.
    ///
    /// # Panics
    ///
    /// Panics on an empty result list.
    pub fn aggregate(method: impl Into<String>, results: &[TrialResult], z_target: f64) -> Self {
        assert!(!results.is_empty(), "need at least one trial");
        let n = results.len();
        Self {
            method: method.into(),
            successes: results.iter().filter(|r| r.success).count(),
            trials: n,
            avg_runtime: results.iter().map(|r| r.runtime_seconds).sum::<f64>() / n as f64,
            avg_samples: results.iter().map(|r| r.samples_seen as f64).sum::<f64>() / n as f64,
            delta_z: mean_std(results.iter().map(move |r| (r.metrics[0] - z_target).abs())),
            l: mean_std(results.iter().map(|r| r.metrics[1])),
            next: mean_std(results.iter().map(|r| r.metrics[2])),
            fom: results.iter().map(|r| r.fom).sum::<f64>() / n as f64,
        }
    }
}

/// Which baseline budget-matching mode to use (the paper's `-1` / `-2`
/// suffixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchMode {
    /// Match ISOP+'s wall-clock (`SA-1`, `BO-1`-style).
    Runtime,
    /// Match ISOP+'s observed sample count (`SA-2`, `BO-2`-style).
    Samples,
}

/// Everything needed to run one (task, space, method) experiment cell.
pub struct ExperimentContext<'a> {
    /// Search space.
    pub space: &'a ParamSpace,
    /// Shared surrogate (same across all methods, per the paper).
    pub surrogate: &'a dyn Surrogate,
    /// Accurate verifier.
    pub simulator: &'a dyn EmSimulator,
    /// ISOP+ pipeline configuration.
    pub isop_config: IsopConfig,
    /// Trials per cell (the paper uses 10).
    pub n_trials: usize,
    /// Base RNG seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Telemetry handle attached to every ISOP+ trial. Defaults to
    /// disabled; enable it to aggregate counters and stage spans across
    /// the cell's trials (the bench harness reads stage timings here).
    pub telemetry: Telemetry,
    /// Accurate-EM result cache shared by every ISOP+ trial in this cell.
    /// Repeated trials (and, when the handle is shared wider, repeated
    /// ablation variants of one task) serve identical grid designs from
    /// cache; outcomes are bit-identical either way. Defaults to disabled.
    pub eval_cache: EvalCache,
}

/// Outcome of one ISOP+ experiment cell: per-trial results, the
/// budget-matching averages the baselines consume, and every roll-out that
/// did not fully resolve.
#[derive(Debug, Clone)]
pub struct IsopCellOutcome {
    /// Per-trial results (trials whose every simulation failed yield no
    /// result and appear only in [`degraded`](Self::degraded)).
    pub results: Vec<TrialResult>,
    /// Average valid samples per trial — the baselines' sample budget.
    pub avg_samples: f64,
    /// Average algorithm wall-clock per trial, seconds — the baselines'
    /// runtime budget.
    pub avg_algo_seconds: f64,
    /// `(trial index, resolution)` for every trial whose roll-out was
    /// degraded or failed entirely. Consumers must report these instead of
    /// folding them into the ordinary failure count.
    pub degraded: Vec<(usize, RolloutResolution)>,
}

impl ExperimentContext<'_> {
    /// Runs ISOP+ for `n_trials` and returns per-trial results, the average
    /// (samples, algorithm wall-clock) the baselines will match, and the
    /// degraded-roll-out record. Each trial runs a fresh optimizer sharing
    /// this cell's telemetry and eval cache; its
    /// `algorithm_seconds` covers its whole run, roll-out included.
    pub fn run_isop(&self, objective: &Objective) -> IsopCellOutcome {
        let mut results = Vec::with_capacity(self.n_trials);
        let mut degraded = Vec::new();
        let mut total_samples = 0.0;
        let mut total_algo = 0.0;
        for i in 0..self.n_trials {
            let outcome = IsopOptimizer::new(
                self.space,
                self.surrogate,
                self.simulator,
                self.isop_config.clone(),
            )
            .with_telemetry(self.telemetry.clone())
            .with_eval_cache(self.eval_cache.clone())
            .run(objective.clone(), Budget::unlimited(), self.seed + i as u64);
            total_samples += outcome.samples_seen as f64;
            total_algo += outcome.algorithm_seconds;
            if outcome.resolution != RolloutResolution::Full {
                degraded.push((i, outcome.resolution));
            }
            if let Some(r) = TrialResult::from_isop(&outcome, objective) {
                results.push(r);
            }
        }
        let n = self.n_trials.max(1) as f64;
        IsopCellOutcome {
            results,
            avg_samples: total_samples / n,
            avg_algo_seconds: total_algo / n,
            degraded,
        }
    }

    /// Runs the SA baseline matched to ISOP+'s budget.
    pub fn run_sa(
        &self,
        objective: &Objective,
        mode: MatchMode,
        isop_samples: f64,
        isop_algo_seconds: f64,
    ) -> Vec<TrialResult> {
        let cfg = SaConfig {
            iterations: usize::MAX >> 8,
            ..SaConfig::default()
        };
        (0..self.n_trials)
            .filter_map(|i| {
                let budget = match mode {
                    MatchMode::Samples => {
                        Budget::unlimited().with_samples(isop_samples.round() as u64)
                    }
                    MatchMode::Runtime => Budget::unlimited()
                        .with_wall_clock(Duration::from_secs_f64(isop_algo_seconds.max(0.05))),
                };
                let out = run_sa(
                    self.space,
                    self.surrogate,
                    self.simulator,
                    objective.clone(),
                    &cfg,
                    budget,
                    self.seed + 1000 + i as u64,
                );
                TrialResult::from_baseline(&out, objective)
            })
            .collect()
    }

    /// Runs the BO (TPE) baseline matched to ISOP+'s budget.
    pub fn run_bo(
        &self,
        objective: &Objective,
        mode: MatchMode,
        isop_samples: f64,
        isop_algo_seconds: f64,
    ) -> Vec<TrialResult> {
        (0..self.n_trials)
            .filter_map(|i| {
                let (iterations, budget) = match mode {
                    MatchMode::Samples => (
                        isop_samples.round() as usize,
                        Budget::unlimited().with_samples(isop_samples.round() as u64),
                    ),
                    MatchMode::Runtime => (
                        usize::MAX >> 8,
                        Budget::unlimited()
                            .with_wall_clock(Duration::from_secs_f64(isop_algo_seconds.max(0.05))),
                    ),
                };
                // The BO baseline suggests EM_BATCH_SLOTS points per KDE
                // refit, mirroring the async scheduler's batch width — it
                // observes exactly as many samples as the sequential loop
                // (evaluations stay individual), it just keeps a batched
                // simulator full, so the Table VII/VIII comparison stays
                // honest against batched ISOP+.
                let out = run_bo(
                    self.space,
                    self.surrogate,
                    self.simulator,
                    objective.clone(),
                    &TpeConfig {
                        batch_size: crate::scheduler::EM_BATCH_SLOTS,
                        ..TpeConfig::default()
                    },
                    iterations,
                    budget,
                    self.seed + 2000 + i as u64,
                );
                TrialResult::from_baseline(&out, objective)
            })
            .collect()
    }
}

/// The paper's Eq. 12: percentage FoM improvement of ISOP+ over a method
/// with FoM `method_fom`. Positive = ISOP+ better.
pub fn fom_improvement(method_fom: f64, isop_fom: f64) -> f64 {
    100.0 * (method_fom - isop_fom) / method_fom
}

/// Helper: `|Z - target|` for a result's metrics.
pub fn delta_z(metrics: &[f64; 3], target: f64) -> f64 {
    (metrics[Metric::Z.index()] - target).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_result(z: f64, l: f64, next: f64, success: bool) -> TrialResult {
        TrialResult {
            success,
            runtime_seconds: 10.0,
            samples_seen: 100,
            metrics: [z, l, next],
            fom: -l,
            design: vec![],
            resolution: "full".to_string(),
        }
    }

    #[test]
    fn aggregate_computes_table_columns() {
        let results = vec![
            fake_result(85.5, -0.40, -0.01, true),
            fake_result(84.7, -0.44, -0.02, true),
            fake_result(86.4, -0.42, -0.03, false),
        ];
        let stats = TrialStats::aggregate("test", &results, 85.0);
        assert_eq!(stats.successes, 2);
        assert_eq!(stats.trials, 3);
        let expected_dz = (0.5 + 0.3 + 1.4) / 3.0;
        assert!((stats.delta_z.mean - expected_dz).abs() < 1e-12);
        assert!((stats.l.mean - (-0.42)).abs() < 1e-12);
        assert!((stats.fom - 0.42).abs() < 1e-12);
    }

    #[test]
    fn improvement_formula_matches_eq12() {
        // Table IV T1/S1: SA-1 FoM 0.446, ISOP+ 0.436 -> 2.2%.
        let impv = fom_improvement(0.446, 0.436);
        assert!((impv - 2.24).abs() < 0.05, "impv = {impv}");
        // BO-2: 0.630 vs 0.436 -> 30.8%.
        let impv2 = fom_improvement(0.630, 0.436);
        assert!((impv2 - 30.79).abs() < 0.05, "impv = {impv2}");
    }

    #[test]
    fn improvement_negative_when_isop_worse() {
        assert!(fom_improvement(0.4, 0.5) < 0.0);
    }

    #[test]
    fn mean_std_of_constant_is_zero() {
        let results = vec![fake_result(85.0, -0.4, 0.0, true); 5];
        let stats = TrialStats::aggregate("x", &results, 85.0);
        assert_eq!(stats.l.std, 0.0);
        assert_eq!(stats.delta_z.std, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_aggregate_panics() {
        let _ = TrialStats::aggregate("x", &[], 85.0);
    }
}
