//! The ISOP+ optimization pipeline (paper Algorithm 1).
//!
//! Three stages:
//!
//! 1. **Global exploration** — Harmonica over the binary-encoded space with
//!    the smoothed objective `g_hat` evaluated on the surrogate, adaptive
//!    weight adjustment after every stage (Algorithm 2), and a Hyperband
//!    pass that picks the `p` most promising candidates out of the reduced
//!    space.
//! 2. **Local exploration** — decode to the continuous domain and run Adam
//!    on each candidate, differentiating `g_hat` through the surrogate with
//!    one fused value-and-gradient call per step
//!    ([`Surrogate::value_and_grad`]). Skipped when the surrogate is not
//!    differentiable
//!    (the `H + MLP_XGB` ablation) or disabled (`H + 1D-CNN`).
//! 3. **Candidate roll-out** — round to the grid (Eq. 6), evaluate the
//!    `cand_num` best with the *accurate* simulator, rank by the exact
//!    objective `g`. The roll-out is fault-tolerant: transient simulator
//!    failures retry within a bounded attempt budget, each retry taking a
//!    slot in a later batch of the [`scheduler`] stream; permanently
//!    failed designs are replaced by the next-best from the surplus
//!    surrogate-scored pool, and the outcome reports an explicit
//!    resolution (full / degraded / all simulations failed).

use crate::evalcache::EvalCache;
use crate::exec::{par_map_indexed, Parallelism, RunControl};
use crate::objective::Objective;
use crate::params::ParamSpace;
use crate::scheduler::{self, JobRollout, PoolEntry, SchedulerCtx};
use crate::surrogate::{InstrumentedSurrogate, Surrogate};
use crate::weights::{SampleRecord, WeightAdapter};
use isop_em::fault::RetryPolicy;
use isop_em::simulator::{EmSimulator, SimulationResult};
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::{self, HarmonicaConfig};
use isop_hpo::hyperband::{self, HyperbandConfig};
use isop_hpo::objective::BinaryObjective;
use isop_hpo::order::nan_last;
use isop_ml::optim::Adam;
use isop_telemetry::{Counter, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::Instant;

/// ISOP+ pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsopConfig {
    /// Global-stage Harmonica settings.
    pub harmonica: HarmonicaConfig,
    /// Use Hyperband (vs plain random sampling) to pick GD seeds.
    pub use_hyperband: bool,
    /// Hyperband settings. Each fidelity probe scores up to
    /// `max_resource` rows in one surrogate batch.
    pub hyperband: HyperbandConfig,
    /// Number of candidates fed to the local stage (`p`).
    pub gd_candidates: usize,
    /// Adam epochs in the local stage (`epoch_num`).
    pub gd_epochs: usize,
    /// Adam learning rate in *normalized* coordinates (each parameter span
    /// maps to `[0, 1]`).
    pub gd_lr: f64,
    /// Enable the gradient-descent stage (`H_GD` vs `H`).
    pub use_gradient_descent: bool,
    /// Designs evaluated with the accurate simulator at roll-out
    /// (`cand_num`).
    pub cand_num: usize,
    /// Enable adaptive weight adjustment (Algorithm 2).
    pub adapt_weights: bool,
    /// Adaptive-weight parameters.
    pub weight_adapter: WeightAdapter,
    /// Worker threads for the parallel sections (stage-2 Adam refinements
    /// and the stage-3 roll-out). Outcomes are identical for any thread
    /// count at a fixed seed.
    pub parallelism: Parallelism,
    /// Retry budget for transient EM failures at roll-out.
    pub retry: RetryPolicy,
}

impl IsopConfig {
    /// A [`ModelZoo`](crate::surrogate::ModelZoo) training surrogates on
    /// this config's parallelism knob, so surrogate fitting and pipeline
    /// search share one thread setting.
    #[must_use]
    pub fn model_zoo(&self) -> crate::surrogate::ModelZoo {
        crate::surrogate::ModelZoo::new(self.parallelism)
    }
}

impl Default for IsopConfig {
    fn default() -> Self {
        Self {
            harmonica: HarmonicaConfig::default(),
            use_hyperband: true,
            hyperband: HyperbandConfig {
                max_resource: 9.0,
                eta: 3.0,
            },
            gd_candidates: 8,
            gd_epochs: 60,
            gd_lr: 0.02,
            use_gradient_descent: true,
            cand_num: 3,
            adapt_weights: true,
            weight_adapter: WeightAdapter::default(),
            parallelism: Parallelism::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// One final design candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignCandidate {
    /// Grid-valid design vector.
    pub values: Vec<f64>,
    /// Surrogate-predicted `[Z, L, NEXT]`.
    pub predicted: [f64; 3],
    /// Accurate simulation result (present after roll-out).
    pub simulated: Option<SimulationResult>,
    /// Exact objective `g` on the simulated metrics.
    pub g_exact: f64,
    /// Accurate-simulator attempts this design took (including the final
    /// successful one). Greater than 1 exactly when transient failures
    /// forced retries; cache hits replay the original run's count.
    pub attempts: u32,
}

/// How the stage-3 roll-out resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RolloutResolution {
    /// Every requested slot was filled by a successful accurate simulation
    /// (possibly after retries and top-ups).
    Full,
    /// Permanent simulator failures left the roll-out short of `cand_num`
    /// even after drawing every available backup from the scored pool.
    Degraded,
    /// No accurate simulation succeeded at all; the run's `success=false`
    /// is a simulator outage, not an ordinary infeasible trial.
    AllSimulationsFailed,
}

impl RolloutResolution {
    /// Stable label used in `RunReport.resolution` and trial records.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RolloutResolution::Full => "full",
            RolloutResolution::Degraded => "degraded",
            RolloutResolution::AllSimulationsFailed => "all_simulations_failed",
        }
    }
}

impl std::fmt::Display for RolloutResolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Full pipeline outcome with the accounting the paper's tables report.
#[derive(Debug, Clone)]
pub struct IsopOutcome {
    /// Roll-out candidates ranked by exact objective (best first).
    pub candidates: Vec<DesignCandidate>,
    /// Valid surrogate evaluations consumed.
    pub samples_seen: u64,
    /// Invalid encodings encountered.
    pub invalid_seen: u64,
    /// Real algorithm wall-clock, seconds.
    pub algorithm_seconds: f64,
    /// Simulated EM time at roll-out, seconds (batches of three in
    /// parallel, as in the paper).
    pub em_seconds: f64,
    /// EM time elided by the evaluation cache, seconds. A batch served
    /// entirely from cache moves its `nominal_seconds` here instead of
    /// [`em_seconds`](Self::em_seconds); `em_seconds + em_seconds_saved`
    /// is invariant under toggling the cache.
    pub em_seconds_saved: f64,
    /// Final adapted objective (weights frozen after the global stage).
    pub final_objective: Objective,
    /// Whether the best candidate satisfies every constraint under the
    /// accurate simulator.
    pub success: bool,
    /// Roll-out retry attempts (re-issued simulations after transient
    /// failures); mirrors the `em.retries` counter.
    pub em_retries: u64,
    /// Transient EM failures observed at roll-out; mirrors
    /// `em.failures_transient`.
    pub em_failures_transient: u64,
    /// Designs abandoned for good at roll-out (permanent failure or
    /// exhausted retry budget); mirrors `em.failures_permanent`.
    pub em_failures_permanent: u64,
    /// Backup designs drawn from the surplus scored pool; mirrors
    /// `em.topped_up`.
    pub em_topped_up: u64,
    /// How the roll-out resolved (full / degraded / all failed).
    pub resolution: RolloutResolution,
}

impl IsopOutcome {
    /// The best candidate, if any survived roll-out.
    pub fn best(&self) -> Option<&DesignCandidate> {
        self.candidates.first()
    }

    /// Total reported runtime: algorithm + accounted EM seconds.
    pub fn total_seconds(&self) -> f64 {
        self.algorithm_seconds + self.em_seconds
    }
}

/// The ISOP+ optimizer.
pub struct IsopOptimizer<'a> {
    space: &'a ParamSpace,
    surrogate: &'a dyn Surrogate,
    simulator: &'a dyn EmSimulator,
    config: IsopConfig,
    telemetry: Telemetry,
    eval_cache: EvalCache,
    control: RunControl,
}

/// Binary objective bridging bits -> design values -> surrogate -> `g_hat`,
/// recording per-sample metrics for the weight adapter.
struct SurrogateBinaryObjective<'a> {
    space: &'a ParamSpace,
    surrogate: &'a dyn Surrogate,
    objective: &'a RefCell<Objective>,
    records: &'a RefCell<Vec<SampleRecord>>,
    valid: u64,
    invalid: u64,
}

impl BinaryObjective for SurrogateBinaryObjective<'_> {
    fn eval(&mut self, bits: &[bool]) -> Option<f64> {
        self.eval_batch(&[bits.to_vec()])[0]
    }

    /// Decodes every point, scores the decodable ones in one
    /// `predict_batch` call, and records them in draw order — the records
    /// and values a loop of single evaluations would give, because the
    /// objective's weights only change between stages.
    fn eval_batch(&mut self, points: &[Vec<bool>]) -> Vec<Option<f64>> {
        let mut out = vec![None; points.len()];
        let mut at = Vec::with_capacity(points.len());
        let mut rows = Vec::with_capacity(points.len());
        for (i, bits) in points.iter().enumerate() {
            match self.space.decode_values(bits) {
                Some(values) => {
                    at.push(i);
                    rows.push(values);
                }
                None => self.invalid += 1,
            }
        }
        let predictions = self.surrogate.predict_batch(&rows);
        let objective = self.objective.borrow();
        let mut records = self.records.borrow_mut();
        for ((i, values), prediction) in at.into_iter().zip(rows).zip(predictions) {
            let Ok(metrics) = prediction else {
                self.invalid += 1;
                continue;
            };
            self.valid += 1;
            out[i] = Some(objective.g_hat(&metrics, &values));
            records.push(SampleRecord { metrics, values });
        }
        out
    }

    fn n_bits(&self) -> usize {
        self.space.total_bits()
    }
}

impl<'a> IsopOptimizer<'a> {
    /// Creates an optimizer over `space` with the given engines.
    pub fn new(
        space: &'a ParamSpace,
        surrogate: &'a dyn Surrogate,
        simulator: &'a dyn EmSimulator,
        config: IsopConfig,
    ) -> Self {
        Self {
            space,
            surrogate,
            simulator,
            config,
            telemetry: Telemetry::disabled(),
            eval_cache: EvalCache::disabled(),
            control: RunControl::none(),
        }
    }

    /// Attaches a telemetry handle; every stage span, surrogate call,
    /// Adam step, and charged EM batch is recorded on it. Counter totals
    /// are bit-identical at any `parallelism.threads` for a fixed seed;
    /// span timings are wall-clock.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches an accurate-EM result cache consulted at roll-out. Hits
    /// replay the stored simulation bit-exactly (including the simulator's
    /// counter footprint, provided the simulator shares this optimizer's
    /// telemetry handle) and move the elided batch wall-clock into the
    /// seconds-saved ledger. Outcomes are identical with the cache enabled,
    /// disabled, or shared across runs.
    #[must_use]
    pub fn with_eval_cache(mut self, cache: EvalCache) -> Self {
        self.eval_cache = cache;
        self
    }

    /// Attaches a cancellation/deadline token. The pipeline polls it only
    /// at **stage boundaries** — before stages 1–2 and before the
    /// accurate-simulator roll-out — never inside a parallel section, so a
    /// stop lands at a deterministic point: a stopped run skips whole
    /// stages and reports empty candidates through the normal outcome
    /// path, and everything a completed stage
    /// recorded stays bit-identical to an uninterrupted run.
    #[must_use]
    pub fn with_control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// Overrides the parallelism knob after construction. This is the
    /// leased-executor hook: the multi-job engine sizes it from a
    /// [`CoreBudget`](crate::exec::CoreBudget) lease
    /// ([`CoreLease::parallelism`](crate::exec::CoreLease::parallelism)),
    /// and because every `par_map_*` call site in the pipeline — stage-2
    /// Adam refinements and the roll-out scheduler's slot fan-out — reads
    /// this one knob, the whole run stays inside its lease. Clamping the
    /// width never changes the outcome: all parallel sections are
    /// width-independent by construction.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Runs the full three-stage pipeline on `objective`.
    ///
    /// `budget` bounds the global stage (samples and/or wall-clock); the
    /// local stage and roll-out always complete: stages 1–2 and the pool
    /// build, then the [`scheduler`] roll-out, then the exact ranking.
    pub fn run(&self, objective: Objective, budget: Budget, seed: u64) -> IsopOutcome {
        let t0 = Instant::now();
        // Stage-boundary control polls: a stop observed here skips the
        // remaining stages entirely and flows an empty roll-out through
        // `finalize`, so the outcome shape (and ledgers: all zero for the
        // skipped work) is the same as any other run.
        if self.control.should_stop() {
            let prep = PreparedRollout {
                pool: Vec::new(),
                final_objective: objective,
                samples_seen: 0,
                invalid_seen: 0,
            };
            return self.finalize(prep, JobRollout::default(), t0.elapsed().as_secs_f64());
        }
        let prep = self.prepare(objective, budget, seed);
        let rollout = if self.control.should_stop() {
            JobRollout::default()
        } else {
            self.roll_out(&prep)
        };
        self.finalize(prep, rollout, t0.elapsed().as_secs_f64())
    }

    /// Stages 1–2 plus the surrogate-ranked pool build: everything before
    /// the accurate simulator runs.
    fn prepare(&self, objective: Objective, mut budget: Budget, seed: u64) -> PreparedRollout {
        let mut rng = StdRng::seed_from_u64(seed);
        let obj_cell = RefCell::new(objective);
        let records = RefCell::new(Vec::new());
        // Every surrogate call in the pipeline goes through the counting
        // wrapper; with a disabled handle it adds one branch per call.
        let instrumented = InstrumentedSurrogate::new(self.surrogate, self.telemetry.clone());

        // ---- Stage 1: global exploration (Harmonica + weights + Hyperband).
        let global_span = isop_telemetry::span!(self.telemetry, "pipeline.global");
        let mut bin_obj = SurrogateBinaryObjective {
            space: self.space,
            surrogate: &instrumented,
            objective: &obj_cell,
            records: &records,
            valid: 0,
            invalid: 0,
        };
        let adapter = self.config.weight_adapter;
        let adapt = self.config.adapt_weights;
        let result = harmonica::run_traced(
            &mut bin_obj,
            self.space.binary_space(),
            &self.config.harmonica,
            &mut budget,
            &mut rng,
            &self.telemetry,
            |_stage, _samples| {
                if adapt {
                    let batch: Vec<SampleRecord> = records.borrow_mut().drain(..).collect();
                    adapter.update(&mut obj_cell.borrow_mut(), &batch);
                } else {
                    records.borrow_mut().clear();
                }
            },
        );
        records.borrow_mut().clear();

        // Pick p seeds from the reduced space.
        let reduced = result.space.clone();
        let mut seeds: Vec<(Vec<bool>, f64)> = Vec::new();
        if self.config.use_hyperband {
            let _hb_span = isop_telemetry::span!(self.telemetry, "pipeline.hyperband");
            let free_bits: Vec<usize> = (0..self.space.total_bits())
                .filter(|&i| reduced.restriction(i).is_none())
                .collect();
            // Hyperband-phase records are cleared after the pass: the
            // weight adapter only runs between Harmonica stages, so the
            // objective is frozen here and never consumes them.
            let ranked = hyperband::run_traced(
                &self.config.hyperband,
                &mut rng,
                &self.telemetry,
                |r| reduced.sample(r),
                |rng, bits, resource| {
                    // Fidelity axis: average g_hat over the point and
                    // (resource - 1) random 1-bit neighbours — higher
                    // resource probes the surrounding basin more thoroughly.
                    // Flips draw from the run RNG over the *unrestricted*
                    // bits only; Harmonica-fixed bits would decode to the
                    // same design (or an invalid one) and waste the probe.
                    let reps = resource.round().max(1.0) as usize;
                    let mut variants: Vec<Vec<bool>> = Vec::with_capacity(reps);
                    variants.push(bits.clone());
                    for _ in 1..reps {
                        let mut local = bits.clone();
                        if !free_bits.is_empty() {
                            let flip = free_bits[rng.gen_range(0..free_bits.len())];
                            local[flip] = !local[flip];
                        }
                        variants.push(local);
                    }
                    // Every RNG draw happened above. The probe is scored
                    // in one batch, the same path as a Harmonica stage,
                    // and the fold runs in variant order.
                    let mut total = 0.0;
                    let mut count = 0usize;
                    for g in bin_obj.eval_batch(&variants).into_iter().flatten() {
                        total += g;
                        count += 1;
                    }
                    if count == 0 {
                        f64::INFINITY
                    } else {
                        total / count as f64
                    }
                },
            );
            for r in ranked.into_iter().take(self.config.gd_candidates) {
                if r.loss.is_finite() {
                    seeds.push((r.config, r.loss));
                }
            }
        }
        // Fall back / top up with best Harmonica history points.
        if seeds.len() < self.config.gd_candidates {
            let mut hist = result.history.clone();
            hist.sort_by(|a, b| nan_last(a.value, b.value));
            for s in hist {
                if seeds.len() >= self.config.gd_candidates {
                    break;
                }
                if !seeds.iter().any(|(b, _)| *b == s.bits) {
                    seeds.push((s.bits, s.value));
                }
            }
        }
        records.borrow_mut().clear();
        let samples_seen = bin_obj.valid;
        let invalid_seen = bin_obj.invalid;
        drop(global_span);

        // Weights are frozen from here on (paper Section III-G).
        let final_objective = obj_cell.borrow().clone();

        // ---- Stage 2: local exploration (Adam through the surrogate).
        // Decode serially (order-sensitive: failed decodes drop out), then
        // refine each seed on its own worker — refinements share nothing
        // but the read-only surrogate and objective, and results come back
        // in seed order.
        let local_span = isop_telemetry::span!(self.telemetry, "pipeline.local");
        let bounds = self.space.bounds();
        let spans: Vec<f64> = bounds.iter().map(|(lo, hi)| hi - lo).collect();
        let decoded: Vec<Vec<f64>> = seeds
            .iter()
            .filter_map(|(bits, _)| self.space.decode_values(bits))
            .collect();
        let dg_dm = |m: &[f64; 3]| final_objective.dg_dmetrics(m);
        let refined: Vec<Vec<f64>> =
            par_map_indexed(self.config.parallelism.threads, &decoded, |_, start| {
                if !self.config.use_gradient_descent {
                    return start.clone();
                }
                // Optimize in normalized coordinates u = (x - lo) / span.
                let mut u: Vec<f64> = start
                    .iter()
                    .zip(&bounds)
                    .map(|(v, (lo, hi))| (v - lo) / (hi - lo))
                    .collect();
                let mut adam = Adam::new(self.config.gd_lr, u.len());
                for _ in 0..self.config.gd_epochs {
                    let x_now: Vec<f64> = u
                        .iter()
                        .zip(&bounds)
                        .map(|(ui, (lo, hi))| lo + ui * (hi - lo))
                        .collect();
                    // One fused call per step: the prediction and the
                    // input gradient of g_hat through the surrogate.
                    let mut grad_x = match instrumented.value_and_grad(&x_now, &dg_dm) {
                        // Not differentiable: the seed stays as decoded.
                        None => return start.clone(),
                        Some(Err(_)) => break,
                        Some(Ok((_, grad))) => grad,
                    };
                    final_objective.add_input_grad(&x_now, &mut grad_x);
                    let grad_u: Vec<f64> = grad_x.iter().zip(&spans).map(|(g, s)| g * s).collect();
                    adam.step(&mut u, &grad_u);
                    self.telemetry.incr(Counter::AdamSteps);
                    for ui in &mut u {
                        *ui = ui.clamp(0.0, 1.0);
                    }
                }
                u.iter()
                    .zip(&bounds)
                    .map(|(ui, (lo, hi))| lo + ui * (hi - lo))
                    .collect()
            });
        drop(local_span);

        // ---- Pool build for stage 3 (round, dedupe, rank by g_hat).
        let mut rounded: Vec<Vec<f64>> = Vec::new();
        for x in refined {
            let r = self.space.round_to_grid(&x);
            if !rounded.contains(&r) {
                rounded.push(r);
            }
        }
        // Gradient descent can collapse several seeds onto one grid point;
        // top the pool back up with the (distinct) pre-GD seeds so the
        // accurate simulator still sees cand_num diverse candidates. Every
        // other distinct pre-GD seed is backup stock, ranked after the
        // refined designs: a fault-free roll-out never reaches it, and a
        // permanent simulator failure draws from it once the refined
        // surplus runs out.
        let mut backups: Vec<Vec<f64>> = Vec::new();
        for x in &decoded {
            let r = self.space.round_to_grid(x);
            if rounded.contains(&r) || backups.contains(&r) {
                continue;
            }
            if rounded.len() < self.config.cand_num {
                rounded.push(r);
            } else {
                backups.push(r);
            }
        }
        // Rank by surrogate g_hat (one batched forward pass over both
        // tiers). The whole scored pool is retained — the rows beyond
        // cand_num were already paid for by the single predict_batch, and
        // the surplus is exactly the backup stock the fault-tolerant
        // top-up draws from when a permanent simulator failure empties a
        // roll-out slot.
        let n_refined = rounded.len();
        rounded.extend(backups);
        let predictions = instrumented.predict_batch(&rounded);
        let mut entries = rounded.into_iter().zip(predictions).map(|(x, m)| {
            let m = m.ok()?;
            Some(PoolEntry {
                g_hat: final_objective.g_hat(&m, &x),
                values: x,
                predicted: m,
            })
        });
        let mut pool: Vec<PoolEntry> = entries.by_ref().take(n_refined).flatten().collect();
        let mut backup: Vec<PoolEntry> = entries.flatten().collect();
        pool.sort_by(|a, b| nan_last(a.g_hat, b.g_hat));
        backup.sort_by(|a, b| nan_last(a.g_hat, b.g_hat));
        pool.extend(backup);

        PreparedRollout {
            pool,
            final_objective,
            samples_seen,
            invalid_seen,
        }
    }

    /// Stage 3: drives the accurate simulator over the prepared pool through
    /// the [`scheduler`] batch stream, drawing in score order until
    /// `cand_num` designs have been successfully simulated or the pool runs
    /// dry (every draw past the first wave is a top-up replacing a
    /// permanently failed design).
    fn roll_out(&self, prep: &PreparedRollout) -> JobRollout {
        let _rollout_span = isop_telemetry::span!(self.telemetry, "pipeline.rollout");
        let ctx = SchedulerCtx {
            simulator: self.simulator,
            space: self.space,
            eval_cache: &self.eval_cache,
            telemetry: &self.telemetry,
            retry: self.config.retry,
            threads: self.config.parallelism.threads,
        };
        scheduler::run_async(&prep.pool, self.config.cand_num, &ctx)
    }

    /// Turns a scheduler roll-out into the final [`IsopOutcome`]: exact
    /// objectives on the delivered simulations, feasible-first ranking, and
    /// the resolution / fault accounting the paper's tables report.
    /// `algorithm_seconds` is the caller-measured real wall-clock (the
    /// scheduler's EM ledgers are simulated seconds and land in
    /// [`em_seconds`](IsopOutcome::em_seconds) /
    /// [`em_seconds_saved`](IsopOutcome::em_seconds_saved)).
    fn finalize(
        &self,
        prep: PreparedRollout,
        rollout: JobRollout,
        algorithm_seconds: f64,
    ) -> IsopOutcome {
        let PreparedRollout {
            pool,
            final_objective,
            samples_seen,
            invalid_seen,
        } = prep;
        let target = self.config.cand_num.max(1);
        let mut candidates: Vec<DesignCandidate> = rollout
            .delivered
            .iter()
            .map(|d| {
                let entry = &pool[d.pool_index];
                let metrics = d.result.to_array();
                DesignCandidate {
                    values: entry.values.clone(),
                    predicted: entry.predicted,
                    simulated: Some(d.result),
                    g_exact: final_objective.g_exact(&metrics, &entry.values),
                    attempts: d.attempts,
                }
            })
            .collect();
        let resolution = if candidates.is_empty() && rollout.drawn > 0 {
            RolloutResolution::AllSimulationsFailed
        } else if candidates.len() < target && rollout.em_failures_permanent > 0 {
            RolloutResolution::Degraded
        } else {
            RolloutResolution::Full
        };
        // Rank feasible candidates ahead of infeasible ones, then by exact
        // objective — the paper's success criterion counts a trial as
        // successful when *a* constraint-satisfying solution is discovered.
        let feasible = |c: &DesignCandidate| {
            let m = c.simulated.expect("simulated at roll-out").to_array();
            final_objective.all_satisfied(&m, &c.values)
        };
        candidates.sort_by(|a, b| {
            feasible(b)
                .cmp(&feasible(a))
                .then(nan_last(a.g_exact, b.g_exact))
        });
        let success = candidates.first().is_some_and(feasible);

        IsopOutcome {
            candidates,
            samples_seen,
            invalid_seen,
            algorithm_seconds,
            em_seconds: rollout.em_seconds,
            em_seconds_saved: rollout.em_seconds_saved,
            final_objective,
            success,
            em_retries: rollout.em_retries,
            em_failures_transient: rollout.em_failures_transient,
            em_failures_permanent: rollout.em_failures_permanent,
            em_topped_up: rollout.em_topped_up,
            resolution,
        }
    }
}

/// Everything stage 3 needs, produced by `IsopOptimizer::prepare`: the
/// surrogate-ranked candidate pool plus the frozen objective and stage-1
/// sample accounting that `IsopOptimizer::finalize` folds into the outcome.
struct PreparedRollout {
    /// Surrogate-scored candidate pool in roll-out order: the refined
    /// designs best `g_hat` first, then the remaining distinct pre-GD
    /// seeds best first. The rows beyond `cand_num` are the backup stock
    /// top-ups draw from.
    pool: Vec<PoolEntry>,
    /// The adapted objective, frozen after the global stage.
    final_objective: Objective,
    /// Valid surrogate evaluations consumed by stages 1–2.
    samples_seen: u64,
    /// Invalid encodings encountered by stages 1–2.
    invalid_seen: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spaces::s1;
    use crate::surrogate::OracleSurrogate;
    use crate::tasks::{objective_for, TaskId};
    use isop_em::simulator::AnalyticalSolver;

    fn fast_config() -> IsopConfig {
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
            ..IsopConfig::default()
        }
    }

    /// End-to-end smoke test on T1 with the oracle surrogate: the pipeline
    /// must find a constraint-satisfying design with decent loss.
    #[test]
    fn solves_t1_with_oracle_surrogate() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let opt = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config());
        let outcome = opt.run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 3);
        let best = outcome.best().expect("found a candidate");
        let sim = best.simulated.expect("rolled out");
        assert!(
            outcome.success,
            "must satisfy Z=85+-1; got Z={} L={}",
            sim.z_diff, sim.insertion_loss
        );
        assert!((sim.z_diff - 85.0).abs() <= 1.0 + 1e-6);
        assert!(sim.insertion_loss < 0.0);
        assert!(outcome.samples_seen > 0);
        assert!(outcome.em_seconds > 0.0);
    }

    #[test]
    fn candidates_are_grid_valid_and_ranked() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let opt = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config());
        let outcome = opt.run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 5);
        for c in &outcome.candidates {
            assert!(
                space.contains(&c.values),
                "off-grid candidate {:?}",
                c.values
            );
        }
        for w in outcome.candidates.windows(2) {
            assert!(w[0].g_exact <= w[1].g_exact);
        }
    }

    #[test]
    fn gradient_descent_improves_over_global_only() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();

        let mut no_gd_cfg = fast_config();
        no_gd_cfg.use_gradient_descent = false;
        let with_gd_cfg = fast_config();

        // Average exact objective across seeds; GD must not be worse.
        let (mut g_no, mut g_gd) = (0.0, 0.0);
        for seed in [11, 12, 13] {
            let no_gd = IsopOptimizer::new(&space, &surrogate, &simulator, no_gd_cfg.clone()).run(
                objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                seed,
            );
            let gd = IsopOptimizer::new(&space, &surrogate, &simulator, with_gd_cfg.clone()).run(
                objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                seed,
            );
            g_no += no_gd.best().map_or(10.0, |c| c.g_exact);
            g_gd += gd.best().map_or(10.0, |c| c.g_exact);
        }
        assert!(g_gd <= g_no + 0.15, "GD degraded results: {g_gd} vs {g_no}");
    }

    #[test]
    fn budget_limits_global_samples() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let opt = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config());
        let budget = Budget::unlimited().with_samples(100);
        let outcome = opt.run(objective_for(TaskId::T1, vec![]), budget, 7);
        // Hyperband and fallback still run, so allow headroom over 100.
        assert!(outcome.samples_seen < 400, "saw {}", outcome.samples_seen);
    }

    /// The tentpole determinism contract: for a fixed seed, the parallel
    /// path must be bit-identical to the serial one — same candidates (values,
    /// predictions, exact objectives, ranking), same sample accounting, same
    /// EM wall-clock.
    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let outcomes: Vec<IsopOutcome> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let config = IsopConfig {
                    parallelism: Parallelism::new(threads),
                    ..fast_config()
                };
                IsopOptimizer::new(&space, &surrogate, &simulator, config).run(
                    objective_for(TaskId::T1, vec![]),
                    Budget::unlimited(),
                    3,
                )
            })
            .collect();
        let (serial, parallel) = (&outcomes[0], &outcomes[1]);
        assert!(!serial.candidates.is_empty());
        assert_eq!(serial.candidates, parallel.candidates);
        assert_eq!(serial.samples_seen, parallel.samples_seen);
        assert_eq!(serial.invalid_seen, parallel.invalid_seen);
        assert_eq!(serial.em_seconds.to_bits(), parallel.em_seconds.to_bits());
        assert_eq!(serial.success, parallel.success);
    }

    /// Roll-out EM accounting: up to three simulations run in parallel and
    /// cost the wall-clock of a single run, so a 3-candidate roll-out is
    /// exactly one `nominal_seconds()` charge.
    #[test]
    fn three_candidate_roll_out_charges_one_em_batch() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let opt = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config());
        let outcome = opt.run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 3);
        assert_eq!(outcome.candidates.len(), 3, "expected a full roll-out");
        assert!(
            (outcome.em_seconds - simulator.nominal_seconds()).abs() < 1e-12,
            "3 parallel simulations must cost one batch, got {} vs {}",
            outcome.em_seconds,
            simulator.nominal_seconds()
        );
    }

    /// A surrogate that emits NaN for roughly half its inputs. Ranking must
    /// not panic (the seed code used `partial_cmp(..).expect("finite")`) and
    /// NaN-scored designs must rank last rather than poisoning the order.
    struct NanSurrogate {
        inner: OracleSurrogate<AnalyticalSolver>,
    }

    impl Surrogate for NanSurrogate {
        fn predict(&self, x: &[f64]) -> Result<[f64; 3], isop_ml::MlError> {
            // Deterministically poison about half the predictions.
            let parity = x.iter().map(|v| v.to_bits().count_ones()).sum::<u32>() % 2;
            if parity == 0 {
                Ok([f64::NAN, f64::NAN, f64::NAN])
            } else {
                self.inner.predict(x)
            }
        }

        fn jacobian(&self, x: &[f64]) -> Option<Result<isop_ml::linalg::Matrix, isop_ml::MlError>> {
            self.inner.jacobian(x)
        }

        fn name(&self) -> String {
            "nan-stub".to_string()
        }
    }

    #[test]
    fn nan_emitting_surrogate_does_not_panic_ranking() {
        let space = s1();
        let surrogate = NanSurrogate {
            inner: OracleSurrogate::new(AnalyticalSolver::new()),
        };
        let simulator = AnalyticalSolver::new();
        let opt = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config());
        // The seed code panicked inside sort comparators here; the run must
        // now complete, and any finite-scored candidates stay ranked.
        let outcome = opt.run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 5);
        for w in outcome.candidates.windows(2) {
            assert!(
                nan_last(w[0].g_exact, w[1].g_exact) != std::cmp::Ordering::Greater,
                "NaN must sort last: {} before {}",
                w[0].g_exact,
                w[1].g_exact
            );
        }
    }

    /// Telemetry counter totals are commutative atomic adds, so a 4-thread
    /// run must report bit-identical counters and charged EM seconds to the
    /// serial run at the same seed — the contract the CI bench gate diffs on.
    #[test]
    fn telemetry_counters_identical_across_thread_widths() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let reports: Vec<isop_telemetry::RunReport> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let config = IsopConfig {
                    parallelism: Parallelism::new(threads),
                    ..fast_config()
                };
                let tele = Telemetry::enabled();
                let _ = IsopOptimizer::new(&space, &surrogate, &simulator, config)
                    .with_telemetry(tele.clone())
                    .run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 3);
                tele.run_report()
            })
            .collect();
        let (serial, parallel) = (&reports[0], &reports[1]);
        assert_eq!(serial.counters, parallel.counters);
        assert_eq!(
            serial.em_seconds_charged.to_bits(),
            parallel.em_seconds_charged.to_bits()
        );
        // The run actually exercised every stage.
        assert!(serial.counter("surrogate.predict") > 0);
        assert!(serial.counter("harmonica.lasso_solves") > 0);
        assert!(serial.counter("adam.steps") > 0);
        assert!(serial.counter("em.batches_charged") > 0);
        for label in [
            "pipeline.global",
            "pipeline.hyperband",
            "pipeline.local",
            "pipeline.rollout",
        ] {
            assert!(serial.span(label).is_some(), "missing span {label}");
        }
    }

    /// The evaluation-cache contract: a run with a cache is bit-identical
    /// to a run without one, and a second run sharing the cache serves its
    /// roll-out from hits — moving the batch charge into the saved ledger
    /// while `charged + saved` stays invariant.
    #[test]
    fn shared_eval_cache_elides_repeat_roll_outs_bit_exactly() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let baseline = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config()).run(
            objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            3,
        );

        let cache = crate::evalcache::EvalCache::new();
        let run = |tele: &Telemetry| {
            IsopOptimizer::new(&space, &surrogate, &simulator, fast_config())
                .with_telemetry(tele.clone())
                .with_eval_cache(cache.clone())
                .run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 3)
        };
        let tele_a = Telemetry::enabled();
        let cold = run(&tele_a);
        let tele_b = Telemetry::enabled();
        let warm = run(&tele_b);

        // Candidates, FoM, and ranking are bit-identical across all three.
        assert_eq!(baseline.candidates, cold.candidates);
        assert_eq!(cold.candidates, warm.candidates);
        assert_eq!(cold.success, warm.success);

        // Cold run: every probe missed, everything was charged.
        assert_eq!(cold.em_seconds.to_bits(), baseline.em_seconds.to_bits());
        assert_eq!(cold.em_seconds_saved, 0.0);
        assert_eq!(tele_a.counter(Counter::EmCacheHits), 0);
        assert!(tele_a.counter(Counter::EmCacheMisses) > 0);

        // Warm run: the whole roll-out came from the cache.
        assert_eq!(warm.em_seconds, 0.0);
        assert!(warm.em_seconds_saved > 0.0);
        assert!(tele_b.counter(Counter::EmCacheHits) > 0);
        assert_eq!(
            (warm.em_seconds + warm.em_seconds_saved).to_bits(),
            cold.em_seconds.to_bits(),
            "charged + saved must be invariant under the cache"
        );
        // Batch accounting is unchanged: same number of logical batches.
        assert_eq!(
            tele_a.counter(Counter::EmBatchesCharged),
            tele_b.counter(Counter::EmBatchesCharged)
        );
    }

    /// Stage 1 and the pool build score only in batches: one
    /// `predict_batch` per Harmonica stage, one per Hyperband probe and one
    /// for the pool, while every single-row `predict` is a stage-2 Adam
    /// step's fused value-and-gradient call.
    #[test]
    fn global_stage_and_pool_score_only_in_batches() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let config = fast_config();
        // The probe schedule depends only on the config, not on the losses.
        let mut probes = 0u64;
        hyperband::run(
            &config.hyperband,
            &mut StdRng::seed_from_u64(0),
            |_| (),
            |_, _, _| {
                probes += 1;
                0.0
            },
        );
        let tele = Telemetry::enabled();
        let outcome = IsopOptimizer::new(&space, &surrogate, &simulator, config)
            .with_telemetry(tele.clone())
            .run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 3);
        assert!(outcome.best().is_some());
        let stages = tele.counter(Counter::HarmonicaStages);
        assert!(stages > 0 && probes > 0);
        assert!(tele.counter(Counter::AdamSteps) > 0);
        assert_eq!(
            tele.counter(Counter::SurrogatePredict),
            tele.counter(Counter::AdamSteps),
            "single-row calls come only from Adam steps"
        );
        assert_eq!(
            tele.counter(Counter::SurrogatePredictBatch),
            stages + probes + 1,
            "one batch per Harmonica stage, per Hyperband probe and for the pool"
        );
    }

    /// An optimizer without `with_telemetry` records nothing anywhere.
    #[test]
    fn default_optimizer_runs_untraced() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let outcome = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config()).run(
            objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            3,
        );
        assert!(outcome.best().is_some());
    }

    #[test]
    fn weights_adapt_during_global_stage() {
        let space = s1();
        let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
        let simulator = AnalyticalSolver::new();
        let opt = IsopOptimizer::new(&space, &surrogate, &simulator, fast_config());
        let outcome = opt.run(objective_for(TaskId::T1, vec![]), Budget::unlimited(), 9);
        // T1's Z band is generous enough that some batch satisfies it and
        // the weight decays below its initial 1.0 (or stays — but never
        // grows).
        assert!(outcome.final_objective.weights.oc[0] <= 1.0 + 1e-12);
    }
}
