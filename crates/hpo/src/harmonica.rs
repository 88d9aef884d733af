//! The Harmonica spectral HPO algorithm (Hazan, Klivans & Yuan, ICLR'18),
//! adapted as in the ISOP+ paper.
//!
//! Each stage draws `q` uniform samples from the current (restricted) binary
//! cube, evaluates them in one [`BinaryObjective::eval_batch`] call, fits a
//! **sparse low-degree Fourier polynomial** to the observations via Lasso
//! (the PSR subroutine of Eq. 3), and fixes the bits appearing in the most
//! significant monomials to their best joint assignment — shrinking the
//! search space multiplicatively while remaining trivially parallelizable,
//! in contrast to sequential BO.
//!
//! Invalid encodings (the paper's `2^73` codes vs `7.14e19` valid designs in
//! `S_1`) are never drawn: the [`BinarySpace`] knows each parameter's field
//! and samples only valid codes, which is the uniform distribution over the
//! valid designs that rejection sampling would give. A point the objective
//! still rejects (`None`) is left out of the fit. A candidate bit
//! assignment that would leave no valid design is skipped by an exact
//! [`BinarySpace::is_live`] test.

use crate::budget::Budget;
use crate::lasso::lasso_coordinate_descent_traced;
use crate::objective::BinaryObjective;
use crate::space::BinarySpace;
use isop_telemetry::{Counter, Telemetry};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Harmonica hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarmonicaConfig {
    /// Number of restriction stages (`iter_num` in Algorithm 1).
    pub stages: usize,
    /// Samples drawn per stage (`q`).
    pub samples_per_stage: usize,
    /// Maximum parity degree of the Fourier features (1 or 2).
    pub degree: usize,
    /// Lasso regularization strength.
    pub lambda: f64,
    /// Number of significant monomials kept by the PSR step.
    pub top_monomials: usize,
    /// Maximum bits fixed per stage.
    pub bits_per_stage: usize,
}

impl Default for HarmonicaConfig {
    fn default() -> Self {
        Self {
            stages: 3,
            samples_per_stage: 300,
            degree: 2,
            lambda: 0.02,
            top_monomials: 8,
            bits_per_stage: 6,
        }
    }
}

/// One evaluated sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinarySample {
    /// The bitstring.
    pub bits: Vec<bool>,
    /// Objective value (lower is better).
    pub value: f64,
}

/// Outcome of a Harmonica run.
#[derive(Debug, Clone)]
pub struct HarmonicaResult {
    /// The final restricted space.
    pub space: BinarySpace,
    /// Every valid sample observed, in evaluation order.
    pub history: Vec<BinarySample>,
    /// The best sample seen.
    pub best: Option<BinarySample>,
    /// Stages actually completed (budget may stop early).
    pub stages_run: usize,
}

/// A parity feature over one, two, or three bit positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parity {
    Single(usize),
    Pair(usize, usize),
    Triple(usize, usize, usize),
}

impl Parity {
    fn value(&self, bits: &[bool]) -> f64 {
        let sign = |b: bool| if b { 1.0 } else { -1.0 };
        match *self {
            Parity::Single(i) => sign(bits[i]),
            Parity::Pair(i, j) => sign(bits[i]) * sign(bits[j]),
            Parity::Triple(i, j, k) => sign(bits[i]) * sign(bits[j]) * sign(bits[k]),
        }
    }

    fn bits(&self) -> Vec<usize> {
        match *self {
            Parity::Single(i) => vec![i],
            Parity::Pair(i, j) => vec![i, j],
            Parity::Triple(i, j, k) => vec![i, j, k],
        }
    }
}

/// Builds parity features up to `degree` (1–3). The original Harmonica paper
/// works with degree <= 3; degree 2 is the ISOP+ default (degree 3 on a
/// 73-bit space costs ~C(73,3) ~ 62k Lasso columns — supported, but budget
/// for it).
fn build_features(free_bits: &[usize], degree: usize) -> Vec<Parity> {
    let mut feats: Vec<Parity> = free_bits.iter().map(|&i| Parity::Single(i)).collect();
    if degree >= 2 {
        for (a, &i) in free_bits.iter().enumerate() {
            for &j in &free_bits[a + 1..] {
                feats.push(Parity::Pair(i, j));
            }
        }
    }
    if degree >= 3 {
        for (a, &i) in free_bits.iter().enumerate() {
            for (b, &j) in free_bits[a + 1..].iter().enumerate() {
                for &k in &free_bits[a + 1 + b + 1..] {
                    feats.push(Parity::Triple(i, j, k));
                }
            }
        }
    }
    feats
}

/// Draws one stage's points — `count` of them, fewer when the sample
/// budget has less left — and scores them in one batch. Returns the points
/// the objective accepted, in draw order.
fn sample_stage(
    obj: &mut dyn BinaryObjective,
    space: &BinarySpace,
    count: usize,
    budget: &mut Budget,
    rng: &mut StdRng,
) -> Vec<BinarySample> {
    let count = budget
        .remaining_samples()
        .map_or(count, |left| count.min(left as usize));
    let draws: Vec<Vec<bool>> = (0..count).map(|_| space.sample(rng)).collect();
    let values = obj.eval_batch(&draws);
    let out: Vec<BinarySample> = draws
        .into_iter()
        .zip(values)
        .filter_map(|(bits, value)| value.map(|value| BinarySample { bits, value }))
        .collect();
    budget.record_samples(out.len() as u64);
    out
}

/// Runs Harmonica starting from `space`.
///
/// `on_stage` fires after each stage with that stage's valid samples — the
/// hook ISOP+ uses for adaptive weight adjustment (Algorithm 2), which makes
/// the objective for the *next* stage differ.
pub fn run(
    obj: &mut dyn BinaryObjective,
    space: BinarySpace,
    cfg: &HarmonicaConfig,
    budget: &mut Budget,
    rng: &mut StdRng,
    on_stage: impl FnMut(usize, &[BinarySample]),
) -> HarmonicaResult {
    run_traced(
        obj,
        space,
        cfg,
        budget,
        rng,
        &Telemetry::disabled(),
        on_stage,
    )
}

/// [`run`] with telemetry: records a `harmonica.sample` span around each
/// stage's draws and their batched evaluation, counts Lasso solves and
/// completed stages, and forwards the handle into the PSR Lasso fit.
pub fn run_traced(
    obj: &mut dyn BinaryObjective,
    mut space: BinarySpace,
    cfg: &HarmonicaConfig,
    budget: &mut Budget,
    rng: &mut StdRng,
    telemetry: &Telemetry,
    mut on_stage: impl FnMut(usize, &[BinarySample]),
) -> HarmonicaResult {
    assert_eq!(space.n_bits(), obj.n_bits(), "space/objective bit mismatch");
    let mut history: Vec<BinarySample> = Vec::new();
    let mut best: Option<BinarySample> = None;
    let mut stages_run = 0;

    for stage in 0..cfg.stages {
        if budget.exhausted() || space.n_free() == 0 || !space.is_live() {
            break;
        }
        let samples = {
            let _span = isop_telemetry::span!(telemetry, "harmonica.sample");
            sample_stage(obj, &space, cfg.samples_per_stage, budget, rng)
        };
        if samples.len() < 8 {
            break; // not enough data for a meaningful fit
        }
        stages_run = stage + 1;
        telemetry.incr(Counter::HarmonicaStages);

        for s in &samples {
            if best.as_ref().is_none_or(|b| s.value < b.value) {
                best = Some(s.clone());
            }
        }

        // PSR: fit a sparse polynomial over parity features of free bits.
        let free_bits: Vec<usize> = (0..space.n_bits())
            .filter(|&i| space.restriction(i).is_none())
            .collect();
        let feats = build_features(&free_bits, cfg.degree);
        let n = samples.len();
        let d = feats.len();
        // Column-major, the layout the Lasso streams.
        let mut cols = vec![0.0f64; n * d];
        let mut yvec = vec![0.0f64; n];
        for (r, s) in samples.iter().enumerate() {
            for (c, f) in feats.iter().enumerate() {
                cols[c * n + r] = f.value(&s.bits);
            }
            yvec[r] = s.value;
        }
        let fit =
            lasso_coordinate_descent_traced(&cols, &yvec, n, d, cfg.lambda, 300, 1e-7, telemetry);
        let top = fit.top_k(cfg.top_monomials);

        // Collect the bits of the significant monomials, most significant
        // first, capped at bits_per_stage.
        let mut chosen: Vec<usize> = Vec::new();
        for &m in &top {
            for b in feats[m].bits() {
                if !chosen.contains(&b) {
                    chosen.push(b);
                }
            }
            if chosen.len() >= cfg.bits_per_stage {
                chosen.truncate(cfg.bits_per_stage);
                break;
            }
        }
        if chosen.is_empty() {
            on_stage(stage, &samples);
            history.extend(samples);
            continue; // nothing significant; keep sampling next stage
        }

        // Enumerate assignments of the chosen bits and rank them by the
        // restricted polynomial (monomials fully inside `chosen`; partial
        // monomials average to zero over the free bits).
        let k = chosen.len();
        let mut ranked: Vec<(f64, usize)> = (0..(1usize << k))
            .map(|assign| {
                let bit_of = |b: usize| -> Option<bool> {
                    chosen
                        .iter()
                        .position(|&c| c == b)
                        .map(|p| (assign >> p) & 1 == 1)
                };
                let mut val = fit.intercept;
                for &m in &top {
                    let bits = feats[m].bits();
                    let signs: Option<f64> = bits
                        .iter()
                        .map(|&b| bit_of(b).map(|v| if v { 1.0 } else { -1.0 }))
                        .product();
                    if let Some(sign) = signs {
                        val += fit.coefficients[m] * sign;
                    }
                }
                (val, assign)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite polynomial"));

        // Fix the best assignment whose restricted space is still *alive*:
        // an assignment can force a parameter code past its level count
        // (e.g. both bits of a 3-level parameter set), leaving a space with
        // no valid designs. Fall through to the next assignment if it is
        // dead; if every one is, the stage leaves the space unrestricted.
        for (_, assign) in ranked {
            let mut trial_space = space.clone();
            for (p, &b) in chosen.iter().enumerate() {
                trial_space.fix(b, (assign >> p) & 1 == 1);
            }
            if trial_space.is_live() {
                space = trial_space;
                break;
            }
        }

        on_stage(stage, &samples);
        history.extend(samples);
    }

    HarmonicaResult {
        space,
        history,
        best,
        stages_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::BinaryFn;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Objective with a known sparse structure: bit 0 must be 1, bit 3 must
    /// be 0, and bits 5 xor 6 must be 1; everything else is noise-free slack.
    fn sparse_objective() -> impl BinaryObjective {
        BinaryFn::new(16, |b: &[bool]| {
            let sign = |x: bool| if x { 1.0 } else { -1.0 };
            Some(-2.0 * sign(b[0]) + 1.5 * sign(b[3]) + sign(b[5]) * sign(b[6]))
        })
    }

    #[test]
    fn fixes_significant_bits_correctly() {
        let mut obj = sparse_objective();
        let cfg = HarmonicaConfig {
            stages: 2,
            samples_per_stage: 200,
            top_monomials: 4,
            bits_per_stage: 4,
            lambda: 0.05,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let res = run(
            &mut obj,
            BinarySpace::free(16),
            &cfg,
            &mut budget,
            &mut rng(),
            |_, _| {},
        );
        // The dominant single-bit terms must be fixed to their minimizers.
        assert_eq!(res.space.restriction(0), Some(true), "bit 0 -> +1");
        assert_eq!(res.space.restriction(3), Some(false), "bit 3 -> -1");
        assert!(res.best.is_some());
    }

    #[test]
    fn shrinks_the_space() {
        let mut obj = sparse_objective();
        let cfg = HarmonicaConfig {
            stages: 3,
            samples_per_stage: 150,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let res = run(
            &mut obj,
            BinarySpace::free(16),
            &cfg,
            &mut budget,
            &mut rng(),
            |_, _| {},
        );
        assert!(res.space.n_free() < 16, "space must shrink");
        assert!(res.stages_run >= 1);
    }

    #[test]
    fn stage_callback_sees_samples() {
        let mut obj = sparse_objective();
        let cfg = HarmonicaConfig {
            stages: 2,
            samples_per_stage: 60,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let mut stage_sizes = Vec::new();
        let _ = run(
            &mut obj,
            BinarySpace::free(16),
            &cfg,
            &mut budget,
            &mut rng(),
            |stage, samples| {
                stage_sizes.push((stage, samples.len()));
            },
        );
        assert_eq!(stage_sizes.len(), 2);
        assert!(stage_sizes.iter().all(|&(_, n)| n > 0));
    }

    #[test]
    fn sample_budget_stops_early() {
        let mut obj = sparse_objective();
        let cfg = HarmonicaConfig {
            stages: 10,
            samples_per_stage: 100,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited().with_samples(150);
        let res = run(
            &mut obj,
            BinarySpace::free(16),
            &cfg,
            &mut budget,
            &mut rng(),
            |_, _| {},
        );
        assert!(res.stages_run <= 2);
        assert!(budget.samples() >= 150);
    }

    #[test]
    fn invalid_points_are_never_drawn() {
        // Bit 15 is a one-level field: setting it is an invalid code, so
        // half the cube is invalid. The objective still guards it.
        let mut layout = vec![(1, 2); 15];
        layout.push((1, 1));
        let mut obj = BinaryFn::new(16, |b: &[bool]| {
            if b[15] {
                None
            } else {
                Some(if b[0] { -1.0 } else { 1.0 })
            }
        });
        let cfg = HarmonicaConfig {
            stages: 1,
            samples_per_stage: 100,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let res = run(
            &mut obj,
            BinarySpace::with_fields(&layout),
            &cfg,
            &mut budget,
            &mut rng(),
            |_, _| {},
        );
        assert!(
            res.history.iter().all(|s| !s.bits[15]),
            "no invalid samples kept"
        );
        assert_eq!(res.history.len(), 100, "every draw is valid");
    }

    #[test]
    fn best_tracks_minimum_of_history() {
        let mut obj = sparse_objective();
        let cfg = HarmonicaConfig {
            stages: 2,
            samples_per_stage: 80,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let res = run(
            &mut obj,
            BinarySpace::free(16),
            &cfg,
            &mut budget,
            &mut rng(),
            |_, _| {},
        );
        let hist_min = res
            .history
            .iter()
            .map(|s| s.value)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(res.best.unwrap().value, hist_min);
    }

    /// Regression test: the PSR step must never fix bits into a dead
    /// (all-invalid) subspace. Bits 0–1 form a 3-level field, so the
    /// pattern (b0, b1) = (1, 1) is the only invalid region but also where
    /// the unconstrained polynomial minimum lies — Harmonica must fall
    /// through to a live assignment and keep producing samples in later
    /// stages.
    #[test]
    fn bit_fixing_avoids_dead_subspaces() {
        let mut layout = vec![(2, 3)];
        layout.extend([(1, 2); 8]);
        let mut obj = BinaryFn::new(10, |b: &[bool]| {
            if b[0] && b[1] {
                return None; // invalid encoding region
            }
            let sign = |x: bool| if x { 1.0 } else { -1.0 };
            // Pushes both b0 and b1 towards 1 (the dead corner).
            Some(-3.0 * sign(b[0]) - 3.0 * sign(b[1]))
        });
        let cfg = HarmonicaConfig {
            stages: 3,
            samples_per_stage: 80,
            top_monomials: 4,
            bits_per_stage: 2,
            lambda: 0.05,
            ..HarmonicaConfig::default()
        };
        let mut budget = Budget::unlimited();
        let res = run(
            &mut obj,
            BinarySpace::with_fields(&layout),
            &cfg,
            &mut budget,
            &mut rng(),
            |_, _| {},
        );
        assert_eq!(res.stages_run, 3, "later stages must stay alive");
        // The space must still contain valid points.
        assert!(res.space.is_live(), "restricted space must not be dead");
        let bits = res.space.sample(&mut StdRng::seed_from_u64(99));
        assert!(!(bits[0] && bits[1]), "draws stay valid");
        // And the best value is the live optimum: exactly one of b0/b1 set
        // gives -3 * (+1) - 3 * (-1) = 0.
        assert_eq!(res.best.expect("found").value, 0.0);
    }

    /// Records how Harmonica calls its objective: single evaluations and
    /// the size of every batch.
    struct BatchLog {
        singles: usize,
        batches: Vec<usize>,
    }

    impl BinaryObjective for BatchLog {
        fn eval(&mut self, bits: &[bool]) -> Option<f64> {
            self.singles += 1;
            self.eval_batch(&[bits.to_vec()])[0]
        }

        fn eval_batch(&mut self, points: &[Vec<bool>]) -> Vec<Option<f64>> {
            self.batches.push(points.len());
            let sign = |x: bool| if x { 1.0 } else { -1.0 };
            points
                .iter()
                .map(|b| Some(-2.0 * sign(b[0]) - 2.0 * sign(b[1]) + sign(b[4])))
                .collect()
        }

        fn n_bits(&self) -> usize {
            10
        }
    }

    /// The objective sees one batch of exactly `samples_per_stage` points
    /// per stage and nothing else: the liveness test evaluates nothing,
    /// even when the best assignment is dead.
    #[test]
    fn objective_is_called_once_per_stage_with_the_full_batch() {
        let mut layout = vec![(2, 3)];
        layout.extend([(1, 2); 8]);
        let cfg = HarmonicaConfig {
            stages: 3,
            samples_per_stage: 70,
            top_monomials: 4,
            bits_per_stage: 3,
            lambda: 0.05,
            ..HarmonicaConfig::default()
        };
        let mut obj = BatchLog {
            singles: 0,
            batches: Vec::new(),
        };
        let res = run(
            &mut obj,
            BinarySpace::with_fields(&layout),
            &cfg,
            &mut Budget::unlimited(),
            &mut rng(),
            |_, _| {},
        );
        assert_eq!(res.stages_run, 3);
        assert_eq!(obj.singles, 0, "no single-point evaluation");
        assert_eq!(obj.batches, vec![70; 3], "one full batch per stage");
        assert_eq!(res.history.len(), 210);
        // The dead corner (b0, b1) = (1, 1) was the polynomial's minimum,
        // so the fixed assignment is a live one.
        assert!(res.space.is_live());
    }

    /// Tracing must be observation-only: the traced run draws the same RNG
    /// stream and returns the same result, while the counters account one
    /// Lasso solve per completed stage.
    #[test]
    fn traced_run_matches_plain_run_and_counts_stages() {
        let cfg = HarmonicaConfig {
            stages: 2,
            samples_per_stage: 120,
            ..HarmonicaConfig::default()
        };
        let mut plain_obj = sparse_objective();
        let plain = run(
            &mut plain_obj,
            BinarySpace::free(16),
            &cfg,
            &mut Budget::unlimited(),
            &mut rng(),
            |_, _| {},
        );
        let tele = Telemetry::enabled();
        let mut traced_obj = sparse_objective();
        let traced = run_traced(
            &mut traced_obj,
            BinarySpace::free(16),
            &cfg,
            &mut Budget::unlimited(),
            &mut rng(),
            &tele,
            |_, _| {},
        );
        assert_eq!(plain.history, traced.history);
        assert_eq!(plain.best, traced.best);
        assert_eq!(plain.stages_run, traced.stages_run);
        assert_eq!(
            tele.counter(Counter::HarmonicaStages),
            traced.stages_run as u64
        );
        assert_eq!(
            tele.counter(Counter::HarmonicaLassoSolves),
            traced.stages_run as u64,
            "one PSR solve per completed stage"
        );
        assert_eq!(
            tele.run_report()
                .span("harmonica.sample")
                .expect("span")
                .count,
            traced.stages_run as u64
        );
    }

    #[test]
    fn parity_feature_values() {
        let bits = [true, false, true];
        assert_eq!(Parity::Single(0).value(&bits), 1.0);
        assert_eq!(Parity::Single(1).value(&bits), -1.0);
        assert_eq!(Parity::Pair(0, 1).value(&bits), -1.0);
        assert_eq!(Parity::Pair(0, 2).value(&bits), 1.0);
    }

    #[test]
    fn feature_count_matches_degree() {
        let free = vec![0, 1, 2, 3];
        assert_eq!(build_features(&free, 1).len(), 4);
        assert_eq!(build_features(&free, 2).len(), 4 + 6);
        assert_eq!(build_features(&free, 3).len(), 4 + 6 + 4);
    }

    #[test]
    fn triple_parity_value() {
        let bits = [true, false, true, true];
        assert_eq!(Parity::Triple(0, 1, 2).value(&bits), -1.0);
        assert_eq!(Parity::Triple(0, 2, 3).value(&bits), 1.0);
        assert_eq!(Parity::Triple(1, 2, 3).bits(), vec![1, 2, 3]);
    }

    /// Degree-3 Harmonica recovers an XOR-of-three structure that degree-2
    /// features cannot represent.
    #[test]
    fn degree_three_captures_triple_interaction() {
        let mut obj = BinaryFn::new(8, |b: &[bool]| {
            let sign = |x: bool| if x { 1.0 } else { -1.0 };
            Some(2.0 * sign(b[1]) * sign(b[4]) * sign(b[6]))
        });
        let cfg = HarmonicaConfig {
            stages: 1,
            samples_per_stage: 220,
            degree: 3,
            top_monomials: 3,
            bits_per_stage: 3,
            lambda: 0.05,
        };
        let mut budget = Budget::unlimited();
        let res = run(
            &mut obj,
            BinarySpace::free(8),
            &cfg,
            &mut budget,
            &mut rng(),
            |_, _| {},
        );
        // The triple must be fixed to a joint assignment with product -1.
        let fixed: Vec<Option<bool>> = [1, 4, 6]
            .iter()
            .map(|&b| res.space.restriction(b))
            .collect();
        if fixed.iter().all(Option::is_some) {
            let product: f64 = fixed
                .iter()
                .map(|v| if v.expect("checked") { 1.0 } else { -1.0 })
                .product();
            assert_eq!(product, -1.0, "joint assignment must minimize the parity");
        }
        assert_eq!(res.best.expect("found").value, -2.0);
    }
}
