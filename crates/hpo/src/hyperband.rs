//! Hyperband: bandit-based configuration selection through adaptive resource
//! allocation and early stopping (Li et al., JMLR'17).
//!
//! Hyperband hedges over the exploration/exploitation trade-off by running
//! several successive-halving brackets with different initial configuration
//! counts `n` for a shared budget. ISOP+ uses it at the end of the global
//! stage to pick the `p` gradient-descent seeds out of the Harmonica-reduced
//! space — the paper reports it outperforms naive random sampling there.

use crate::order::nan_last;
use isop_telemetry::{Counter, Telemetry};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Hyperband control parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HyperbandConfig {
    /// Maximum resource `R` allocatable to a single configuration.
    pub max_resource: f64,
    /// Halving factor `eta` (canonically 3).
    pub eta: f64,
}

impl Default for HyperbandConfig {
    fn default() -> Self {
        Self {
            max_resource: 27.0,
            eta: 3.0,
        }
    }
}

/// A configuration with its final evaluated loss and the resource it was
/// granted.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked<C> {
    /// The configuration.
    pub config: C,
    /// Loss at the largest resource it reached (lower is better).
    pub loss: f64,
    /// The resource it was last evaluated at.
    pub resource: f64,
}

/// Runs Hyperband.
///
/// * `sample` draws a fresh random configuration;
/// * `eval(rng, config, resource)` returns the loss of `config` when
///   granted `resource` units (lower is better). The run RNG is lent to the
///   hook so stochastic fidelity schemes (e.g. random neighbourhood probes)
///   draw from the same deterministic stream as the sampler.
///
/// Returns every configuration that survived to the end of its bracket,
/// sorted by loss ascending; `NaN` losses rank last.
///
/// # Panics
///
/// Panics if `eta <= 1` or `max_resource < 1`.
pub fn run<C: Clone>(
    cfg: &HyperbandConfig,
    rng: &mut StdRng,
    sample: impl FnMut(&mut StdRng) -> C,
    eval: impl FnMut(&mut StdRng, &C, f64) -> f64,
) -> Vec<Ranked<C>> {
    run_traced(cfg, rng, &Telemetry::disabled(), sample, eval)
}

/// [`run`] with telemetry: records a `hyperband.rung` span per successive
/// halving rung and counts configurations promoted to the next rung vs
/// pruned at it.
pub fn run_traced<C: Clone>(
    cfg: &HyperbandConfig,
    rng: &mut StdRng,
    telemetry: &Telemetry,
    mut sample: impl FnMut(&mut StdRng) -> C,
    mut eval: impl FnMut(&mut StdRng, &C, f64) -> f64,
) -> Vec<Ranked<C>> {
    assert!(cfg.eta > 1.0, "eta must exceed 1");
    assert!(cfg.max_resource >= 1.0, "max_resource must be >= 1");
    let s_max = (cfg.max_resource.ln() / cfg.eta.ln()).floor() as i32;
    let b = (s_max as f64 + 1.0) * cfg.max_resource;

    let mut finalists: Vec<Ranked<C>> = Vec::new();
    for s in (0..=s_max).rev() {
        let n = ((b / cfg.max_resource) * cfg.eta.powi(s) / (s as f64 + 1.0)).ceil() as usize;
        let r = cfg.max_resource * cfg.eta.powi(-s);

        // Successive halving on n configs starting at resource r.
        let mut pool: Vec<C> = (0..n.max(1)).map(|_| sample(rng)).collect();
        let mut last: Vec<Ranked<C>> = Vec::new();
        for i in 0..=s {
            let _span = isop_telemetry::span!(telemetry, "hyperband.rung");
            let r_i = r * cfg.eta.powi(i);
            let mut scored: Vec<Ranked<C>> = pool
                .iter()
                .map(|c| Ranked {
                    config: c.clone(),
                    loss: eval(rng, c, r_i),
                    resource: r_i,
                })
                .collect();
            scored.sort_by(|a, b| nan_last(a.loss, b.loss));
            let keep = ((pool.len() as f64) / cfg.eta).floor() as usize;
            last = scored;
            if i < s {
                let promoted = keep.max(1).min(last.len());
                telemetry.add(Counter::HyperbandPromotions, promoted as u64);
                telemetry.add(Counter::HyperbandPrunes, (last.len() - promoted) as u64);
                pool = last
                    .iter()
                    .take(promoted)
                    .map(|r| r.config.clone())
                    .collect();
            }
        }
        finalists.extend(last.into_iter().take(1.max(n / 4)));
    }
    finalists.sort_by(|a, b| nan_last(a.loss, b.loss));
    finalists
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn finds_good_configuration_on_noisy_quadratic() {
        // Config = a scalar in [0, 1]; true loss = (x - 0.7)^2, noisier at
        // small resource (this is the scenario hyperband is built for).
        let mut rng = StdRng::seed_from_u64(1);
        let mut noise_rng = StdRng::seed_from_u64(2);
        let results = run(
            &HyperbandConfig::default(),
            &mut rng,
            |r| r.gen::<f64>(),
            |_, &x, resource| {
                let noise = (noise_rng.gen::<f64>() - 0.5) / resource.sqrt();
                (x - 0.7) * (x - 0.7) + 0.3 * noise
            },
        );
        assert!(!results.is_empty());
        let best = results[0].config;
        assert!((best - 0.7).abs() < 0.2, "best = {best}");
    }

    #[test]
    fn results_sorted_ascending() {
        let mut rng = StdRng::seed_from_u64(3);
        let results = run(
            &HyperbandConfig::default(),
            &mut rng,
            |r| r.gen::<f64>(),
            |_, &x, _| x,
        );
        for w in results.windows(2) {
            assert!(w[0].loss <= w[1].loss);
        }
    }

    #[test]
    fn bracket_resources_do_not_exceed_max() {
        let cfg = HyperbandConfig {
            max_resource: 9.0,
            eta: 3.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut max_seen = 0.0f64;
        let _ = run(
            &cfg,
            &mut rng,
            |r| r.gen::<f64>(),
            |_, _, resource| {
                max_seen = max_seen.max(resource);
                0.0
            },
        );
        assert!(max_seen <= 9.0 + 1e-9, "resource overshoot: {max_seen}");
    }

    /// Tracing is observation-only (same draws, same ranking) and the
    /// promotion/prune counters partition every non-final rung's pool.
    #[test]
    fn traced_run_matches_plain_run_and_counts_rungs() {
        use isop_telemetry::Telemetry;
        let cfg = HyperbandConfig {
            max_resource: 9.0,
            eta: 3.0,
        };
        let mut rng_a = StdRng::seed_from_u64(8);
        let plain = run(&cfg, &mut rng_a, |r| r.gen::<f64>(), |_, &x, _| x);
        let tele = Telemetry::enabled();
        let mut rng_b = StdRng::seed_from_u64(8);
        let traced = run_traced(&cfg, &mut rng_b, &tele, |r| r.gen::<f64>(), |_, &x, _| x);
        assert_eq!(plain, traced);
        let promoted = tele.counter(Counter::HyperbandPromotions);
        let pruned = tele.counter(Counter::HyperbandPrunes);
        assert!(promoted > 0, "some configs must survive a rung");
        assert!(pruned > 0, "some configs must be pruned");
        let rungs = tele
            .run_report()
            .span("hyperband.rung")
            .expect("span")
            .count;
        assert!(rungs >= 2, "multiple rungs expected, saw {rungs}");
    }
}
