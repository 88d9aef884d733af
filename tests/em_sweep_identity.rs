//! Integration tests of the batched-sweep determinism contract: the
//! structure-of-arrays [`SweepPlan`] only reorganizes *which* points are
//! evaluated together — every point still goes through the exact scalar
//! ABCD chain — so batched vs scalar and a cache-warm pipeline replay must
//! both be bit-identical, not merely close.

use isop::evalcache::{EvalCache, SurrogateMemo};
use isop::prelude::*;
use isop_em::channel::{Channel, Element};
use isop_em::simulator::AnalyticalSolver;
use isop_em::stackup::DiffStripline;
use isop_em::sweep::SweepPlan;
use isop_em::via::Via;
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;

const SEED: u64 = 3;
const N_FREQ: usize = 193;
const F_START_HZ: f64 = 1e8;
const F_STOP_HZ: f64 = 4e10;

/// A fleet of link-level channels sharing layers and via prototypes —
/// repeated segments are what the plan's interning amortizes, so identity
/// must hold exactly where the fast path takes its shortcuts.
fn fleet() -> Vec<Channel> {
    let layers: Vec<DiffStripline> = (0..3)
        .map(|i| DiffStripline {
            trace_width: 4.0 + 0.6 * i as f64,
            trace_spacing: 6.0 + 0.4 * i as f64,
            ..DiffStripline::default()
        })
        .collect();
    (0..7)
        .map(|c| {
            let mut elems = Vec::new();
            for s in 0..3usize {
                elems.push(Element::Stripline {
                    layer: layers[(c + s) % layers.len()],
                    length_inches: 0.5 + ((c + 2 * s) % 4) as f64,
                });
                if (c + s) % 2 == 0 {
                    elems.push(Element::Via(Via {
                        stub_length: if c % 3 == 0 { 20.0 } else { 0.0 },
                        ..Via::default()
                    }));
                }
            }
            Channel::new(elems).expect("valid channel")
        })
        .collect()
}

/// Flattens one channel's batched sweep into bit patterns of all four
/// S-parameters.
fn batched_bits(plan: &mut SweepPlan, ch: &Channel) -> Vec<u64> {
    let view = plan.sweep(ch);
    let mut bits = Vec::with_capacity(view.len() * 8);
    for i in 0..view.len() {
        for s in [view.s11(i), view.s21(i), view.s12(i), view.s22(i)] {
            bits.push(s.re.to_bits());
            bits.push(s.im.to_bits());
        }
    }
    bits
}

/// The same flattening through the scalar per-point ABCD chain.
fn scalar_bits(freqs: &[f64], ch: &Channel) -> Vec<u64> {
    let z = ch.reference_impedance();
    let mut bits = Vec::with_capacity(freqs.len() * 8);
    for &f in freqs {
        let (s11, s21, s12, s22) = ch.abcd(f).to_s_params(z);
        for s in [s11, s21, s12, s22] {
            bits.push(s.re.to_bits());
            bits.push(s.im.to_bits());
        }
    }
    bits
}

#[test]
fn batched_sweep_is_bit_identical_to_scalar_per_design_and_frequency() {
    let channels = fleet();
    let mut plan = SweepPlan::log_spaced(F_START_HZ, F_STOP_HZ, N_FREQ);
    let freqs = plan.freqs().to_vec();
    for (i, ch) in channels.iter().enumerate() {
        assert_eq!(
            batched_bits(&mut plan, ch),
            scalar_bits(&freqs, ch),
            "channel {i} diverged from the scalar path"
        );
    }
    // The warm plan interned something — the amortization is real, not a
    // fleet that happens to share nothing.
    assert!(plan.interned_prototypes() > 0);
}

#[test]
fn derived_loss_sweeps_match_the_per_point_helpers_bitwise() {
    let channels = fleet();
    let mut plan = SweepPlan::log_spaced(F_START_HZ, F_STOP_HZ, N_FREQ);
    let freqs = plan.freqs().to_vec();
    let (mut il, mut rl) = (Vec::new(), Vec::new());
    for ch in &channels {
        ch.insertion_loss_db_sweep(&mut plan, &mut il);
        ch.return_loss_db_sweep(&mut plan, &mut rl);
        for (k, &f) in freqs.iter().enumerate() {
            assert_eq!(il[k].to_bits(), ch.insertion_loss_db(f).to_bits());
            assert_eq!(rl[k].to_bits(), ch.return_loss_db(f).to_bits());
        }
    }
}

fn smoke_config() -> IsopConfig {
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

/// Cache-warm replay: a second pipeline run sharing the [`EvalCache`]
/// serves its accurate simulations from cache, and because those cached
/// results came from the same batched sweep machinery, the warm run's
/// candidates and FoM are bit-identical to the cold run's.
#[test]
fn cache_warm_replay_is_bit_identical() {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let telemetry = Telemetry::enabled();
    let simulator = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let cache = EvalCache::new();
    let run = || {
        IsopOptimizer::new(&space, &surrogate, &simulator, smoke_config())
            .with_telemetry(telemetry.clone())
            .with_eval_cache(cache.clone())
            .with_surrogate_memo(SurrogateMemo::disabled())
            .run(
                isop::tasks::objective_for(TaskId::T1, vec![]),
                Budget::unlimited(),
                SEED,
            )
    };
    let cold = run();
    let warm = run();

    let report = telemetry.run_report();
    assert!(report.counter("em.cache.hits") > 0, "warm run never hit");
    assert_eq!(cold.candidates, warm.candidates);
    let g_cold = cold.best().expect("candidate").g_exact;
    let g_warm = warm.best().expect("candidate").g_exact;
    assert_eq!(g_cold.to_bits(), g_warm.to_bits());
}
