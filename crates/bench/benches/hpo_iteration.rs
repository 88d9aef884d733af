//! Micro-benchmark: per-sample cost of the search algorithms — Harmonica's
//! batch sampling vs SA's flip-eval loop vs TPE's sequential density
//! modelling. This is the structural reason BO observes far fewer samples
//! in matched wall-clock (paper Tables IV/V).

use criterion::{criterion_group, criterion_main, Criterion};
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::{self, HarmonicaConfig};
use isop_hpo::objective::{BinaryFn, DiscreteFn};
use isop_hpo::sa::{self, SaConfig};
use isop_hpo::space::{BinarySpace, DiscreteSpace};
use isop_hpo::tpe::{Tpe, TpeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const N_BITS: usize = 40;

fn toy_binary() -> impl isop_hpo::objective::BinaryObjective {
    BinaryFn::new(N_BITS, |b: &[bool]| {
        Some(
            b.iter()
                .enumerate()
                .map(|(i, &x)| if x { (i % 7) as f64 } else { 0.0 })
                .sum(),
        )
    })
}

fn bench_hpo(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpo_per_algorithm");
    g.sample_size(10);

    g.bench_function("harmonica_stage_200_samples", |b| {
        b.iter(|| {
            let mut obj = toy_binary();
            let cfg = HarmonicaConfig {
                stages: 1,
                samples_per_stage: 200,
                degree: 2,
                ..HarmonicaConfig::default()
            };
            let mut budget = Budget::unlimited();
            let mut rng = StdRng::seed_from_u64(1);
            harmonica::run(
                &mut obj,
                BinarySpace::free(N_BITS),
                &cfg,
                &mut budget,
                &mut rng,
                |_, _| {},
            )
        })
    });

    g.bench_function("sa_200_iterations", |b| {
        b.iter(|| {
            let mut obj = toy_binary();
            let cfg = SaConfig {
                iterations: 200,
                ..SaConfig::default()
            };
            let mut budget = Budget::unlimited();
            let mut rng = StdRng::seed_from_u64(2);
            sa::run(
                &mut obj,
                &BinarySpace::free(N_BITS),
                &cfg,
                &mut budget,
                &mut rng,
            )
        })
    });

    g.bench_function("tpe_200_iterations", |b| {
        b.iter(|| {
            let cards = vec![16usize; 10];
            let mut obj = DiscreteFn::new(cards.clone(), |l: &[usize]| {
                l.iter().map(|&x| (x as f64 - 7.0).abs()).sum()
            });
            let mut tpe = Tpe::new(DiscreteSpace::new(cards), TpeConfig::default());
            let mut budget = Budget::unlimited();
            let mut rng = StdRng::seed_from_u64(3);
            tpe.optimize(black_box(&mut obj), 200, &mut budget, &mut rng)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_hpo);
criterion_main!(benches);
