//! `optimize-cnn`: the paper's ISOP+ path in-process. Set-up generates a
//! seeded mixed dataset and fits the 1D-CNN surrogate; the timed loop is a
//! single waiting caller running `IsopOptimizer::run` on jobs that cycle
//! T1–T4 × S1/S2 over distinct seeds, with no store.

use crate::probe::{self, SurrogateStats, TimedSimulator, TimedSurrogate};
use crate::{mean, nproc, quantile, Args, RunOutcome, Timed};
use isop::data::generate_mixed_dataset;
use isop::exec::Parallelism;
use isop::jobs::{space_by_name, task_by_name};
use isop::params::ParamSpace;
use isop::pipeline::{DesignCandidate, IsopConfig, IsopOptimizer, IsopOutcome};
use isop::surrogate::{NeuralSurrogate, Surrogate};
use isop::tasks::{objective_for, TaskId};
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_em::stackup::DiffStripline;
use isop_hpo::budget::Budget;
use isop_ml::models::{Cnn1d, Cnn1dConfig};
use isop_telemetry::{RunReport, Telemetry};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Surrogate-training samples (60% wide training ranges, 40% S2).
const DATASET_SAMPLES: usize = 2000;
/// 1D-CNN training epochs.
const EPOCHS: usize = 10;

/// SplitMix64: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Seeds travel through JSON numbers (f64) in the daemon protocol.
    (z ^ (z >> 31)) & 0x7FFF_FFFF
}

/// Task and space of the `i`-th job: T1–T4 × S1/S2.
pub fn job_cell(i: u64) -> (&'static str, &'static str) {
    const TASKS: [&str; 4] = ["t1", "t2", "t3", "t4"];
    const SPACES: [&str; 2] = ["s1", "s2"];
    (TASKS[(i % 4) as usize], SPACES[((i / 4) % 2) as usize])
}

struct Job {
    task: TaskId,
    space: ParamSpace,
    seed: u64,
}

fn job(workload_seed: u64, i: u64) -> Job {
    let (task, space) = job_cell(i);
    Job {
        task: task_by_name(task).expect("known task"),
        space: space_by_name(space).expect("known space"),
        seed: mix(workload_seed, i),
    }
}

/// Checks a candidate's reported metrics against a fresh accurate
/// simulation, bit for bit.
pub fn resimulates_exactly(c: &DesignCandidate) -> Result<(), String> {
    let reported = c.simulated.ok_or("candidate was never simulated")?;
    let layer =
        DiffStripline::from_vector(&c.values).map_err(|e| format!("invalid design: {e:?}"))?;
    let fresh = AnalyticalSolver::new()
        .simulate(&layer)
        .map_err(|e| format!("re-simulation failed: {e:?}"))?;
    let bits = |r: [f64; 3]| r.map(f64::to_bits);
    if bits(fresh.to_array()) != bits(reported.to_array()) {
        return Err(format!(
            "reported {:?} but re-simulation gives {:?}",
            reported.to_array(),
            fresh.to_array()
        ));
    }
    Ok(())
}

fn verify(outcome: &IsopOutcome, cand_num: usize) -> Result<(), String> {
    if outcome.candidates.len() != cand_num {
        return Err(format!(
            "{} candidates, expected {cand_num}",
            outcome.candidates.len()
        ));
    }
    outcome.candidates.iter().try_for_each(resimulates_exactly)
}

fn same_bits(a: &[DesignCandidate], b: &[DesignCandidate]) -> bool {
    let key = |c: &DesignCandidate| {
        (
            c.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c.predicted.map(f64::to_bits),
            c.simulated.map(|s| s.to_array().map(f64::to_bits)),
            c.g_exact.to_bits(),
            c.attempts,
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| key(x) == key(y))
}

/// Per-job layer figures of one traced job.
struct Traced {
    latency: f64,
    report: RunReport,
    surrogate: SurrogateStats,
    /// CPU seconds spent on executor worker threads.
    worker_cpu_s: f64,
    em_charged: f64,
    success: bool,
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let threads = nproc();
    let config = IsopConfig {
        parallelism: Parallelism::new(threads),
        ..IsopConfig::default()
    };
    let mut out = RunOutcome::default();

    // ---- Set-up: dataset generation + 1D-CNN fit, repeated.
    let mut setup_s = Vec::new();
    let mut dataset_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut sim_calls = Vec::new();
    let mut sim_s = Vec::new();
    let mut surrogate: Option<NeuralSurrogate<Cnn1d>> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let data = if args.trace {
            let sim = TimedSimulator::new(AnalyticalSolver::new());
            let data = generate_dataset(args.seed, &sim)?;
            sim_calls.push(sim.calls());
            sim_s.push(sim.seconds());
            data
        } else {
            generate_dataset(args.seed, &AnalyticalSolver::new())?
        };
        let t_data = t0.elapsed().as_secs_f64();
        let model = Cnn1d::new(Cnn1dConfig {
            expand: 192,
            channels: 8,
            conv_channels: 16,
            kernel: 3,
            head: 64,
            epochs: EPOCHS,
            batch_size: 64,
            lr: 1.5e-3,
            leaky_slope: 0.01,
            dropout: 0.02,
            seed: mix(args.seed, 0xC11),
        });
        let fitted = config
            .model_zoo()
            .fit_neural(model, &data)
            .map_err(|e| format!("1D-CNN fit: {e:?}"))?;
        let total = t0.elapsed().as_secs_f64();
        setup_s.push(total);
        dataset_s.push(t_data);
        fit_s.push(total - t_data);
        surrogate = Some(fitted);
    }
    let surrogate = surrogate.expect("at least one set-up");
    println!(
        "setup: {SETUP_REPS} x (dataset {DATASET_SAMPLES} samples + 1D-CNN {EPOCHS} epochs), \
         median {:.3}s",
        quantile(&setup_s, 0.5)
    );

    // ---- Timed window(s).
    let solver = AnalyticalSolver::new();
    let mut first: Option<Vec<DesignCandidate>> = None;
    let mut run_one = |surrogate: &dyn Surrogate,
                       simulator: &dyn EmSimulator,
                       telemetry: Telemetry,
                       out: &mut RunOutcome|
     -> (f64, IsopOutcome) {
        let i = out.attempted;
        let j = job(args.seed, i);
        let t0 = Instant::now();
        let outcome = IsopOptimizer::new(&j.space, surrogate, simulator, config.clone())
            .with_telemetry(telemetry)
            .run(objective_for(j.task, vec![]), Budget::unlimited(), j.seed);
        let verified = verify(&outcome, config.cand_num);
        let latency = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        if let Err(e) = verified {
            out.failed += 1;
            out.errors.push(format!("job {i}: {e}"));
        }
        if i == 0 {
            first = Some(outcome.candidates.clone());
        }
        (latency, outcome)
    };

    // In a traced run, every other block of eight jobs (one of each
    // task × space cell) runs with telemetry and the timing decorators; the
    // rest run exactly as untraced runs do.
    let mut latencies = Vec::new();
    let mut untraced = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let t_start = Instant::now();
    while t_start.elapsed().as_secs_f64() < args.seconds || latencies.len() < crate::MIN_JOBS {
        if !(args.trace && crate::traced_job(out.attempted)) {
            let (latency, _) = run_one(&surrogate, &solver, Telemetry::disabled(), &mut out);
            latencies.push(latency);
            untraced.push(latency);
            continue;
        }
        let telemetry = Telemetry::enabled();
        let stats = SurrogateStats::default();
        let timed_surrogate = TimedSurrogate::new(&surrogate, &stats, telemetry.clone());
        let cpu0 = (probe::process_cpu_s(), probe::thread_cpu_s());
        let (latency, outcome) = run_one(&timed_surrogate, &solver, telemetry.clone(), &mut out);
        let cpu1 = (probe::process_cpu_s(), probe::thread_cpu_s());
        latencies.push(latency);
        traced.push(Traced {
            latency,
            report: telemetry.run_report(),
            surrogate: stats,
            worker_cpu_s: (cpu1.0 - cpu0.0) - (cpu1.1 - cpu0.1),
            em_charged: outcome.em_seconds,
            success: outcome.success,
        });
    }
    let timed = Timed {
        latencies,
        wall: t_start.elapsed().as_secs_f64(),
    };

    // ---- Repeated spec: job 0 again must return bit-identical candidates.
    let again = {
        let j = job(args.seed, 0);
        IsopOptimizer::new(&j.space, &surrogate, &solver, config.clone()).run(
            objective_for(j.task, vec![]),
            Budget::unlimited(),
            j.seed,
        )
    };
    let first = first.unwrap_or_default();
    out.check(same_bits(&first, &again.candidates), || {
        "repeating job 0 returned different candidates".to_string()
    });

    println!(
        "property: optimize-cnn — no store, no eval cache (hit share 0); {} job(s), \
         {threads} worker thread(s)",
        out.attempted
    );
    if args.trace {
        put_layers(
            &mut out, &untraced, &traced, &dataset_s, &fit_s, &sim_calls, &sim_s,
        );
    } else {
        let rss = crate::peak_rss_mb("self")?;
        timed.put_end_to_end(&mut out, quantile(&setup_s, 0.5), rss);
    }
    Ok(out)
}

fn generate_dataset(seed: u64, sim: &dyn EmSimulator) -> Result<isop_ml::dataset::Dataset, String> {
    generate_mixed_dataset(
        &isop::spaces::training_space(),
        &isop::spaces::s2(),
        DATASET_SAMPLES,
        0.4,
        sim,
        mix(seed, 0xDA7A),
    )
    .map_err(|e| format!("dataset: {e:?}"))
}

fn put_layers(
    out: &mut RunOutcome,
    untraced: &[f64],
    traced: &[Traced],
    dataset_s: &[f64],
    fit_s: &[f64],
    sim_calls: &[f64],
    sim_s: &[f64],
) {
    let per_job = |f: &dyn Fn(&Traced) -> f64| mean(&traced.iter().map(f).collect::<Vec<_>>());
    let span = |name: &'static str| move |t: &Traced| t.report.span_seconds(name);
    let counter = |name: &'static str| move |t: &Traced| t.report.counter(name) as f64;
    let stages = |t: &Traced| {
        span("pipeline.global")(t) + span("pipeline.local")(t) + span("pipeline.rollout")(t)
    };

    out.put("ml.fit_s", quantile(fit_s, 0.5), "s");
    out.put("em.dataset_s", quantile(dataset_s, 0.5), "s");
    out.put("em.simulate_calls", quantile(sim_calls, 0.5), "count");
    out.put("em.simulate_s", quantile(sim_s, 0.5), "s");

    out.put(
        "surrogate.predict_calls",
        per_job(&|t| t.surrogate.predict_calls()),
        "count",
    );
    out.put(
        "surrogate.predict_rows",
        per_job(&|t| t.surrogate.predict_rows()),
        "count",
    );
    out.put(
        "surrogate.predict_s",
        per_job(&|t| t.surrogate.predict_s()),
        "s",
    );
    out.put(
        "surrogate.jacobian_calls",
        per_job(&|t| t.surrogate.jacobian_calls()),
        "count",
    );
    out.put(
        "surrogate.jacobian_s",
        per_job(&|t| t.surrogate.jacobian_s()),
        "s",
    );

    out.put(
        "hpo.sample_self_s",
        per_job(&|t| (span("harmonica.sample")(t) - t.surrogate.sampling_s()).max(0.0)),
        "s",
    );
    out.put("hpo.lasso_s", per_job(&span("harmonica.lasso")), "s");
    out.put(
        "hpo.lasso_solves",
        per_job(&counter("harmonica.lasso_solves")),
        "count",
    );
    out.put("hpo.hyperband_s", per_job(&span("pipeline.hyperband")), "s");

    out.put("pipeline.global_s", per_job(&span("pipeline.global")), "s");
    out.put("pipeline.local_s", per_job(&span("pipeline.local")), "s");
    out.put(
        "pipeline.rollout_s",
        per_job(&span("pipeline.rollout")),
        "s",
    );
    out.put(
        "pipeline.adam_steps",
        per_job(&counter("adam.steps")),
        "count",
    );
    out.put("unattributed_s", per_job(&|t| t.latency - stages(t)), "s");
    out.put("job_wall_s", per_job(&|t| t.latency), "s");

    out.put("exec.worker_s", per_job(&|t| t.worker_cpu_s), "s");

    out.put(
        "rollout.em_s_charged_per_job",
        per_job(&|t| t.em_charged),
        "s",
    );
    let hits = per_job(&counter("em.cache.hits"));
    let misses = per_job(&counter("em.cache.misses"));
    out.put("evalcache.hit_share", share(hits, hits + misses), "ratio");
    out.put(
        "rollout.success_share",
        per_job(&|t| f64::from(u8::from(t.success))),
        "ratio",
    );

    crate::daemon::put_absent_store_layers(out);

    let traced_p50 = quantile(&traced.iter().map(|t| t.latency).collect::<Vec<_>>(), 0.5);
    out.put(
        "trace.overhead_s",
        traced_p50 - quantile(untraced, 0.5),
        "s",
    );
}

pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
