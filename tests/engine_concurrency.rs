//! Concurrent-neighbor bit-identity contracts of the multi-job engine.
//!
//! The engine's headline promise: a job's candidates, EM ledgers, and
//! every per-job counter are **bit-identical to running it alone** — same
//! wave position, same initial store view — no matter how many neighbors
//! share its wave, what spaces they search, how many core permits the
//! budget holds, or whether a neighbor is busy failing through a fault
//! injector. These tests pin each clause, plus the deterministic
//! cross-wave warm-start that makes shared-space batches cheap.

use isop::prelude::*;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;
use isop_store::Store;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A pipeline shape small enough to run many engine batches per test.
fn tiny_pipeline() -> IsopConfig {
    IsopConfig {
        harmonica: HarmonicaConfig {
            stages: 1,
            samples_per_stage: 40,
            top_monomials: 4,
            bits_per_stage: 6,
            ..HarmonicaConfig::default()
        },
        hyperband: HyperbandConfig {
            max_resource: 2.0,
            eta: 2.0,
        },
        gd_candidates: 2,
        gd_epochs: 5,
        cand_num: 2,
        ..IsopConfig::default()
    }
}

fn spec(id: &str, task: &str, space: &str, seed: u64) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        task: task.to_string(),
        space: space.to_string(),
        seed,
        threads: 2,
        ..JobSpec::default()
    }
}

/// A unique scratch store directory, removed by [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!("isop-engine-test-{tag}-{}", std::process::id())))
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a batch through the engine against the store at `dir` and returns
/// the engine report. Fresh `Store` handle per run, as if each batch came
/// from its own process sharing one cache directory. This drives the
/// library's one-shot `Engine::run` directly, with no daemon journal, so
/// the same ids may run again on the same store.
fn run_engine(specs: &[JobSpec], cores: usize, wave_slots: usize, dir: &Path) -> EngineReport {
    let mut queue = JobQueue::new();
    for s in specs {
        queue.push(s.clone());
    }
    let telemetry = Telemetry::enabled();
    let store = Arc::new(
        Store::open(dir)
            .expect("open store")
            .with_telemetry(telemetry.clone()),
    );
    Engine::new(EngineConfig {
        cores,
        wave_slots,
        pipeline: tiny_pipeline(),
    })
    .with_telemetry(telemetry)
    .with_store(store)
    .run(&queue)
    .expect("engine run")
}

/// Asserts two runs of the same job are indistinguishable: candidate sets,
/// both EM ledgers at exact bits, resolution, and every per-job counter.
/// Wall-clock fields are the only thing allowed to differ.
fn assert_job_identical(a: &JobResult, b: &JobResult, what: &str) {
    assert_eq!(a.candidates, b.candidates, "{what}: candidates diverged");
    assert_eq!(
        a.em_seconds_charged.to_bits(),
        b.em_seconds_charged.to_bits(),
        "{what}: charged EM ledger diverged"
    );
    assert_eq!(
        a.em_seconds_saved.to_bits(),
        b.em_seconds_saved.to_bits(),
        "{what}: saved EM ledger diverged"
    );
    assert_eq!(a.success, b.success, "{what}: success diverged");
    assert_eq!(a.resolution, b.resolution, "{what}: resolution diverged");
    assert_eq!(
        a.report.samples_seen, b.report.samples_seen,
        "{what}: samples_seen diverged"
    );
    assert_eq!(
        a.report.invalid_seen, b.report.invalid_seen,
        "{what}: invalid_seen diverged"
    );
    let counters_a: Vec<(String, u64)> = a
        .report
        .counters
        .iter()
        .map(|c| (c.name.clone(), c.value))
        .collect();
    let counters_b: Vec<(String, u64)> = b
        .report
        .counters
        .iter()
        .map(|c| (c.name.clone(), c.value))
        .collect();
    assert_eq!(counters_a, counters_b, "{what}: counters diverged");
}

fn job<'a>(rep: &'a EngineReport, id: &str) -> &'a JobResult {
    rep.jobs
        .iter()
        .find(|j| j.id == id)
        .unwrap_or_else(|| panic!("job '{id}' missing from engine report"))
}

/// The core contract: one job solo vs the same job sharing its admission
/// wave with three neighbors — one on the same space, two on different
/// spaces/tasks — must be bit-for-bit the same job.
#[test]
fn job_is_bit_identical_solo_and_alongside_neighbors() {
    let target = spec("target", "t1", "s1", 7);
    let neighbors = [
        spec("same-space", "t1", "s1", 11),
        spec("other-space", "t2", "s2", 7),
        spec("other-task", "t3", "s1p", 13),
    ];

    let solo_dir = Scratch::new("solo");
    let solo = run_engine(std::slice::from_ref(&target), 2, 4, solo_dir.path());

    let mut batch = vec![target];
    batch.extend(neighbors);
    let conc_dir = Scratch::new("conc");
    let concurrent = run_engine(&batch, 2, 4, conc_dir.path());

    // Everything landed in one wave: every job's initial store view is the
    // same empty store the solo run saw.
    assert_eq!(concurrent.waves, 1, "expected a single admission wave");
    assert_job_identical(
        job(&solo, "target"),
        job(&concurrent, "target"),
        "solo vs 3 neighbors",
    );
}

/// Clamping the core budget must be invisible in results: the whole batch
/// at one permit is bit-identical to the batch at eight.
#[test]
fn permit_width_does_not_change_any_job() {
    let batch = [
        spec("a", "t1", "s1", 3),
        spec("b", "t2", "s2", 4),
        spec("c", "t1", "s1", 5),
        spec("d", "t4", "s1p", 6),
    ];
    let narrow_dir = Scratch::new("narrow");
    let narrow = run_engine(&batch, 1, 4, narrow_dir.path());
    let wide_dir = Scratch::new("wide");
    let wide = run_engine(&batch, 8, 4, wide_dir.path());
    assert!(narrow.peak_core_permits <= 1);
    assert!(wide.peak_core_permits <= 8);
    for s in &batch {
        assert_job_identical(job(&narrow, &s.id), job(&wide, &s.id), &s.id);
    }
}

/// A neighbor drowning in injected faults must not perturb anyone else's
/// results — and its own failures must stay in its own report.
#[test]
fn faulty_neighbor_does_not_perturb_the_wave() {
    let target = spec("target", "t1", "s1", 7);
    let mut faulty = spec("faulty", "t1", "s2", 9);
    faulty.em_fault_rate = 0.8;
    faulty.em_permanent_rate = 0.5;

    let solo_dir = Scratch::new("fault-solo");
    let solo = run_engine(std::slice::from_ref(&target), 2, 4, solo_dir.path());
    let conc_dir = Scratch::new("fault-conc");
    let concurrent = run_engine(&[target, faulty], 2, 4, conc_dir.path());

    assert_job_identical(
        job(&solo, "target"),
        job(&concurrent, "target"),
        "target vs faulty neighbor",
    );
    let faulty_job = job(&concurrent, "faulty");
    let failures = faulty_job.report.counter("em.failures_transient")
        + faulty_job.report.counter("em.failures_permanent");
    assert!(failures > 0, "fault injection never fired");
    let target_job = job(&concurrent, "target");
    assert_eq!(
        target_job.report.counter("em.failures_transient")
            + target_job.report.counter("em.failures_permanent"),
        0,
        "a neighbor's failures leaked into the target's report"
    );
}

/// Cross-wave warm-starting is deterministic: a job admitted after a
/// same-space wave must be bit-identical to running it alone against a
/// store primed by that same predecessor — and must actually elide its EM
/// time through cross-job hits.
#[test]
fn later_wave_warm_starts_deterministically() {
    let warmup = spec("warmup", "t1", "s1", 7);
    let target = spec("target", "t1", "s1", 7);

    // Reference: two separate engine runs against one store directory.
    let primed_dir = Scratch::new("primed");
    run_engine(std::slice::from_ref(&warmup), 2, 4, primed_dir.path());
    let solo = run_engine(std::slice::from_ref(&target), 2, 4, primed_dir.path());

    // One engine run, one wave slot: warmup in wave 0, target in wave 1,
    // separated by the engine's inter-wave flush.
    let seq_dir = Scratch::new("seq");
    let sequenced = run_engine(&[warmup, target], 2, 1, seq_dir.path());
    assert_eq!(sequenced.waves, 2);

    assert_job_identical(
        job(&solo, "target"),
        job(&sequenced, "target"),
        "primed solo vs second wave",
    );
    let warmed = job(&sequenced, "target");
    assert!(
        warmed.em_seconds_saved > 0.0,
        "second wave charged full EM price despite a same-space wave 0"
    );
    assert!(
        sequenced.cross_job_hits > 0,
        "no cross-job hits recorded for the warm-started wave"
    );
    assert_eq!(
        warmed.em_seconds_charged.to_bits(),
        0f64.to_bits(),
        "an identical predecessor job should elide every accurate simulation"
    );
}
