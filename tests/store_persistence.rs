//! Integration tests of the persistent evaluation store's cross-run
//! contract: records written by one "job" (a store handle that is then
//! dropped — byte-wise indistinguishable from another process) must
//! replay a later identical run bit for bit with zero charged EM
//! seconds, shard collisions must be harmless, compaction must be
//! idempotent, and a torn shard tail must cost at most the torn record.

use isop::evalcache::EvalCache;
use isop::prelude::*;
use isop_em::simulator::AnalyticalSolver;
use isop_hpo::budget::Budget;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;
use isop_store::{EvalRecord, ModelRecord, Store};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 3;

/// A unique scratch directory per test (tests share one process, so the
/// pid alone is not enough).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isop-store-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

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

/// One seeded smoke run against a **fresh** store handle on `dir` — the
/// handle is opened and dropped inside, so consecutive calls only share
/// the bytes on disk, exactly like separate processes would. `persist`
/// false leaves the directory byte-identical (a flush folds the cross-job
/// tally into a meta record, which would make later runs read more bytes).
fn run_against_store(
    dir: &std::path::Path,
    threads: usize,
    persist: bool,
) -> (RunReport, isop::pipeline::IsopOutcome) {
    let space = isop::spaces::s1();
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let telemetry = Telemetry::enabled();
    let simulator = AnalyticalSolver::new().with_telemetry(telemetry.clone());
    let store = Arc::new(
        Store::open(dir)
            .expect("store opens")
            .with_telemetry(telemetry.clone()),
    );
    let cache = EvalCache::with_store(Arc::clone(&store));
    let outcome = IsopOptimizer::new(&space, &surrogate, &simulator, smoke_config(threads))
        .with_telemetry(telemetry.clone())
        .with_eval_cache(cache.clone())
        .run(
            isop::tasks::objective_for(TaskId::T1, vec![]),
            Budget::unlimited(),
            SEED,
        );
    if persist {
        cache.persist().expect("store flushes");
    }
    (telemetry.run_report(), outcome)
}

#[test]
fn fresh_handles_replay_a_previous_runs_work_bit_identically() {
    let dir = scratch_dir("replay");

    // Cold "job": pays for every accurate simulation, then disappears.
    let (cold_report, cold) = run_against_store(&dir, 2, true);
    assert!(cold_report.em_seconds_charged > 0.0, "cold run pays");
    assert_eq!(cold_report.counter("store.cross_job_hits"), 0);
    assert!(cold_report.counter("store.records_written") > 0);

    // Warm "jobs": fresh handles at two widths see the same bytes on
    // disk (read-only, so the second width replays the exact store state
    // the first one saw).
    let (warm_report, warm) = run_against_store(&dir, 1, false);
    let (wide_report, wide) = run_against_store(&dir, 4, false);

    assert_eq!(cold.candidates, warm.candidates, "bit-identical outcome");
    assert_eq!(cold.success, warm.success);
    assert_eq!(warm_report.em_seconds_charged, 0.0, "zero new EM charged");
    assert_eq!(
        (warm_report.em_seconds_charged + warm_report.em_seconds_saved).to_bits(),
        cold_report.em_seconds_charged.to_bits(),
        "the saved ledger replays the cold charge exactly"
    );
    assert_eq!(
        (warm.em_seconds + warm.em_seconds_saved).to_bits(),
        (cold.em_seconds + cold.em_seconds_saved).to_bits()
    );
    assert!(warm_report.counter("store.cross_job_hits") > 0);
    assert_eq!(
        warm_report.counter("store.cross_job_hits"),
        warm_report.counter("em.cache.hits"),
        "every warm hit came from the store, not this job's own inserts"
    );

    // Thread width must not move a single warm counter: hydration and
    // probing happen in the roll-out's serial sections.
    assert_eq!(warm.candidates, wide.candidates);
    assert_eq!(warm_report.counters, wide_report.counters);
    assert_eq!(warm.em_seconds.to_bits(), wide.em_seconds.to_bits());
    assert_eq!(
        warm_report.em_seconds_saved.to_bits(),
        wide_report.em_seconds_saved.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_shard_store_serves_colliding_spaces_correctly() {
    let dir = scratch_dir("collide");
    let record = |space_id: u64, level: u32, z: f64| EvalRecord {
        space_id,
        levels: vec![level, level + 1],
        metrics: [z, -0.5, 3.0],
        attempts: 1,
    };
    {
        // One shard: every space fingerprint collides into shard 0.
        let store = Store::open_with_shards(&dir, 1).expect("opens");
        store.append_eval(&record(0xAAAA, 1, 90.0));
        store.append_eval(&record(0xBBBB, 1, 91.0));
        store.append_eval(&record(0xAAAA, 2, 92.0));
        store.put_model(&ModelRecord {
            space_id: 0xAAAA,
            config_fp: 7,
            data_fp: 9,
            name: "m".into(),
            payload: serde::json::Value::Num(1.5),
        });
        store.flush().expect("flushes");
    }
    let store = Store::open(&dir).expect("reopens");
    assert_eq!(store.n_shards(), 1, "shard count adopted from the header");
    let a = store.load_evals(0xAAAA).expect("loads");
    let b = store.load_evals(0xBBBB).expect("loads");
    assert_eq!(a.len(), 2, "colliding space sees only its own records");
    assert_eq!(b.len(), 1);
    assert!(a.iter().all(|r| r.space_id == 0xAAAA));
    assert_eq!(b[0].metrics[0].to_bits(), 91.0f64.to_bits());
    let m = store
        .get_model(0xAAAA, 7, 9, "m")
        .expect("reads")
        .expect("model found despite eval records in the same shard");
    assert_eq!(m.payload, serde::json::Value::Num(1.5));
    assert!(store.get_model(0xBBBB, 7, 9, "m").expect("reads").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_is_idempotent_and_keeps_the_last_write() {
    let dir = scratch_dir("compact");
    {
        let store = Store::open_with_shards(&dir, 2).expect("opens");
        for z in [90.0, 91.0, 92.0] {
            // Same identity three times: only the last may survive.
            store.append_eval(&EvalRecord {
                space_id: 0x1,
                levels: vec![4, 4],
                metrics: [z, -0.4, 2.0],
                attempts: 1,
            });
        }
        store.append_eval(&EvalRecord {
            space_id: 0x2,
            levels: vec![9],
            metrics: [100.0, -0.9, 1.0],
            attempts: 3,
        });
        store.flush().expect("flushes");
    }
    let store = Store::open(&dir).expect("reopens");
    let first = store.compact().expect("compacts");
    assert_eq!(first.records_before, 4);
    assert_eq!(first.records_after, 2);
    let stats_once = store.stats().expect("stats");

    let second = store.compact().expect("compacts again");
    assert_eq!(second.records_before, second.records_after, "idempotent");
    let stats_twice = store.stats().expect("stats");
    assert_eq!(stats_once.eval_records, stats_twice.eval_records);
    assert_eq!(stats_once.bytes, stats_twice.bytes, "byte-stable");

    let survivors = Store::open(&dir)
        .expect("fresh handle")
        .load_evals(0x1)
        .expect("loads");
    assert_eq!(survivors.len(), 1);
    assert_eq!(
        survivors[0].metrics[0].to_bits(),
        92.0f64.to_bits(),
        "last write wins"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_shard_tail_loses_only_the_torn_record() {
    let dir = scratch_dir("truncate");
    {
        let store = Store::open_with_shards(&dir, 1).expect("opens");
        for i in 0..5u32 {
            store.append_eval(&EvalRecord {
                space_id: 0x9,
                levels: vec![i],
                metrics: [90.0 + f64::from(i), -0.5, 2.0],
                attempts: 1,
            });
        }
        store.flush().expect("flushes");
    }
    // Tear the tail of the shard mid-record, as a crash would.
    let shard = dir.join("shard_000.bin");
    let bytes = std::fs::read(&shard).expect("shard readable");
    std::fs::write(&shard, &bytes[..bytes.len() - 7]).expect("truncates");

    let store = Store::open(&dir).expect("reopens after tear");
    let survivors = store.load_evals(0x9).expect("loads");
    assert_eq!(survivors.len(), 4, "only the torn record is lost");
    let stats = store.stats().expect("stats");
    assert_eq!(stats.skipped, 1, "the tear is counted, not silent");

    // Writing through the store heals the file: flush rewrites the shard
    // from the surviving records plus the new one.
    store.append_eval(&EvalRecord {
        space_id: 0x9,
        levels: vec![99],
        metrics: [95.0, -0.5, 2.0],
        attempts: 2,
    });
    store.flush().expect("flush heals");
    let healed = Store::open(&dir).expect("reopens healed");
    assert_eq!(healed.load_evals(0x9).expect("loads").len(), 5);
    for v in healed.verify().expect("verifies") {
        assert_eq!(v.skipped, 0, "no skips after healing");
    }
    std::fs::remove_dir_all(&dir).ok();
}
