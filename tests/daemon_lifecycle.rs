//! Lifecycle contracts of the live optimization daemon.
//!
//! Pins the daemon's headline promises end to end: per-job dispositions
//! (cancelled / deadline-expired / failed neighbors never perturb a
//! completing job), rolling tenant quotas enforced from *real* charged EM
//! seconds across epochs, per-request submission validation, crash
//! recovery that replays the journal bit-identically to an uninterrupted
//! run without double-charging an EM second, and the epoch-streaming
//! determinism claim — streaming jobs across epochs reproduces a one-shot
//! batch when epoch boundaries coincide with wave boundaries. The heavy
//! tests run under both 1 and 4 engine cores.

use isop::prelude::*;
use isop_hpo::harmonica::HarmonicaConfig;
use isop_hpo::hyperband::HyperbandConfig;
use isop_store::{JobState, Store};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A pipeline shape small enough to run many daemon epochs per test.
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

fn daemon_config(cores: usize, wave_slots: usize) -> DaemonConfig {
    DaemonConfig {
        engine: EngineConfig {
            cores,
            wave_slots,
            pipeline: tiny_pipeline(),
        },
        ..DaemonConfig::default()
    }
}

fn spec(id: &str, tenant: &str, seed: u64) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        tenant: tenant.to_string(),
        task: "t1".to_string(),
        space: "s1".to_string(),
        seed,
        threads: 2,
        ..JobSpec::default()
    }
}

/// A unique scratch store directory, removed by [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!("isop-daemon-test-{tag}-{}", std::process::id())))
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

/// A daemon wired to a fresh store handle on `dir`, like one `isop daemon`
/// process pointed at a cache directory.
fn daemon_on(dir: &Path, config: DaemonConfig) -> Daemon {
    let telemetry = Telemetry::enabled();
    let store = Arc::new(
        Store::open(dir)
            .expect("open store")
            .with_telemetry(telemetry.clone()),
    );
    Daemon::new(config)
        .with_store(store)
        .with_telemetry(telemetry)
}

fn submit(daemon: &Daemon, spec: JobSpec) {
    let response = daemon.handle_request(Request::Submit(spec));
    assert_eq!(response.error_kind(), None, "submit refused: {response:?}");
}

/// Runs every pending epoch to completion and returns all job results in
/// execution order.
fn drain(daemon: &Daemon) -> Vec<JobResult> {
    let mut jobs = Vec::new();
    while let Some((_, report)) = daemon.run_next_epoch().expect("epoch run") {
        jobs.extend(report.jobs);
    }
    jobs
}

fn job<'a>(jobs: &'a [JobResult], id: &str) -> &'a JobResult {
    jobs.iter()
        .find(|j| j.id == id)
        .unwrap_or_else(|| panic!("job '{id}' missing from report"))
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
    assert_eq!(a.disposition, b.disposition, "{what}: disposition diverged");
    assert_eq!(
        a.report.samples_seen, b.report.samples_seen,
        "{what}: samples_seen diverged"
    );
    assert_eq!(
        a.report.invalid_seen, b.report.invalid_seen,
        "{what}: invalid_seen diverged"
    );
    let counters = |r: &JobResult| -> Vec<(String, u64)> {
        r.report
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect()
    };
    assert_eq!(counters(a), counters(b), "{what}: counters diverged");
}

/// Cancelled, deadline-expired, and panicking jobs surface their own
/// dispositions — and the job that completes next to them is bit-identical
/// to running with no such neighbors at all.
#[test]
fn dispositions_are_surfaced_without_touching_neighbors() {
    for cores in [1usize, 4] {
        let scratch = Scratch::new(&format!("dispositions-{cores}"));
        let daemon = daemon_on(scratch.path(), daemon_config(cores, 4));
        submit(&daemon, spec("ok", "acme", 11));
        submit(
            &daemon,
            JobSpec {
                deadline_seconds: 1e-9,
                ..spec("late", "acme", 12)
            },
        );
        submit(
            &daemon,
            JobSpec {
                chaos_panic: true,
                ..spec("boom", "acme", 13)
            },
        );
        submit(&daemon, spec("gone", "acme", 14));
        let cancelled = daemon.handle_line(r#"{"op":"cancel","id":"gone"}"#);
        assert_eq!(cancelled.error_kind(), None);
        // A deadline too far out to represent means no deadline; arming it
        // must not panic the scheduler.
        submit(
            &daemon,
            JobSpec {
                deadline_seconds: 1e300,
                ..spec("far", "acme", 15)
            },
        );

        let jobs = drain(&daemon);
        assert_eq!(jobs.len(), 5, "cores {cores}");
        assert_eq!(job(&jobs, "ok").disposition, "completed");
        assert_eq!(job(&jobs, "far").disposition, "completed");
        assert!(!job(&jobs, "far").candidates.is_empty());
        assert_eq!(job(&jobs, "late").disposition, "deadline_expired");
        assert_eq!(job(&jobs, "boom").disposition, "failed");
        assert_eq!(job(&jobs, "gone").disposition, "cancelled");
        for stopped in ["late", "boom", "gone"] {
            let j = job(&jobs, stopped);
            assert!(
                j.candidates.is_empty(),
                "cores {cores}: stopped job '{stopped}' produced candidates"
            );
            assert_eq!(
                j.em_seconds_charged.to_bits(),
                0.0f64.to_bits(),
                "cores {cores}: stopped job '{stopped}' charged EM seconds"
            );
            assert!(
                !j.success,
                "cores {cores}: stopped job '{stopped}' succeeded"
            );
        }

        // The survivor matches a solo run on a fresh store bit for bit.
        let solo_scratch = Scratch::new(&format!("dispositions-solo-{cores}"));
        let solo = daemon_on(solo_scratch.path(), daemon_config(cores, 4));
        submit(&solo, spec("ok", "acme", 11));
        let solo_jobs = drain(&solo);
        assert_job_identical(
            job(&jobs, "ok"),
            job(&solo_jobs, "ok"),
            &format!("cores {cores}: 'ok' next to stopped neighbors"),
        );

        // Cancelling a finished job is an explicit no-op, not an error.
        let again = daemon.handle_line(r#"{"op":"cancel","id":"ok"}"#);
        assert_eq!(again.error_kind(), None);
        let status = daemon.handle_request(Request::Status(Some("gone".to_string())));
        let Response::Ok(fields) = status else {
            panic!("status failed")
        };
        assert_eq!(
            serde::json::Value::field(&fields, "phase").as_str(),
            Some("cancelled")
        );
    }
}

/// The rolling quota is fed by real charged EM seconds: a tenant that
/// burned its budget is refused until enough epochs slide the window past
/// its charges, and other tenants are never collateral damage.
#[test]
fn quota_is_enforced_from_real_charges_and_slides_with_epochs() {
    let scratch = Scratch::new("quota");
    let daemon = daemon_on(
        scratch.path(),
        DaemonConfig {
            quota_em_seconds: 1e-6,
            quota_window_epochs: 2,
            ..daemon_config(2, 2)
        },
    );
    submit(&daemon, spec("h0", "hog", 21));
    let jobs = drain(&daemon);
    assert!(
        job(&jobs, "h0").em_seconds_charged > 1e-6,
        "epoch must charge real EM seconds for the quota to bite"
    );

    // The window [0, 1] still covers epoch 0's charges: refused.
    let refused = daemon.handle_request(Request::Submit(spec("h1", "hog", 22)));
    assert_eq!(refused.error_kind(), Some("quota_exceeded"));
    // Tenants with no charges in the window are unaffected; running their
    // epochs advances the accumulating epoch number.
    submit(&daemon, spec("l0", "light-a", 23));
    drain(&daemon);
    submit(&daemon, spec("l1", "light-b", 24));
    drain(&daemon);

    // Three epochs ran, so the accumulating epoch is 3 and the window
    // [2, 3] no longer sees epoch 0: the hog is admitted again.
    submit(&daemon, spec("h1", "hog", 22));
    assert_eq!(daemon.pending_epochs(), 1);
}

/// Malformed, duplicate, and unknown-task submissions between two good
/// ones are refused individually and leave the good jobs' results
/// bit-identical to a clean session.
#[test]
fn refused_submissions_never_perturb_accepted_jobs() {
    let noisy_scratch = Scratch::new("noisy");
    let noisy = daemon_on(noisy_scratch.path(), daemon_config(2, 2));
    submit(&noisy, spec("a", "acme", 31));
    assert_eq!(noisy.handle_line("}{").error_kind(), Some("bad_request"));
    assert_eq!(
        noisy
            .handle_line(r#"{"op":"submit","job":{"id":"x","task":"t9"}}"#)
            .error_kind(),
        Some("unknown_task")
    );
    assert_eq!(
        noisy
            .handle_request(Request::Submit(spec("a", "acme", 99)))
            .error_kind(),
        Some("duplicate_id")
    );
    submit(&noisy, spec("b", "acme", 32));
    let noisy_jobs = drain(&noisy);
    assert_eq!(noisy_jobs.len(), 2);

    let clean_scratch = Scratch::new("clean");
    let clean = daemon_on(clean_scratch.path(), daemon_config(2, 2));
    submit(&clean, spec("a", "acme", 31));
    submit(&clean, spec("b", "acme", 32));
    let clean_jobs = drain(&clean);
    for id in ["a", "b"] {
        assert_job_identical(
            job(&noisy_jobs, id),
            job(&clean_jobs, id),
            &format!("'{id}' next to refused submissions"),
        );
    }
}

/// A daemon killed mid-epoch — after the first wave's safe-point flush —
/// restarts, replays the journal, and finishes the epoch bit-identically
/// to a daemon that was never killed, without double-charging an EM
/// second: the journal holds exactly one `Finished` frame per job.
#[test]
fn killed_mid_epoch_daemon_replays_bit_identically() {
    for cores in [1usize, 4] {
        let submissions = || {
            vec![
                spec("a0", "acme", 41),
                spec("a1", "acme", 42),
                spec("b0", "bolt", 43),
                spec("b1", "bolt", 44),
            ]
        };

        // Reference: the same four jobs, never interrupted.
        let calm_scratch = Scratch::new(&format!("calm-{cores}"));
        let calm = daemon_on(calm_scratch.path(), daemon_config(cores, 2));
        for s in submissions() {
            submit(&calm, s);
        }
        let calm_jobs = drain(&calm);
        assert_eq!(calm_jobs.len(), 4);

        // The victim crashes after wave 1 of its 2-wave epoch.
        let crash_scratch = Scratch::new(&format!("crash-{cores}"));
        let victim = daemon_on(
            crash_scratch.path(),
            DaemonConfig {
                chaos_crash_after_waves: 1,
                ..daemon_config(cores, 2)
            },
        );
        for s in submissions() {
            submit(&victim, s);
        }
        let err = victim.run_next_epoch().expect_err("chaos crash expected");
        assert!(err.contains("chaos"), "unexpected epoch error: {err}");
        // The jobs the crash left without a result report `failed`, not
        // `running`; the two finished in wave 0 keep their disposition.
        let phase_of = |id: &str| {
            let Response::Ok(fields) = victim.handle_request(Request::Status(Some(id.to_string())))
            else {
                panic!("status of '{id}' failed")
            };
            let phase = serde::json::Value::field(&fields, "phase").as_str();
            let finished = serde::json::Value::field(&fields, "disposition")
                .as_str()
                .is_some();
            (phase.map(str::to_string), finished)
        };
        let mut failed = 0;
        for s in submissions() {
            let (phase, finished) = phase_of(&s.id);
            if !finished {
                assert_eq!(
                    phase.as_deref(),
                    Some("failed"),
                    "cores {cores}: '{}'",
                    s.id
                );
                failed += 1;
            }
        }
        assert_eq!(failed, 2, "cores {cores}: wave 1 never ran");
        let Response::Ok(summary) = victim.handle_request(Request::Status(None)) else {
            panic!("status summary failed")
        };
        assert_eq!(
            serde::json::Value::field(&summary, "running"),
            &serde::json::Value::Num(0.0),
            "cores {cores}"
        );
        drop(victim);

        // Restart on the same store directory.
        let revived = daemon_on(crash_scratch.path(), daemon_config(cores, 2));
        let recovery = revived.recover().expect("journal replay");
        assert_eq!(recovery.epochs_pending, 1, "cores {cores}");
        assert_eq!(recovery.jobs_replayed, 2, "cores {cores}");
        assert_eq!(recovery.jobs_resumed, 2, "cores {cores}");
        let revived_jobs = drain(&revived);
        assert_eq!(revived_jobs.len(), 4, "cores {cores}");

        for s in submissions() {
            assert_job_identical(
                job(&revived_jobs, &s.id),
                job(&calm_jobs, &s.id),
                &format!("cores {cores}: '{}' across kill + replay", s.id),
            );
        }

        // Zero double-charging: one Finished frame per job, no more.
        let store = Store::open(crash_scratch.path()).expect("reopen store");
        let frames = store.load_jobs().expect("journal");
        for s in submissions() {
            let finished = frames
                .iter()
                .filter(|f| f.state == JobState::Finished && f.job_id == s.id)
                .count();
            assert_eq!(
                finished, 1,
                "cores {cores}: job '{}' journaled {finished} Finished frames",
                s.id
            );
        }
    }
}

/// A daemon killed while a whole epoch is still queued resumes it after
/// restart exactly as submitted.
#[test]
fn queued_epoch_survives_a_restart() {
    let scratch = Scratch::new("queued-restart");
    let first = daemon_on(scratch.path(), daemon_config(2, 2));
    submit(&first, spec("a", "acme", 51));
    submit(&first, spec("b", "acme", 52));
    drop(first); // killed before any epoch ran; Submitted frames flushed

    let second = daemon_on(scratch.path(), daemon_config(2, 2));
    let recovery = second.recover().expect("journal replay");
    assert_eq!(recovery.epochs_pending, 1);
    assert_eq!(recovery.jobs_replayed, 0);
    assert_eq!(recovery.jobs_resumed, 2);
    let jobs = drain(&second);
    assert_eq!(jobs.len(), 2);

    let calm_scratch = Scratch::new("queued-restart-calm");
    let calm = daemon_on(calm_scratch.path(), daemon_config(2, 2));
    submit(&calm, spec("a", "acme", 51));
    submit(&calm, spec("b", "acme", 52));
    let calm_jobs = drain(&calm);
    for id in ["a", "b"] {
        assert_job_identical(
            job(&jobs, id),
            job(&calm_jobs, id),
            &format!("'{id}' across queued-epoch restart"),
        );
    }
}

/// Streaming jobs across epochs reproduces a one-shot engine batch of the
/// same jobs when epoch boundaries coincide with wave boundaries.
#[test]
fn epoch_streaming_matches_a_one_shot_batch() {
    for cores in [1usize, 4] {
        let specs = vec![
            spec("s0", "acme", 61),
            spec("s1", "acme", 62),
            spec("s2", "acme", 63),
            spec("s3", "acme", 64),
        ];

        // Streamed: two epochs of two jobs, wave_slots 2 — each epoch is
        // exactly one wave, so epoch boundaries sit on wave boundaries.
        let stream_scratch = Scratch::new(&format!("stream-{cores}"));
        let streamed = daemon_on(stream_scratch.path(), daemon_config(cores, 2));
        submit(&streamed, specs[0].clone());
        submit(&streamed, specs[1].clone());
        let (first_epoch, first) = streamed
            .run_next_epoch()
            .expect("epoch run")
            .expect("epoch pending");
        submit(&streamed, specs[2].clone());
        submit(&streamed, specs[3].clone());
        let (second_epoch, second) = streamed
            .run_next_epoch()
            .expect("epoch run")
            .expect("epoch pending");
        assert!(first_epoch < second_epoch);
        let mut streamed_jobs = first.jobs;
        streamed_jobs.extend(second.jobs);

        // One-shot: the same four jobs as a single engine batch.
        let batch_scratch = Scratch::new(&format!("batch-{cores}"));
        let telemetry = Telemetry::enabled();
        let store = Arc::new(
            Store::open(batch_scratch.path())
                .expect("open store")
                .with_telemetry(telemetry.clone()),
        );
        let mut queue = JobQueue::new();
        for s in &specs {
            queue.push(s.clone());
        }
        let batch = Engine::new(EngineConfig {
            cores,
            wave_slots: 2,
            pipeline: tiny_pipeline(),
        })
        .with_telemetry(telemetry)
        .with_store(store)
        .run(&queue)
        .expect("engine run");

        for s in &specs {
            assert_job_identical(
                job(&streamed_jobs, &s.id),
                job(&batch.jobs, &s.id),
                &format!("cores {cores}: '{}' streamed vs one-shot", s.id),
            );
        }
    }
}
