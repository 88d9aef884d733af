//! `daemon-fresh` and `daemon-large-store`: the `isop daemon` binary driven
//! by closed-loop TCP clients, one per core. Each client submits a job,
//! polls its status every [`POLL`] until it completes, verifies it, and
//! submits the next.
//!
//! `daemon-fresh` starts on an empty store and every job's spec is new.
//! `daemon-large-store` starts on a store preloaded outside timing — a
//! priming pass of the timed specs, bulk grid-design evaluations and a
//! journal of finished jobs — and resubmits the primed specs under new ids,
//! so every roll-out design is a cross-job hit.

use crate::optimize::{job_cell, mix, resimulates_exactly, share};
use crate::probe::{SurrogateStats, TimedSurrogate};
use crate::{mean, nproc, quantile, Args, RunOutcome, Timed};
use isop::engine::{Engine, EngineConfig, JobResult};
use isop::evalcache::{CachedSim, EvalCache};
use isop::exec::Parallelism;
use isop::jobs::{JobQueue, JobSpec};
use isop::pipeline::{IsopConfig, IsopOptimizer};
use isop::surrogate::OracleSurrogate;
use isop::tasks::objective_for;
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_em::stackup::DiffStripline;
use isop_hpo::budget::Budget;
use isop_store::{JobRecord, JobState, Store};
use isop_telemetry::{Counter, RunReport, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which store the daemon starts on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fresh,
    LargeStore,
}

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fixed status-poll interval of every client.
const POLL: Duration = Duration::from_millis(5);
/// Connect retry interval while a daemon starts. The daemon's idle accept
/// loop sleeps 20 ms between polls, so any retry interval well below that
/// sees the same first accept; a coarse one rarely slips a connection in
/// before the first poll, which would skip that sleep.
const CONNECT_RETRY: Duration = Duration::from_millis(5);
/// Wave slots the daemon runs with (its CLI default).
const WAVE_SLOTS: usize = 4;
/// Distinct job specs primed into the large store and resubmitted.
const PRIMED_SPECS: u64 = 24;
/// Bulk grid-design evaluations preloaded per space.
const BULK_EVALS_PER_SPACE: usize = 40_000;
/// Finished jobs preloaded into the journal.
const JOURNAL_JOBS: usize = 400;
/// Job specs replayed in-process to time the daemon's surrogate calls.
const SHADOW_JOBS: u64 = 8;
/// Candidates every job must return (the pipeline's `cand_num`).
fn cand_num() -> usize {
    IsopConfig::default().cand_num
}

// ---------------------------------------------------------------------------
// Daemon process and NDJSON client
// ---------------------------------------------------------------------------

/// A spawned `isop daemon`. Dropping it kills and reaps the process if it
/// is still running.
struct DaemonProc {
    child: Child,
    addr: String,
}

impl DaemonProc {
    /// Spawns the daemon on `store` at an ephemeral port and returns it with
    /// the time from spawn to its first answered request.
    fn start(isop: &Path, store: &Path, log: &Path) -> Result<(Self, f64), String> {
        // Reserve an ephemeral port, then hand it to the daemon.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("ephemeral port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let t0 = Instant::now();
        let child = Command::new(isop)
            .arg("daemon")
            .args(["--listen", &addr])
            .arg("--cache-dir")
            .arg(store)
            .args(["--cores", &nproc().to_string()])
            .args(["--wave-slots", &WAVE_SLOTS.to_string()])
            // One allocator arena keeps the daemon's peak RSS a property
            // of its data rather than of which threads happened to get
            // fresh per-thread arenas.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", isop.display()))?;
        let mut daemon = DaemonProc { child, addr };
        loop {
            if let Some(status) = daemon.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited before serving: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("daemon did not answer within 60 s".to_string());
            }
            if let Ok(stream) = TcpStream::connect(&daemon.addr) {
                let mut client = Client::new(stream)?;
                client.request(r#"{"op":"status"}"#)?;
                let setup = t0.elapsed().as_secs_f64();
                return Ok((daemon, setup));
            }
            std::thread::sleep(CONNECT_RETRY);
        }
    }

    /// Asks the daemon to drain and exit, killing it after a timeout.
    fn shutdown(&mut self) -> Result<(), String> {
        let asked = TcpStream::connect(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(Client::new)
            .and_then(|mut c| c.request(r#"{"op":"shutdown"}"#).map(|_| ()));
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                asked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("daemon ignored shutdown for 30 s; killed".to_string())
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One NDJSON connection: a request line out, a response line back.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn new(stream: TcpStream) -> Result<Self, String> {
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request; returns the fields of an `"ok": true` reply.
    fn request(&mut self, request: &str) -> Result<Vec<(String, Value)>, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        let value = Value::parse(self.line.trim()).map_err(|e| format!("reply: {e:?}"))?;
        let fields = value.as_obj().ok_or("reply is not an object")?.to_vec();
        if Value::field(&fields, "ok") != &Value::Bool(true) {
            return Err(format!("refused: {}", self.line.trim()));
        }
        Ok(fields)
    }
}

fn num(fields: &[(String, Value)], key: &str) -> f64 {
    match Value::field(fields, key) {
        Value::Num(n) => *n,
        _ => f64::NAN,
    }
}

// ---------------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------------

/// One job as its client saw it.
struct Sample {
    id: String,
    latency: f64,
    ack: f64,
    /// Ack until a status poll first saw the job leave `queued`; `None` for
    /// untraced jobs.
    queue_wait: Option<f64>,
    traced: bool,
    /// Whether a check on the client side already failed.
    failed: bool,
}

/// Everything one client observed: its jobs and its failed checks.
struct ClientLog {
    samples: Vec<Sample>,
    failures: Vec<String>,
}

struct Shared<'a> {
    addr: &'a str,
    pid: String,
    /// The daemon's `VmHWM` once the window's first [`crate::MIN_JOBS`]
    /// jobs have completed: a fixed amount of work, so the figure does not
    /// drift with how many jobs a window happens to fit.
    peak_rss: OnceLock<Result<f64, String>>,
    kind: Kind,
    seed: u64,
    primed: &'a [JobSpec],
    trace: bool,
    next_job: AtomicU64,
    completed: AtomicU64,
    deadline: Instant,
}

fn spec_for(shared: &Shared<'_>, i: u64) -> JobSpec {
    let id = format!("run-{i}");
    match shared.kind {
        Kind::Fresh => {
            let (task, space) = job_cell(i);
            JobSpec {
                id,
                tenant: "bench".to_string(),
                task: task.to_string(),
                space: space.to_string(),
                seed: mix(shared.seed, i),
                threads: nproc(),
                ..JobSpec::default()
            }
        }
        Kind::LargeStore => JobSpec {
            id,
            ..shared.primed[(i % shared.primed.len() as u64) as usize].clone()
        },
    }
}

/// Runs one client until the deadline. Protocol failures abort the run;
/// failed job checks are returned alongside the samples.
fn client_loop(shared: &Shared<'_>) -> Result<ClientLog, String> {
    let mut client =
        Client::new(TcpStream::connect(shared.addr).map_err(|e| format!("connect: {e}"))?)?;
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    while Instant::now() < shared.deadline
        || shared.completed.load(Ordering::Relaxed) < crate::MIN_JOBS as u64
    {
        let i = shared.next_job.fetch_add(1, Ordering::Relaxed);
        // In a traced run, traced jobs also record when they left the
        // queue; the others time only submit → completed.
        let traced = shared.trace && crate::traced_job(i);
        let spec = spec_for(shared, i);
        let submit = format!(
            r#"{{"op":"submit","job":{}}}"#,
            spec.to_value().to_json_string()
        );
        let status = format!(r#"{{"op":"status","id":"{}"}}"#, spec.id);
        let t0 = Instant::now();
        client.request(&submit)?;
        let ack = t0.elapsed().as_secs_f64();
        let mut queue_wait = None;
        let reply = loop {
            std::thread::sleep(POLL);
            let reply = client.request(&status)?;
            let phase = Value::field(&reply, "phase")
                .as_str()
                .unwrap_or("")
                .to_string();
            if traced && queue_wait.is_none() && phase != "queued" {
                queue_wait = Some(t0.elapsed().as_secs_f64() - ack);
            }
            if phase != "queued" && phase != "running" {
                break reply;
            }
        };
        let phase = Value::field(&reply, "phase").as_str().unwrap_or("");
        let candidates = num(&reply, "candidates");
        let failed_before = failures.len();
        let mut check = |ok: bool, what: &str| {
            if !ok {
                failures.push(format!("job {}: {what}", spec.id));
            }
        };
        check(phase == "completed", &format!("ended '{phase}'"));
        check(
            candidates == cand_num() as f64,
            &format!("{candidates} candidates, expected {}", cand_num()),
        );
        let latency = t0.elapsed().as_secs_f64();
        if shared.completed.fetch_add(1, Ordering::Relaxed) + 1 == crate::MIN_JOBS as u64 {
            let _ = shared.peak_rss.set(crate::peak_rss_mb(&shared.pid));
        }
        samples.push(Sample {
            id: spec.id,
            latency,
            ack,
            queue_wait,
            traced,
            failed: failures.len() > failed_before,
        });
    }
    Ok(ClientLog { samples, failures })
}

// ---------------------------------------------------------------------------
// Store fixture and store-side measurements
// ---------------------------------------------------------------------------

fn primed_specs(seed: u64) -> Vec<JobSpec> {
    (0..PRIMED_SPECS)
        .map(|i| {
            let (task, space) = job_cell(i);
            JobSpec {
                id: format!("prime-{i}"),
                tenant: "bench".to_string(),
                task: task.to_string(),
                space: space.to_string(),
                seed: mix(seed, 10_000 + i),
                threads: nproc(),
                ..JobSpec::default()
            }
        })
        .collect()
}

/// Preloads `dir` through public APIs: a priming pass of `primed`, bulk
/// grid-design evaluations for S1 and S2, and a journal of finished jobs.
fn build_fixture(dir: &Path, seed: u64, primed: &[JobSpec]) -> Result<(), String> {
    let store = Arc::new(Store::open(dir).map_err(|e| format!("store: {e}"))?);
    let engine = Engine::new(EngineConfig {
        cores: nproc(),
        wave_slots: WAVE_SLOTS,
        pipeline: IsopConfig::default(),
    })
    .with_store(Arc::clone(&store));
    let priming = engine.run(&JobQueue::from_specs(primed.to_vec()))?;

    let cache = EvalCache::with_store(Arc::clone(&store));
    let solver = AnalyticalSolver::new();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xB01C));
    for space in [isop::spaces::s1(), isop::spaces::s2()] {
        let cards = space.cardinalities();
        for _ in 0..BULK_EVALS_PER_SPACE {
            let levels: Vec<usize> = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
            let values = space.values_of_levels(&levels);
            let (Some(key), Ok(layer)) = (
                EvalCache::key_for(&space, &values),
                DiffStripline::from_vector(&values),
            ) else {
                continue;
            };
            if let Ok(result) = solver.simulate(&layer) {
                cache.insert(
                    key,
                    CachedSim {
                        result,
                        attempts: 1,
                    },
                );
            }
        }
    }
    cache.persist().map_err(|e| format!("bulk persist: {e}"))?;

    for n in 0..JOURNAL_JOBS {
        let id = format!("hist-{n}");
        let spec = JobSpec {
            id: id.clone(),
            ..primed[n % primed.len()].clone()
        };
        let mut result = priming.jobs[n % primed.len()].clone();
        result.id = id.clone();
        result.report.job = id.clone();
        let epoch = (n / WAVE_SLOTS) as u64;
        for (state, payload) in [
            (JobState::Submitted, spec.to_value()),
            (JobState::Started, Value::Null),
            (JobState::Finished, result.to_value()),
        ] {
            store.append_job(&JobRecord {
                epoch,
                state,
                job_id: id.clone(),
                payload,
            });
        }
    }
    store.flush().map_err(|e| format!("journal flush: {e}"))?;
    Ok(())
}

/// Size figures of a store directory.
struct StoreShape {
    records: u64,
    eval_records: u64,
    job_records: u64,
    shard_bytes_max: u64,
    journal_bytes: u64,
}

fn store_shape(dir: &Path) -> Result<StoreShape, String> {
    let stats = Store::open(dir)
        .and_then(|s| s.stats())
        .map_err(|e| format!("store stats: {e}"))?;
    let mut shard_bytes_max = 0;
    let mut journal_bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("shard_") && name.ends_with(".bin") {
            let bytes = entry.metadata().map_err(|e| e.to_string())?.len();
            shard_bytes_max = shard_bytes_max.max(bytes);
            if name == "shard_000.bin" {
                journal_bytes = bytes;
            }
        }
    }
    Ok(StoreShape {
        records: stats.eval_records + stats.model_records + stats.job_records,
        eval_records: stats.eval_records,
        job_records: stats.job_records,
        shard_bytes_max,
        journal_bytes,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Store-layer timings on a copy of the end-of-run store: per-job space
/// hydration (shard already resident, as in the long-lived daemon) and one
/// journal flush.
struct StoreTimings {
    hydrate_s: f64,
    records_loaded: f64,
    flush_s: f64,
}

fn time_store(copy: &Path) -> Result<StoreTimings, String> {
    const REPS: usize = 5;
    let spaces = [isop::spaces::s1(), isop::spaces::s2()];
    let mut hydrate = Vec::new();
    let mut loaded = Vec::new();
    for space in &spaces {
        let telemetry = Telemetry::enabled();
        let store = Arc::new(
            Store::open(copy)
                .map_err(|e| format!("store copy: {e}"))?
                .with_telemetry(telemetry.clone()),
        );
        // The first hydration reads the shard from disk; the daemon pays
        // that once, so only later ones are timed.
        EvalCache::with_store(Arc::clone(&store)).hydrate_space(space);
        loaded.push(telemetry.counter(Counter::StoreRecordsLoaded) as f64);
        let mut reps = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            EvalCache::with_store(Arc::clone(&store)).hydrate_space(space);
            reps.push(t0.elapsed().as_secs_f64());
        }
        hydrate.push(quantile(&reps, 0.5));
    }
    let store = Store::open(copy).map_err(|e| format!("store copy: {e}"))?;
    store.load_jobs().map_err(|e| format!("journal: {e}"))?;
    let mut flushes = Vec::new();
    for n in 0..REPS {
        store.append_job(&JobRecord {
            epoch: u64::MAX,
            state: JobState::Started,
            job_id: format!("flush-probe-{n}"),
            payload: Value::Null,
        });
        let t0 = Instant::now();
        store.flush().map_err(|e| format!("flush: {e}"))?;
        flushes.push(t0.elapsed().as_secs_f64());
    }
    Ok(StoreTimings {
        hydrate_s: mean(&hydrate),
        records_loaded: mean(&loaded),
        flush_s: quantile(&flushes, 0.5),
    })
}

/// Journaled results of this run's jobs, keyed by id, with their epochs.
fn journaled_results(dir: &Path) -> Result<BTreeMap<String, (u64, JobResult)>, String> {
    let frames = Store::open(dir)
        .and_then(|s| s.load_jobs())
        .map_err(|e| format!("journal: {e}"))?;
    let mut out = BTreeMap::new();
    for frame in frames {
        if frame.state == JobState::Finished && frame.job_id.starts_with("run-") {
            let result = JobResult::from_value(&frame.payload)
                .map_err(|e| format!("journal result {}: {e:?}", frame.job_id))?;
            out.insert(frame.job_id, (frame.epoch, result));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

pub fn run(args: &Args, kind: Kind) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let scratch = &args.scratch;
    let primed = primed_specs(args.seed);
    let fixture = scratch.join("store");
    if kind == Kind::LargeStore {
        let t0 = Instant::now();
        build_fixture(&fixture, args.seed, &primed)?;
        println!("fixture: built in {:.2}s", t0.elapsed().as_secs_f64());
    }

    // ---- Set-up: spawn → first answered request, repeated. A fresh
    // daemon gets a new empty store each time; the large-store daemon
    // restarts on the same preloaded store (an idle start-up leaves it
    // unchanged). The last daemon serves the timed window.
    let mut setups = Vec::new();
    let mut served: Option<(DaemonProc, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        let dir = match kind {
            Kind::Fresh => scratch.join(format!("fresh-{rep}")),
            Kind::LargeStore => fixture.clone(),
        };
        if let Some((mut previous, _)) = served.take() {
            previous.shutdown()?;
        }
        let log = scratch.join(format!("daemon-{rep}.log"));
        let (daemon, setup) = DaemonProc::start(&args.isop, &dir, &log)?;
        setups.push(setup);
        served = Some((daemon, dir));
    }
    let (mut daemon, store_dir) = served.expect("at least one set-up");
    let start_shape = store_shape(&store_dir)?;

    // ---- Timed window: one closed-loop client per core.
    let addr = daemon.addr.clone();
    let shared = Shared {
        addr: &addr,
        pid: daemon.child.id().to_string(),
        peak_rss: OnceLock::new(),
        kind,
        seed: args.seed,
        primed: &primed,
        trace: args.trace,
        next_job: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        deadline: Instant::now() + Duration::from_secs_f64(args.seconds),
    };
    let t_start = Instant::now();
    let per_client: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc())
            .map(|_| s.spawn(|| client_loop(&shared)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let wall = t_start.elapsed().as_secs_f64();
    let stopped = daemon.shutdown();
    drop(daemon);
    let mut samples = Vec::new();
    for client in per_client {
        let log = client?;
        samples.extend(log.samples);
        out.errors.extend(log.failures);
    }
    stopped?;
    let rss = shared
        .peak_rss
        .get()
        .cloned()
        .unwrap_or_else(|| Err("no peak RSS snapshot".to_string()))?;
    out.attempted = samples.len() as u64;

    // ---- End-of-run checks on the store the daemon left behind.
    let verify = Command::new(&args.isop)
        .args(["cache", "verify", "--cache-dir"])
        .arg(&store_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("isop cache verify: {e}"))?;
    out.check(verify.success(), || "isop cache verify failed".to_string());
    let journal = journaled_results(&store_dir)?;
    for sample in &samples {
        let mut problems = Vec::new();
        match journal.get(&sample.id) {
            None => problems.push("no Finished frame".to_string()),
            Some((_, result)) => {
                if result.candidates.len() != cand_num() {
                    problems.push(format!("journaled {} candidates", result.candidates.len()));
                }
                if let Err(e) = result.candidates.iter().try_for_each(resimulates_exactly) {
                    problems.push(e);
                }
                let charged = result.em_seconds_charged;
                let misses = result.report.counter("em.cache.misses");
                match kind {
                    // A fresh spec can still land on a design an earlier
                    // job simulated (about 1 job in 4500 has all its
                    // designs cached); every job that simulated anything
                    // must be charged for it.
                    Kind::Fresh if misses > 0 && charged <= 0.0 => problems.push(format!(
                        "missed the cache {misses} time(s) but was charged no EM seconds"
                    )),
                    Kind::LargeStore if charged != 0.0 || misses != 0 => problems.push(format!(
                        "charged {charged} EM seconds for {misses} cache miss(es)"
                    )),
                    _ => {}
                }
            }
        }
        out.failed += u64::from(sample.failed || !problems.is_empty());
        out.errors.extend(
            problems
                .into_iter()
                .map(|p| format!("job {}: {p}", sample.id)),
        );
    }
    let end_shape = store_shape(&store_dir)?;

    // The window's jobs with their journaled epoch and result.
    let finished: Vec<(&Sample, u64, &JobResult)> = samples
        .iter()
        .filter_map(|s| journal.get(&s.id).map(|(e, r)| (s, *e, r)))
        .collect();
    let epochs: BTreeSet<u64> = finished.iter().map(|(_, e, _)| *e).collect();
    let jobs = samples.len() as f64;
    let charged: Vec<f64> = finished
        .iter()
        .map(|(_, _, r)| r.em_seconds_charged)
        .collect();
    let reports: Vec<&RunReport> = finished.iter().map(|(_, _, r)| &r.report).collect();
    let hits: f64 = reports
        .iter()
        .map(|r| r.counter("em.cache.hits") as f64)
        .sum();
    let misses: f64 = reports
        .iter()
        .map(|r| r.counter("em.cache.misses") as f64)
        .sum();
    let name = match kind {
        Kind::Fresh => "daemon-fresh",
        Kind::LargeStore => "daemon-large-store",
    };
    // The workload's defining property: fresh jobs (almost) never hit the
    // cache, large-store jobs always do (checked per job above).
    let hit_share = share(hits, hits + misses);
    out.check(kind == Kind::LargeStore || hit_share < 0.05, || {
        format!(
            "daemon-fresh hit the cache on {:.1}% of designs",
            100.0 * hit_share
        )
    });
    println!(
        "property: {name} — cross-job hit share {:.3}, EM charged per job {:.3}s, \
         jobs per epoch {:.2}, poll interval {} ms, {} client(s)",
        hit_share,
        mean(&charged),
        share(jobs, epochs.len() as f64),
        POLL.as_millis(),
        nproc()
    );
    for (when, shape) in [("start", &start_shape), ("end", &end_shape)] {
        println!(
            "property: {name} store at {when} — {} records ({} eval, {} journal), \
             largest shard {} bytes, journal shard {} bytes",
            shape.records,
            shape.eval_records,
            shape.job_records,
            shape.shard_bytes_max,
            shape.journal_bytes
        );
    }

    let timed = Timed {
        latencies: samples.iter().map(|s| s.latency).collect(),
        wall,
    };
    if !args.trace {
        timed.put_end_to_end(&mut out, quantile(&setups, 0.5), rss);
        return Ok(out);
    }

    // ---- Per-layer metrics (traced run).
    let per_job =
        |f: &dyn Fn(&RunReport) -> f64| mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>());
    let span = |name: &'static str| move |r: &RunReport| r.span_seconds(name);
    let counter = |name: &'static str| move |r: &RunReport| r.counter(name) as f64;
    let stages = |r: &RunReport| {
        r.span_seconds("pipeline.global")
            + r.span_seconds("pipeline.local")
            + r.span_seconds("pipeline.rollout")
    };
    let shadow_specs: Vec<JobSpec> = (0..SHADOW_JOBS).map(|i| spec_for(&shared, i)).collect();
    let shadow = shadow_surrogate(&shadow_specs);

    out.put("ml.fit_s", 0.0, "s");
    out.put("em.dataset_s", 0.0, "s");
    // Span counts are real simulator calls; the attempt counter also
    // replays cache hits.
    out.put(
        "em.simulate_calls",
        per_job(&|r| r.span("em.simulate").map_or(0.0, |s| s.count as f64)),
        "count",
    );
    out.put("em.simulate_s", per_job(&span("em.simulate")), "s");

    out.put(
        "surrogate.predict_calls",
        per_job(&|r| {
            r.counter("surrogate.predict") as f64 + r.counter("surrogate.predict_batch") as f64
        }),
        "count",
    );
    out.put(
        "surrogate.predict_rows",
        per_job(&|r| {
            r.counter("surrogate.predict") as f64 + r.counter("surrogate.predict_batch_rows") as f64
        }),
        "count",
    );
    out.put("surrogate.predict_s", shadow.predict_s, "s");
    out.put(
        "surrogate.jacobian_calls",
        per_job(&|r| {
            r.counter("surrogate.jacobian") as f64 + r.counter("surrogate.jacobian_batch") as f64
        }),
        "count",
    );
    out.put("surrogate.jacobian_s", shadow.jacobian_s, "s");

    out.put(
        "hpo.sample_self_s",
        (per_job(&span("harmonica.sample")) - shadow.sampling_s).max(0.0),
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
    out.put(
        "unattributed_s",
        per_job(&|r| r.algorithm_seconds - stages(r)),
        "s",
    );
    out.put("job_wall_s", per_job(&|r| r.algorithm_seconds), "s");
    // Executor workers run inside the daemon process, where no
    // per-thread CPU split is observable from outside.
    out.put("exec.worker_s", 0.0, "s");

    out.put("rollout.em_s_charged_per_job", mean(&charged), "s");
    out.put("evalcache.hit_share", hit_share, "ratio");
    out.put(
        "rollout.success_share",
        per_job(&|r| f64::from(u8::from(r.success))),
        "ratio",
    );

    let copy = scratch.join("store-copy");
    copy_dir(&store_dir, &copy)?;
    let timings = time_store(&copy)?;
    out.put("store.hydrate_s", timings.hydrate_s, "s");
    out.put("store.flush_s", timings.flush_s, "s");
    out.put("store.records_loaded", timings.records_loaded, "count");
    out.put(
        "store.records_written",
        share((end_shape.records - start_shape.records) as f64, jobs),
        "count",
    );
    out.put(
        "store.shard_bytes_max",
        end_shape.shard_bytes_max as f64,
        "bytes",
    );
    out.put(
        "store.journal_bytes",
        end_shape.journal_bytes as f64,
        "bytes",
    );

    let queue_waits: Vec<f64> = samples.iter().filter_map(|s| s.queue_wait).collect();
    let waves: BTreeSet<(u64, usize)> = finished.iter().map(|(_, e, r)| (*e, r.wave)).collect();
    out.put("engine.queue_wait_p50_s", quantile(&queue_waits, 0.5), "s");
    out.put("engine.waves", waves.len() as f64, "count");
    out.put(
        "engine.jobs_per_wave",
        share(jobs, waves.len() as f64),
        "count",
    );

    let acks: Vec<f64> = samples.iter().map(|s| s.ack).collect();
    let overheads: Vec<f64> = finished
        .iter()
        .map(|(s, _, r)| s.latency - stages(&r.report))
        .collect();
    out.put("daemon.ack_p50_s", quantile(&acks, 0.5), "s");
    out.put("daemon.ack_p90_s", quantile(&acks, 0.9), "s");
    out.put("daemon.overhead_p50_s", quantile(&overheads, 0.5), "s");
    out.put("daemon.epochs", epochs.len() as f64, "count");
    out.put(
        "daemon.jobs_per_epoch",
        share(jobs, epochs.len() as f64),
        "count",
    );

    let split = |traced: bool| {
        quantile(
            &samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.latency)
                .collect::<Vec<_>>(),
            0.5,
        )
    };
    out.put("trace.overhead_s", split(true) - split(false), "s");
    Ok(out)
}

/// Surrogate time per job of the daemon's job stack, replayed in-process:
/// the daemon runs its oracle surrogate inside its own process, where no
/// per-call timing is exported.
struct ShadowTimes {
    predict_s: f64,
    jacobian_s: f64,
    sampling_s: f64,
}

fn shadow_surrogate(specs: &[JobSpec]) -> ShadowTimes {
    let mut predict = Vec::new();
    let mut jacobian = Vec::new();
    let mut sampling = Vec::new();
    let oracle = OracleSurrogate::new(AnalyticalSolver::new());
    for spec in specs {
        let (Some(space), Some(task)) = (spec.param_space(), spec.task_id()) else {
            continue;
        };
        let telemetry = Telemetry::enabled();
        let stats = SurrogateStats::default();
        let surrogate = TimedSurrogate::new(&oracle, &stats, telemetry.clone());
        let solver = AnalyticalSolver::new();
        let config = IsopConfig {
            parallelism: Parallelism::new(spec.threads),
            ..IsopConfig::default()
        };
        let _ = IsopOptimizer::new(&space, &surrogate, &solver, config)
            .with_telemetry(telemetry)
            .run(objective_for(task, vec![]), Budget::unlimited(), spec.seed);
        predict.push(stats.predict_s());
        jacobian.push(stats.jacobian_s());
        sampling.push(stats.sampling_s());
    }
    ShadowTimes {
        predict_s: mean(&predict),
        jacobian_s: mean(&jacobian),
        sampling_s: mean(&sampling),
    }
}

/// The store, engine and daemon layers for a workload that has none of
/// them: reported as zero so every traced run prints the full table.
pub fn put_absent_store_layers(out: &mut RunOutcome) {
    for (name, unit) in [
        ("store.hydrate_s", "s"),
        ("store.flush_s", "s"),
        ("store.records_loaded", "count"),
        ("store.records_written", "count"),
        ("store.shard_bytes_max", "bytes"),
        ("store.journal_bytes", "bytes"),
        ("engine.queue_wait_p50_s", "s"),
        ("engine.waves", "count"),
        ("engine.jobs_per_wave", "count"),
        ("daemon.ack_p50_s", "s"),
        ("daemon.ack_p90_s", "s"),
        ("daemon.overhead_p50_s", "s"),
        ("daemon.epochs", "count"),
        ("daemon.jobs_per_epoch", "count"),
    ] {
        out.put(name, 0.0, unit);
    }
}
