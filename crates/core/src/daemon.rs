//! The live optimization daemon: streaming epoch admission, cancellation
//! and deadlines, tenant quotas, and a crash-safe job journal.
//!
//! The [`Daemon`] wraps the batch [`Engine`] in a long-running service.
//! Requests arrive as newline-delimited JSON over a TCP socket
//! (`isop daemon --listen ADDR`) or directly through
//! [`Daemon::handle_request`] (`isop serve --jobs FILE` submits a job
//! file this way and then drains the daemon); submissions accumulate into
//! the **next epoch's** [`JobQueue`] while the current epoch's waves
//! execute, and the scheduler freezes one epoch at a time and hands it to
//! the engine.
//!
//! ## Epoch-based streaming admission, and why it stays deterministic
//!
//! The engine's bit-identity argument (see [`engine`](crate::engine)) is a
//! statement about a *frozen* queue: wave composition is a pure function
//! of the queue, jobs observe the store only at serial wave-admission
//! points, and the store's content at those points is a pure function of
//! completed waves. The daemon never runs the engine over a queue that can
//! still change — a submission lands in epoch `e+1` while epoch `e`
//! executes — so each epoch reuses that argument verbatim: an epoch's
//! results depend only on its frozen queue and the store state left by
//! completed epochs (and completed waves of itself). Streaming four jobs
//! across two epochs therefore reproduces a one-shot batch of the same
//! four jobs whenever the epoch boundaries coincide with wave boundaries.
//!
//! ## The job journal
//!
//! Every state transition is journaled in the shared [`Store`] as a
//! checksummed `Job` frame ([`JobRecord`]): `Submitted` carries the full
//! spec, `Started` marks epoch freeze, `Finished` carries the complete
//! [`JobResult`] — candidates, both EM ledgers, and the tagged report,
//! bit-exact under the store codec. Journal flushes happen only at *safe
//! points* (epoch freeze and wave boundaries, after the engine's own eval
//! flush), so the disk never holds a partial wave: on restart,
//! [`Daemon::recover`] replays the journal, returns `Finished` results
//! verbatim without re-running them, and re-runs the unfinished jobs of
//! interrupted epochs in their original wave positions against the exact
//! store view the first attempt saw — reproducing the uninterrupted run
//! bit for bit, and never double-charging an EM second (a wave whose evals
//! reached disk has its `Finished` frames on disk too).
//!
//! ## Quotas
//!
//! Tenant quotas are enforced over time: a submission is refused with a
//! typed `quota_exceeded` error when the tenant's charged EM seconds over
//! the last [`DaemonConfig::quota_window_epochs`] epochs already meet
//! [`DaemonConfig::quota_em_seconds`]. Refusals never affect queued or
//! running jobs.

use crate::engine::JobResult;
use crate::engine::{aggregate_by_tenant, Engine, EngineConfig, EngineReport, JobControls};
use crate::exec::RunControl;
use crate::jobs::{JobQueue, JobSpec};
use isop_store::{JobRecord, JobState, Store};
use isop_telemetry::{Counter, Telemetry};
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Sizing and policy knobs of the daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Engine sizing every epoch runs with.
    pub engine: EngineConfig,
    /// Rolling per-tenant budget of charged EM seconds (0 = unlimited). A
    /// submission is refused when the tenant's charges over the window
    /// already meet this.
    pub quota_em_seconds: f64,
    /// Epochs the quota window spans (the current accumulating epoch and
    /// its `quota_window_epochs - 1` predecessors).
    pub quota_window_epochs: u64,
    /// Test/chaos knob: abort epoch execution after this many completed
    /// waves (0 = never), *after* the wave-boundary journal flush. The
    /// store is then byte-for-byte what a daemon killed mid-epoch at a
    /// safe point leaves behind — the state crash-recovery tests and the
    /// bench gate's daemon smoke restart from.
    pub chaos_crash_after_waves: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            quota_em_seconds: 0.0,
            quota_window_epochs: 4,
            chaos_crash_after_waves: 0,
        }
    }
}

/// A parsed daemon request (one JSON line on the wire).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op":"submit","job":{...}}` — queue a job into the next epoch.
    Submit(JobSpec),
    /// `{"op":"cancel","id":"..."}` — cooperatively stop a job.
    Cancel(String),
    /// `{"op":"status"}` / `{"op":"status","id":"..."}`.
    Status(Option<String>),
    /// `{"op":"report"}` — per-tenant aggregation of finished jobs.
    Report,
    /// `{"op":"shutdown"}` — drain pending epochs and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line. Anything malformed — bad JSON, a missing
    /// or unknown `op`, a wrong payload shape — is a typed `bad_request`
    /// [`Response`]; it never touches daemon state, so a garbage line
    /// cannot perturb in-flight jobs.
    ///
    /// # Errors
    ///
    /// Returns the error [`Response`] to write back to the client.
    pub fn parse(line: &str) -> Result<Self, Response> {
        let value = Value::parse(line)
            .map_err(|e| Response::error("bad_request", format!("malformed JSON: {e}")))?;
        let obj = value
            .as_obj()
            .ok_or_else(|| Response::error("bad_request", "request must be a JSON object"))?;
        let op = Value::field(obj, "op")
            .as_str()
            .ok_or_else(|| Response::error("bad_request", "missing string field 'op'"))?;
        match op {
            "submit" => {
                let job = Value::field(obj, "job");
                if job.as_obj().is_none() {
                    return Err(Response::error(
                        "bad_request",
                        "submit needs an object field 'job'",
                    ));
                }
                let spec = JobSpec::from_value(job)
                    .map_err(|e| Response::error("bad_request", format!("bad job spec: {e}")))?;
                Ok(Request::Submit(spec))
            }
            "cancel" => match Value::field(obj, "id").as_str() {
                Some(id) => Ok(Request::Cancel(id.to_string())),
                None => Err(Response::error(
                    "bad_request",
                    "cancel needs a string field 'id'",
                )),
            },
            "status" => Ok(Request::Status(
                Value::field(obj, "id").as_str().map(str::to_string),
            )),
            "report" => Ok(Request::Report),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(Response::error(
                "bad_request",
                format!("unknown op '{other}'"),
            )),
        }
    }
}

/// Longest request line the daemon reads, newline excluded. A longer line
/// gets a typed `line_too_long` error and its connection is closed.
const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// A daemon reply (one JSON line on the wire): `{"ok":true,...}` on
/// success, `{"ok":false,"error":KIND,"message":...}` on a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; the payload's fields are merged after `"ok":true`.
    Ok(Vec<(String, Value)>),
    /// Typed refusal: `bad_request`, `duplicate_id`, `unknown_task`,
    /// `unknown_space`, `quota_exceeded`, `not_found`, or `line_too_long`.
    Error {
        /// Stable machine-readable error kind.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    fn ok(fields: Vec<(String, Value)>) -> Self {
        Response::Ok(fields)
    }

    fn error(kind: &str, message: impl Into<String>) -> Self {
        Response::Error {
            kind: kind.to_string(),
            message: message.into(),
        }
    }

    /// The stable error kind, when this is an error.
    #[must_use]
    pub fn error_kind(&self) -> Option<&str> {
        match self {
            Response::Error { kind, .. } => Some(kind),
            Response::Ok(_) => None,
        }
    }

    /// Serializes the response as one compact JSON line (no newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let fields = match self {
            Response::Ok(fields) => {
                let mut all = vec![("ok".to_string(), Value::Bool(true))];
                all.extend(fields.iter().cloned());
                all
            }
            Response::Error { kind, message } => vec![
                ("ok".to_string(), Value::Bool(false)),
                ("error".to_string(), Value::Str(kind.clone())),
                ("message".to_string(), Value::Str(message.clone())),
            ],
        };
        Value::Obj(fields).to_json_string()
    }
}

/// What [`Daemon::recover`] found in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Epochs with at least one unfinished job, queued for re-run.
    pub epochs_pending: u64,
    /// Finished jobs whose results replay verbatim from the journal.
    pub jobs_replayed: u64,
    /// Unfinished jobs that will re-run in their original wave positions.
    pub jobs_resumed: u64,
}

/// Mutable daemon state, all behind one mutex.
#[derive(Default)]
struct DaemonState {
    /// Epochs not yet executed: specs in submission order. New
    /// submissions land in `next_epoch`; recovery re-queues interrupted
    /// epochs under their original numbers (lower keys run first).
    epochs: BTreeMap<u64, Vec<JobSpec>>,
    /// The epoch currently accumulating submissions.
    next_epoch: u64,
    /// Epoch each known job id was submitted into (doubles as the
    /// duplicate-id check).
    job_epoch: BTreeMap<String, u64>,
    /// Lifecycle phase by id: `queued`, `running`, or a disposition
    /// (`failed` also marks a job whose epoch ended in an error).
    phase: BTreeMap<String, String>,
    /// Live cancellation tokens by id.
    tokens: BTreeMap<String, RunControl>,
    /// Finished results by id (journal-replayed or produced this run).
    completed: BTreeMap<String, JobResult>,
    /// Charged EM seconds per epoch per tenant — the quota ledger.
    charges: BTreeMap<u64, BTreeMap<String, f64>>,
    /// Every `job-N` with `N` below this is a known id (ids are never
    /// forgotten), so the search for an empty-id submission's name starts
    /// here.
    auto_id: u64,
    /// True while an epoch is executing (journal flushes from the request
    /// path must wait for a safe point — see `flush_journal_if_idle`).
    executing: bool,
}

/// The live optimization daemon. Construct with [`Daemon::new`], attach
/// the shared persistent store ([`Daemon::with_store`] — required for the
/// journal), [`Daemon::recover`] after a restart, then either drive it
/// synchronously ([`Daemon::handle_request`] + [`Daemon::run_next_epoch`],
/// the deterministic path tests use) or [`Daemon::serve`] a TCP listener.
pub struct Daemon {
    config: DaemonConfig,
    store: Option<Arc<Store>>,
    telemetry: Telemetry,
    state: Mutex<DaemonState>,
    /// Wakes the idle scheduler: notified on every accepted submission
    /// and on shutdown.
    wake: Condvar,
    shutdown: AtomicBool,
    /// The address [`Daemon::serve`] accepts on, so a shutdown can wake
    /// its blocking `accept` with a connection of its own.
    listen_addr: Mutex<Option<SocketAddr>>,
}

impl Daemon {
    /// A daemon with the given policy; no store, no telemetry.
    #[must_use]
    pub fn new(config: DaemonConfig) -> Self {
        Self {
            config,
            store: None,
            telemetry: Telemetry::disabled(),
            state: Mutex::new(DaemonState::default()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            listen_addr: Mutex::new(None),
        }
    }

    /// Attaches the shared persistent store: the job journal lives in it,
    /// and every epoch's engine warm-starts from it.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a telemetry handle for the `daemon.*` / `quota.*` counters
    /// (plus the engine-level `engine.*` counters of every epoch).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A poisoned state lock is recovered, not propagated: every field is
    /// kept self-consistent under the lock, and the journal is the source
    /// of truth after a crash anyway.
    fn lock_state(&self) -> MutexGuard<'_, DaemonState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True once a shutdown was requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Pending (frozen-to-be) epochs, including the accumulating one.
    #[must_use]
    pub fn pending_epochs(&self) -> usize {
        self.lock_state().epochs.len()
    }

    /// Replays the job journal after a restart: finished jobs' results are
    /// restored verbatim (never re-run), interrupted epochs are re-queued
    /// under their original numbers with their original submission order,
    /// and the quota ledger is rebuilt from `Finished` frames.
    ///
    /// # Errors
    ///
    /// Returns a message when no store is attached, the journal cannot be
    /// read, or a frame's payload does not decode.
    pub fn recover(&self) -> Result<RecoveryReport, String> {
        let store = self
            .store
            .as_ref()
            .ok_or("daemon: recover requires a store")?;
        let frames = store
            .load_jobs()
            .map_err(|e| format!("daemon: journal read: {e}"))?;
        let mut state = self.lock_state();
        for frame in &frames {
            match frame.state {
                JobState::Submitted => {
                    if state.job_epoch.contains_key(&frame.job_id) {
                        continue; // duplicated frame (pre-compaction)
                    }
                    let spec = JobSpec::from_value(&frame.payload)
                        .map_err(|e| format!("daemon: journal spec for '{}': {e}", frame.job_id))?;
                    state.job_epoch.insert(frame.job_id.clone(), frame.epoch);
                    state
                        .phase
                        .insert(frame.job_id.clone(), "queued".to_string());
                    state
                        .tokens
                        .insert(frame.job_id.clone(), RunControl::none());
                    state.epochs.entry(frame.epoch).or_default().push(spec);
                    state.next_epoch = state.next_epoch.max(frame.epoch + 1);
                }
                JobState::Started => {}
                JobState::Finished => {
                    let result = JobResult::from_value(&frame.payload).map_err(|e| {
                        format!("daemon: journal result for '{}': {e}", frame.job_id)
                    })?;
                    state
                        .phase
                        .insert(frame.job_id.clone(), result.disposition.clone());
                    *state
                        .charges
                        .entry(frame.epoch)
                        .or_default()
                        .entry(result.tenant.clone())
                        .or_insert(0.0) += result.em_seconds_charged;
                    state.completed.insert(frame.job_id.clone(), result);
                    self.telemetry.incr(Counter::DaemonJobsReplayed);
                }
            }
        }
        // Epochs whose every job finished are done — only their charges
        // remain relevant.
        let done: Vec<u64> = state
            .epochs
            .iter()
            .filter(|(_, specs)| specs.iter().all(|s| state.completed.contains_key(&s.id)))
            .map(|(&e, _)| e)
            .collect();
        for e in &done {
            state.epochs.remove(e);
        }
        let jobs_replayed = state.completed.len() as u64;
        let jobs_resumed = state
            .epochs
            .values()
            .flatten()
            .filter(|s| !state.completed.contains_key(&s.id))
            .count() as u64;
        Ok(RecoveryReport {
            epochs_pending: state.epochs.len() as u64,
            jobs_replayed,
            jobs_resumed,
        })
    }

    /// Handles one request against current state. Submissions are
    /// validated individually — a refused or malformed request never
    /// touches queued or running neighbors.
    pub fn handle_request(&self, request: Request) -> Response {
        self.telemetry.incr(Counter::DaemonRequests);
        match request {
            Request::Submit(spec) => self.submit(spec),
            Request::Cancel(id) => self.cancel(&id),
            Request::Status(id) => self.status(id.as_deref()),
            Request::Report => self.report(),
            Request::Shutdown => {
                self.request_shutdown();
                Response::ok(vec![(
                    "shutdown".to_string(),
                    Value::Str("draining".to_string()),
                )])
            }
        }
    }

    /// Parses and handles one raw request line.
    pub fn handle_line(&self, line: &str) -> Response {
        match Request::parse(line) {
            Ok(request) => self.handle_request(request),
            Err(error) => {
                self.telemetry.incr(Counter::DaemonRequests);
                error
            }
        }
    }

    fn submit(&self, mut spec: JobSpec) -> Response {
        if spec.task_id().is_none() {
            return Response::error(
                "unknown_task",
                format!("job '{}': unknown task '{}'", spec.id, spec.task),
            );
        }
        if spec.param_space().is_none() {
            return Response::error(
                "unknown_space",
                format!("job '{}': unknown space '{}'", spec.id, spec.space),
            );
        }
        let mut state = self.lock_state();
        if spec.id.is_empty() {
            // The first `job-N` not already known: journaled and explicit
            // ids are skipped, and a refused submission leaves its name free.
            while state
                .job_epoch
                .contains_key(&format!("job-{}", state.auto_id))
            {
                state.auto_id += 1;
            }
            spec.id = format!("job-{}", state.auto_id);
        }
        if state.job_epoch.contains_key(&spec.id) {
            return Response::error(
                "duplicate_id",
                format!("job id '{}' already known", spec.id),
            );
        }
        // Rolling quota: charged EM seconds of this tenant over the
        // window ending at the accumulating epoch.
        if self.config.quota_em_seconds > 0.0 {
            let window_start = state
                .next_epoch
                .saturating_sub(self.config.quota_window_epochs.saturating_sub(1));
            let charged: f64 = state
                .charges
                .range(window_start..)
                .filter_map(|(_, by_tenant)| by_tenant.get(&spec.tenant))
                .sum();
            if charged >= self.config.quota_em_seconds {
                self.telemetry.incr(Counter::QuotaRefusals);
                return Response::error(
                    "quota_exceeded",
                    format!(
                        "tenant '{}' charged {:.3} EM seconds over the last {} epochs \
                         (quota {:.3})",
                        spec.tenant,
                        charged,
                        self.config.quota_window_epochs,
                        self.config.quota_em_seconds
                    ),
                );
            }
        }
        let epoch = state.next_epoch;
        let id = spec.id.clone();
        state.job_epoch.insert(id.clone(), epoch);
        state.phase.insert(id.clone(), "queued".to_string());
        state.tokens.insert(id.clone(), RunControl::none());
        if let Some(store) = &self.store {
            store.append_job(&JobRecord {
                epoch,
                state: JobState::Submitted,
                job_id: id.clone(),
                payload: spec.to_value(),
            });
        }
        state.epochs.entry(epoch).or_default().push(spec);
        self.telemetry.incr(Counter::DaemonJobsSubmitted);
        self.flush_journal_if_idle(&mut state);
        drop(state);
        self.wake.notify_all();
        Response::ok(vec![
            ("id".to_string(), Value::Str(id)),
            ("epoch".to_string(), Value::Num(epoch as f64)),
        ])
    }

    /// Flushes pending journal frames when no epoch is executing. While
    /// one *is* executing, a flush here could persist a running wave's
    /// partial evaluations — which a post-crash re-run would see as cache
    /// hits, breaking replay bit-identity — so the frames stay pending
    /// until the scheduler's next safe point (wave boundary or epoch end).
    fn flush_journal_if_idle(&self, state: &mut DaemonState) {
        if state.executing {
            return;
        }
        if let Some(store) = &self.store {
            if let Err(e) = store.flush() {
                eprintln!("daemon: journal flush: {e}");
            }
        }
    }

    /// Sets the shutdown flag and wakes everything that waits for work:
    /// the idle scheduler (to drain and exit) and a blocking `accept` in
    /// [`Daemon::serve`] (to stop taking connections).
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Taking the lock orders the flag before the scheduler's next
        // predicate check, so the notification cannot be lost.
        drop(self.lock_state());
        self.wake.notify_all();
        // One wake-up is enough: `accept` re-checks the flag on return.
        let addr = self
            .listen_addr
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(addr) = addr {
            if let Err(e) = TcpStream::connect(addr) {
                eprintln!("daemon: waking the listener at {addr}: {e}");
            }
        }
    }

    /// Blocks the idle scheduler until a submission lands in an epoch or
    /// shutdown is requested.
    fn wait_for_work(&self) {
        let state = self.lock_state();
        let _state = self
            .wake
            .wait_while(state, |s| s.epochs.is_empty() && !self.shutdown_requested())
            .unwrap_or_else(PoisonError::into_inner);
    }

    fn cancel(&self, id: &str) -> Response {
        let state = self.lock_state();
        let Some(token) = state.tokens.get(id) else {
            return Response::error("not_found", format!("no job '{id}'"));
        };
        if state.completed.contains_key(id) {
            return Response::ok(vec![
                ("id".to_string(), Value::Str(id.to_string())),
                (
                    "status".to_string(),
                    Value::Str("already_finished".to_string()),
                ),
            ]);
        }
        token.cancel();
        self.telemetry.incr(Counter::DaemonJobsCancelled);
        Response::ok(vec![
            ("id".to_string(), Value::Str(id.to_string())),
            ("status".to_string(), Value::Str("cancelling".to_string())),
        ])
    }

    fn status(&self, id: Option<&str>) -> Response {
        let state = self.lock_state();
        match id {
            Some(id) => {
                let Some(&epoch) = state.job_epoch.get(id) else {
                    return Response::error("not_found", format!("no job '{id}'"));
                };
                let phase = state.phase.get(id).cloned().unwrap_or_default();
                let mut fields = vec![
                    ("id".to_string(), Value::Str(id.to_string())),
                    ("epoch".to_string(), Value::Num(epoch as f64)),
                    ("phase".to_string(), Value::Str(phase)),
                ];
                if let Some(result) = state.completed.get(id) {
                    fields.push((
                        "disposition".to_string(),
                        Value::Str(result.disposition.clone()),
                    ));
                    fields.push(("success".to_string(), Value::Bool(result.success)));
                    fields.push((
                        "em_seconds_charged".to_string(),
                        Value::Num(result.em_seconds_charged),
                    ));
                    fields.push((
                        "candidates".to_string(),
                        Value::Num(result.candidates.len() as f64),
                    ));
                }
                Response::ok(fields)
            }
            None => {
                let queued = state.phase.values().filter(|p| *p == "queued").count();
                let running = state.phase.values().filter(|p| *p == "running").count();
                Response::ok(vec![
                    ("epoch".to_string(), Value::Num(state.next_epoch as f64)),
                    (
                        "pending_epochs".to_string(),
                        Value::Num(state.epochs.len() as f64),
                    ),
                    ("executing".to_string(), Value::Bool(state.executing)),
                    ("queued".to_string(), Value::Num(queued as f64)),
                    ("running".to_string(), Value::Num(running as f64)),
                    (
                        "finished".to_string(),
                        Value::Num(state.completed.len() as f64),
                    ),
                ])
            }
        }
    }

    fn report(&self) -> Response {
        let state = self.lock_state();
        let reports: Vec<isop_telemetry::RunReport> =
            state.completed.values().map(|r| r.report.clone()).collect();
        drop(state);
        let rows = aggregate_by_tenant(&reports);
        Response::ok(vec![("tenants".to_string(), rows.to_value())])
    }

    /// Freezes and executes the lowest pending epoch, if any. Requests
    /// arriving while it runs accumulate into later epochs. Returns the
    /// epoch number and its engine report, or `None` when nothing is
    /// pending.
    ///
    /// # Errors
    ///
    /// Returns a message when the engine fails (store flush error); the
    /// epoch's unfinished jobs then report phase `failed`, and the journal
    /// still holds every affected job for the next recovery.
    pub fn run_next_epoch(&self) -> Result<Option<(u64, EngineReport)>, String> {
        let (epoch, specs, controls) = {
            let mut state = self.lock_state();
            let Some((&epoch, _)) = state.epochs.iter().next() else {
                // Idle safe point: persist any journal frames that arrived
                // during the previous epoch's execution.
                self.flush_journal_if_idle(&mut state);
                return Ok(None);
            };
            let specs = state.epochs.remove(&epoch).expect("key from iter");
            if epoch == state.next_epoch {
                state.next_epoch += 1;
            }
            state.executing = true;
            let mut controls = JobControls::default();
            for spec in &specs {
                if let Some(done) = state.completed.get(&spec.id) {
                    controls.completed.insert(spec.id.clone(), done.clone());
                    continue;
                }
                let token = state.tokens.get(&spec.id).cloned().unwrap_or_default();
                controls.tokens.insert(spec.id.clone(), token);
                state.phase.insert(spec.id.clone(), "running".to_string());
                if let Some(store) = &self.store {
                    store.append_job(&JobRecord {
                        epoch,
                        state: JobState::Started,
                        job_id: spec.id.clone(),
                        payload: Value::Null,
                    });
                }
            }
            // Epoch-freeze safe point: no wave is running, so the flush
            // persists exactly whole-epoch history plus these frames.
            if let Some(store) = &self.store {
                if let Err(e) = store.flush() {
                    Self::fail_running_jobs(&mut state);
                    return Err(format!(
                        "daemon: journal flush at epoch {epoch} freeze: {e}"
                    ));
                }
            }
            (epoch, specs, controls)
        };

        let mut engine =
            Engine::new(self.config.engine.clone()).with_telemetry(self.telemetry.clone());
        if let Some(store) = &self.store {
            engine = engine.with_store(Arc::clone(store));
        }
        let queue = JobQueue::from_specs(specs);
        let run = engine.run_with(&queue, Some(&controls), |wave, fresh| {
            // Wave-boundary safe point: the engine flushed this wave's
            // evaluations just before calling us, so journaling +
            // flushing the Finished frames here guarantees the invariant
            // "evals on disk => Finished frame on disk" that makes a
            // post-crash re-run charge-identical.
            let mut state = self.lock_state();
            for result in fresh {
                if result.disposition == "deadline_expired" {
                    self.telemetry.incr(Counter::DaemonJobsExpired);
                }
                state
                    .phase
                    .insert(result.id.clone(), result.disposition.clone());
                *state
                    .charges
                    .entry(epoch)
                    .or_default()
                    .entry(result.tenant.clone())
                    .or_insert(0.0) += result.em_seconds_charged;
                if let Some(store) = &self.store {
                    store.append_job(&JobRecord {
                        epoch,
                        state: JobState::Finished,
                        job_id: result.id.clone(),
                        payload: result.to_value(),
                    });
                }
                state.completed.insert(result.id.clone(), result.clone());
            }
            if let Some(store) = &self.store {
                store
                    .flush()
                    .map_err(|e| format!("daemon: journal flush in epoch {epoch}: {e}"))?;
            }
            let chaos = self.config.chaos_crash_after_waves;
            if chaos != 0 && (wave as u64) + 1 >= chaos {
                return Err(format!(
                    "chaos: simulated crash after wave {wave} of epoch {epoch}"
                ));
            }
            Ok(())
        });
        let mut state = self.lock_state();
        state.executing = false;
        match run {
            Ok(report) => {
                self.telemetry.incr(Counter::DaemonEpochs);
                // Persist submissions that streamed in mid-epoch.
                self.flush_journal_if_idle(&mut state);
                Ok(Some((epoch, report)))
            }
            Err(e) => {
                Self::fail_running_jobs(&mut state);
                Err(e)
            }
        }
    }

    /// Marks every job of the failed epoch that has no result `failed`, so
    /// `status` stops reporting it as running. Only one epoch executes at a
    /// time, so those are exactly the jobs still in phase `running`. The
    /// journal is left as it is: a restart replays them.
    fn fail_running_jobs(state: &mut DaemonState) {
        state.executing = false;
        for phase in state.phase.values_mut() {
            if phase == "running" {
                *phase = "failed".to_string();
            }
        }
    }

    /// Serves requests on `listener` until a `shutdown` request drains the
    /// queue: a scheduler thread executes epochs as they accumulate while
    /// connection threads stream NDJSON requests/responses. Nothing polls:
    /// the scheduler sleeps until a submission or the shutdown wakes it,
    /// and the listener blocks in `accept` until a client connects or the
    /// shutdown connects to it.
    ///
    /// # Errors
    ///
    /// Returns the listener's set-up I/O error. Epoch errors and a failing
    /// `accept` are reported on stderr; the latter also drains and stops
    /// the daemon.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(false)?;
        let mut addr = listener.local_addr()?;
        if addr.ip().is_unspecified() {
            let loopback = if addr.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            };
            addr.set_ip(loopback);
        }
        *self
            .listen_addr
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(addr);
        std::thread::scope(|scope| {
            let daemon = Arc::clone(self);
            scope.spawn(move || loop {
                match daemon.run_next_epoch() {
                    Ok(Some(_)) => {}
                    Ok(None) => {
                        if daemon.shutdown_requested() {
                            break;
                        }
                        daemon.wait_for_work();
                    }
                    Err(e) => eprintln!("daemon: epoch failed: {e}"),
                }
            });
            // A shutdown requested after this check connects to the
            // listener, so `accept` returns and the next check sees it.
            while !self.shutdown_requested() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if self.shutdown_requested() {
                            break;
                        }
                        let daemon = Arc::clone(self);
                        scope.spawn(move || daemon.handle_connection(stream));
                    }
                    Err(e) => {
                        // No client can reach the daemon any more: drain
                        // what is queued and exit rather than idle forever.
                        eprintln!("daemon: accept: {e}");
                        self.request_shutdown();
                        break;
                    }
                }
            }
        });
        Ok(())
    }

    /// One NDJSON connection: request line in, response line out. A line
    /// longer than [`MAX_REQUEST_LINE_BYTES`] is answered with a typed
    /// `line_too_long` error and the connection is closed, so a client that
    /// never sends a newline cannot grow the daemon's memory. A line that
    /// is not UTF-8 gets a typed `bad_request` and the connection stays
    /// open.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reply = |response: Response| {
            let mut out = response.to_json_line();
            out.push('\n');
            writer.write_all(out.as_bytes())
        };
        let mut reader = BufReader::new(stream);
        let mut line: Vec<u8> = Vec::new();
        loop {
            // Room for one byte past the cap, so an over-long line shows
            // as a full buffer without a newline.
            let room = (MAX_REQUEST_LINE_BYTES + 1 - line.len()) as u64;
            match (&mut reader).take(room).read_until(b'\n', &mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if line.last() != Some(&b'\n') && line.len() > MAX_REQUEST_LINE_BYTES {
                        let _ = reply(Response::error(
                            "line_too_long",
                            format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                        ));
                        break;
                    }
                    let response = match std::str::from_utf8(&line) {
                        Ok(text) if text.trim().is_empty() => None,
                        Ok(text) => Some(self.handle_line(text.trim())),
                        Err(_) => Some(Response::error("bad_request", "request line is not UTF-8")),
                    };
                    if response.is_some_and(|r| reply(r).is_err()) {
                        break;
                    }
                    line.clear();
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Partial lines survive in `line`; just poll shutdown.
                    if self.shutdown_requested() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use isop_hpo::harmonica::HarmonicaConfig;
    use isop_hpo::hyperband::HyperbandConfig;

    fn tiny_engine() -> EngineConfig {
        EngineConfig {
            cores: 2,
            wave_slots: 2,
            pipeline: crate::pipeline::IsopConfig {
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
                ..crate::pipeline::IsopConfig::default()
            },
        }
    }

    fn submit_line(id: &str, tenant: &str, seed: u64) -> String {
        format!(
            r#"{{"op":"submit","job":{{"id":"{id}","tenant":"{tenant}","seed":{seed},"threads":1}}}}"#
        )
    }

    /// `serve` polls nothing: a submission wakes the idle scheduler, and
    /// a shutdown both drains it and wakes the blocking `accept`, so the
    /// call returns once the job has finished.
    #[test]
    fn serve_wakes_on_submit_and_returns_on_shutdown() {
        let daemon = Arc::new(Daemon::new(DaemonConfig {
            engine: tiny_engine(),
            ..DaemonConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound address");
        let server = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve(listener))
        };
        let stream = TcpStream::connect(addr).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut writer = stream;
        let mut ask = |line: &str| {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("writes");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            reply
        };
        assert!(ask(&submit_line("a", "acme", 1)).contains(r#""ok":true"#));
        while !ask(r#"{"op":"status","id":"a"}"#).contains("disposition") {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ask(r#"{"op":"shutdown"}"#).contains("draining"));
        server
            .join()
            .expect("serve thread")
            .expect("serve returns Ok");
        assert!(daemon.shutdown_requested());
        assert_eq!(daemon.pending_epochs(), 0, "drained");
    }

    /// A client that sends more than [`MAX_REQUEST_LINE_BYTES`] without a
    /// newline gets a typed `line_too_long` refusal and a closed
    /// connection; the daemon keeps serving new connections.
    #[test]
    fn over_long_request_line_is_refused_and_the_daemon_keeps_serving() {
        let daemon = Arc::new(Daemon::new(DaemonConfig {
            engine: tiny_engine(),
            ..DaemonConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound address");
        let server = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve(listener))
        };
        let ask = |line: &[u8]| {
            let mut stream = TcpStream::connect(addr).expect("connects");
            stream.write_all(line).expect("writes");
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            let mut rest = String::new();
            (reply, reader.read_line(&mut rest))
        };

        let (reply, after) = ask(&vec![b'x'; MAX_REQUEST_LINE_BYTES + 1]);
        assert!(reply.contains(r#""ok":false"#), "{reply}");
        assert!(reply.contains(r#""error":"line_too_long""#), "{reply}");
        assert_eq!(after.expect("clean close"), 0, "connection closed");

        let (reply, _) = ask(b"{\"op\":\"status\"}\n{\"op\":\"shutdown\"}\n");
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        server
            .join()
            .expect("serve thread")
            .expect("serve returns Ok");
    }

    #[test]
    fn non_utf8_request_line_is_refused_and_the_connection_keeps_serving() {
        let daemon = Arc::new(Daemon::new(DaemonConfig {
            engine: tiny_engine(),
            ..DaemonConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound address");
        let server = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve(listener))
        };
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all(b"\xff\xfe\n{\"op\":\"status\"}\n")
            .expect("writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let mut first = String::new();
        reader.read_line(&mut first).expect("reads the refusal");
        assert!(first.contains(r#""ok":false"#), "{first}");
        assert!(first.contains(r#""error":"bad_request""#), "{first}");
        let mut second = String::new();
        reader.read_line(&mut second).expect("reads the status");
        assert!(second.contains(r#""ok":true"#), "{second}");

        stream
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .expect("writes");
        let mut third = String::new();
        reader
            .read_line(&mut third)
            .expect("reads the shutdown ack");
        drop((reader, stream));
        server
            .join()
            .expect("serve thread")
            .expect("serve returns Ok");
    }

    #[test]
    fn protocol_parses_and_types_errors() {
        assert_eq!(
            Request::parse(r#"{"op":"report"}"#).unwrap(),
            Request::Report
        );
        assert_eq!(
            Request::parse(r#"{"op":"cancel","id":"a"}"#).unwrap(),
            Request::Cancel("a".to_string())
        );
        assert_eq!(
            Request::parse(r#"{"op":"status"}"#).unwrap(),
            Request::Status(None)
        );
        for bad in [
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","job":{"seed":"NaN-ish"}}"#,
        ] {
            let err = Request::parse(bad).expect_err(bad);
            assert_eq!(err.error_kind(), Some("bad_request"), "{bad}");
        }
        let ok = Response::ok(vec![("id".to_string(), Value::Str("a".to_string()))]);
        assert_eq!(ok.to_json_line(), r#"{"ok":true,"id":"a"}"#);
    }

    #[test]
    fn submission_validation_is_per_request() {
        let daemon = Daemon::new(DaemonConfig {
            engine: tiny_engine(),
            ..DaemonConfig::default()
        });
        let ok = daemon.handle_line(&submit_line("a", "acme", 1));
        assert_eq!(ok.error_kind(), None);
        // Duplicate, unknown task, unknown space: each refused with its
        // own kind, and the queued job is untouched.
        let dup = daemon.handle_line(&submit_line("a", "acme", 2));
        assert_eq!(dup.error_kind(), Some("duplicate_id"));
        let task = daemon.handle_line(r#"{"op":"submit","job":{"id":"b","task":"t9"}}"#);
        assert_eq!(task.error_kind(), Some("unknown_task"));
        let space = daemon.handle_line(r#"{"op":"submit","job":{"id":"c","space":"mars"}}"#);
        assert_eq!(space.error_kind(), Some("unknown_space"));
        let garbage = daemon.handle_line("}{");
        assert_eq!(garbage.error_kind(), Some("bad_request"));
        assert_eq!(daemon.pending_epochs(), 1);
        let status = daemon.handle_request(Request::Status(Some("a".to_string())));
        let Response::Ok(fields) = &status else {
            panic!("status failed: {status:?}")
        };
        assert_eq!(
            Value::field(fields, "phase").as_str(),
            Some("queued"),
            "refusals must not touch the queued job"
        );
        assert_eq!(
            daemon
                .handle_request(Request::Status(Some("zzz".to_string())))
                .error_kind(),
            Some("not_found")
        );
    }

    #[test]
    fn quota_refuses_over_budget_tenants_and_relaxes_as_the_window_slides() {
        let daemon = Daemon::new(DaemonConfig {
            engine: tiny_engine(),
            quota_em_seconds: 5.0,
            quota_window_epochs: 2,
            ..DaemonConfig::default()
        });
        // Seed the ledger directly: tenant 'hog' charged 9.0 in epoch 0.
        {
            let mut state = daemon.lock_state();
            state
                .charges
                .entry(0)
                .or_default()
                .insert("hog".to_string(), 9.0);
            state.next_epoch = 1;
        }
        let refused = daemon.handle_line(&submit_line("h1", "hog", 1));
        assert_eq!(refused.error_kind(), Some("quota_exceeded"));
        // A different tenant is unaffected.
        let ok = daemon.handle_line(&submit_line("l1", "light", 1));
        assert_eq!(ok.error_kind(), None);
        // Two epochs later the window has slid past epoch 0.
        daemon.lock_state().next_epoch = 2;
        let ok_again = daemon.handle_line(&submit_line("h2", "hog", 2));
        assert_eq!(ok_again.error_kind(), None);
    }
}
