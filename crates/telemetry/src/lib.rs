//! # isop-telemetry — structured observability for the ISOP+ pipeline
//!
//! The optimizer's three stages (Harmonica global search, Adam local
//! refinement, EM roll-out) are ranked in the paper by their *evaluation
//! budget*: how many surrogate inferences, Lasso solves, and — above all —
//! charged EM-simulator seconds a run consumes. This crate gives those
//! quantities a first-class, thread-safe collection surface:
//!
//! * [`Telemetry`] — a cheap clonable handle. A *disabled* handle (the
//!   default) carries no allocation and every recording call is a single
//!   branch on `Option`, so instrumented code paths cost nothing in
//!   production runs that don't ask for a report.
//! * [`Counter`] — the typed counters the paper's tables account by:
//!   EM simulations attempted/succeeded/failed, surrogate `predict` /
//!   `predict_batch` calls and batch rows, Harmonica Lasso solves,
//!   Hyperband rung promotions/prunes, Adam refinement steps. Counter
//!   increments are commutative `u64` additions, so totals are
//!   **bit-identical at any worker-thread count** even though the
//!   pipeline's parallel sections interleave arbitrarily.
//! * [`span!`] / [`Telemetry::span`] — RAII wall-clock spans aggregated
//!   per label (count / total / min / max). Timings are real wall-clock
//!   and therefore *not* deterministic; consumers that diff runs (the CI
//!   bench gate) compare counters exactly and timings with a margin.
//! * [`RunReport`] — the machine-readable snapshot serialized to
//!   `results/run_report.json` by `isop --report` and to `BENCH_ci.json`
//!   by the CI bench-smoke job, via the vendored `serde_json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Typed counters for the quantities the paper ranks methods by.
///
/// Each variant maps to a stable dotted label (see [`Counter::name`]) used
/// in [`RunReport`] JSON and in the CI threshold file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// EM simulations attempted (valid or not).
    EmSimAttempted,
    /// EM simulations that produced a result.
    EmSimSucceeded,
    /// EM simulations rejected (invalid geometry).
    EmSimFailed,
    /// EM wall-clock batches charged at roll-out (batches of up to three
    /// parallel runs, each costing one `nominal_seconds()`).
    EmBatchesCharged,
    /// Single-design surrogate `predict` calls (a fused value-and-gradient
    /// call counts one).
    SurrogatePredict,
    /// Surrogate `predict_batch` calls.
    SurrogatePredictBatch,
    /// Total rows across all `predict_batch` calls.
    SurrogatePredictBatchRows,
    /// Single-design surrogate input-Jacobian or input-gradient (VJP)
    /// evaluations; a fused value-and-gradient call counts one.
    SurrogateJacobian,
    /// Surrogate `jacobian_batch` calls.
    SurrogateJacobianBatch,
    /// Total rows across all `jacobian_batch` calls.
    SurrogateJacobianBatchRows,
    /// Harmonica PSR Lasso solves.
    HarmonicaLassoSolves,
    /// Harmonica restriction stages completed.
    HarmonicaStages,
    /// Configurations promoted to the next Hyperband rung.
    HyperbandPromotions,
    /// Configurations pruned at a Hyperband rung.
    HyperbandPrunes,
    /// Adam refinement steps taken in the local stage.
    AdamSteps,
    /// Roll-out designs served from the deterministic EM-result cache
    /// (the simulation was elided; its counters are replayed and its
    /// wall-clock lands in the seconds-saved ledger).
    EmCacheHits,
    /// Roll-out designs the EM-result cache could not serve. A *disabled*
    /// cache counts every probe as a miss, so the bench gate catches a
    /// cache outage as a miss-count regression.
    EmCacheMisses,
    /// Reserved; always 0. It counted hits of a surrogate-prediction memo
    /// that no longer exists. The label keeps its place so every report
    /// has the same counter set and journaled reports keep their size.
    SurrogateMemoHits,
    /// Reserved; always 0, like [`Counter::SurrogateMemoHits`]. perfbench
    /// still reads this label.
    SurrogateMemoMisses,
    /// Work units dispatched to the data-parallel training engine: minibatch
    /// gradient chunks (MLP/CNN), bootstrap trees (forest), and
    /// boosting-stage row chunks. Deterministic for a fixed config —
    /// chunk boundaries never depend on the thread count.
    TrainChunks,
    /// Roll-out retry attempts: EM simulations re-issued after a
    /// *transient* failure (license contention, mesh non-convergence,
    /// timeout). Deterministic for a fixed fault seed at any thread width;
    /// cache hits bypass the retry path and never tick this.
    EmRetries,
    /// Transient EM failure events observed at roll-out (each one either
    /// precedes a retry or exhausts the retry budget).
    EmFailuresTransient,
    /// Roll-out designs abandoned for good: a permanent simulator failure
    /// (invalid geometry or an unsolvable mesh) or an exhausted retry
    /// budget. Each one makes the roll-out draw a top-up candidate when
    /// the surrogate-ranked pool still has one.
    EmFailuresPermanent,
    /// Backup designs drawn from the surplus surrogate-ranked pool after a
    /// permanent roll-out failure, so the accurate simulator still sees
    /// `cand_num` successful evaluations whenever the pool allows.
    EmToppedUp,
    /// Live EM batches formed by the async roll-out scheduler (batches that
    /// actually ran fresh simulations; cache-hit replays never tick this).
    EmSchedBatches,
    /// Unused slots across all live scheduler batches: a batch of 3 with
    /// only 2 flights ready contributes one slack slot.
    EmSchedSlackSlots,
    /// Persistent-store shard files read from disk (each shard is loaded
    /// lazily at most once per process, on the first probe that hashes to
    /// it).
    StoreShardLoads,
    /// Valid records parsed from persistent-store shards.
    StoreRecordsLoaded,
    /// Records appended to the persistent store and flushed to disk.
    StoreRecordsWritten,
    /// Corrupt persistent-store records skipped at load: a checksum
    /// mismatch costs the one record, a torn tail costs only the tail —
    /// never the run.
    StoreRecordsSkipped,
    /// Evaluation-cache hits served from a persistent-store record written
    /// by a *previous* process — the cross-run reuse the store exists for.
    StoreCrossJobHits,
    /// Surrogate models served from the persistent registry instead of
    /// retrained (each one elides every `ml.fit.*` span of that model).
    StoreModelHits,
    /// Registry probes that fell through to a cold fit (the fitted model
    /// is then recorded for future runs).
    StoreModelMisses,
    /// Jobs the multi-job engine ran to completion (every admitted job
    /// completes — a degraded or failed roll-out still counts, its
    /// resolution lands in the per-job report).
    EngineJobsCompleted,
    /// Admission waves the engine executed. Wave composition is a pure
    /// function of the queue and the fairness weights, so this is exact at
    /// any core-permit width.
    EngineWaves,
    /// Streaming-admission epochs the daemon executed (each epoch freezes
    /// its queue, then runs it through the engine verbatim).
    DaemonEpochs,
    /// Requests the daemon parsed off its socket (well-formed or not).
    DaemonRequests,
    /// Job submissions the daemon admitted into an epoch queue.
    DaemonJobsSubmitted,
    /// Jobs resolved as `cancelled` — withdrawn before their wave ran.
    DaemonJobsCancelled,
    /// Jobs resolved as `deadline_expired` at a wave-admission or stage
    /// boundary.
    DaemonJobsExpired,
    /// Finished jobs replayed verbatim from the journal after a restart
    /// (their results are never recomputed).
    DaemonJobsReplayed,
    /// Submissions refused because the tenant's rolling charged-EM-seconds
    /// budget was exhausted.
    QuotaRefusals,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 42] = [
        Counter::EmSimAttempted,
        Counter::EmSimSucceeded,
        Counter::EmSimFailed,
        Counter::EmBatchesCharged,
        Counter::SurrogatePredict,
        Counter::SurrogatePredictBatch,
        Counter::SurrogatePredictBatchRows,
        Counter::SurrogateJacobian,
        Counter::SurrogateJacobianBatch,
        Counter::SurrogateJacobianBatchRows,
        Counter::HarmonicaLassoSolves,
        Counter::HarmonicaStages,
        Counter::HyperbandPromotions,
        Counter::HyperbandPrunes,
        Counter::AdamSteps,
        Counter::EmCacheHits,
        Counter::EmCacheMisses,
        Counter::SurrogateMemoHits,
        Counter::SurrogateMemoMisses,
        Counter::TrainChunks,
        Counter::EmRetries,
        Counter::EmFailuresTransient,
        Counter::EmFailuresPermanent,
        Counter::EmToppedUp,
        Counter::EmSchedBatches,
        Counter::EmSchedSlackSlots,
        Counter::StoreShardLoads,
        Counter::StoreRecordsLoaded,
        Counter::StoreRecordsWritten,
        Counter::StoreRecordsSkipped,
        Counter::StoreCrossJobHits,
        Counter::StoreModelHits,
        Counter::StoreModelMisses,
        Counter::EngineJobsCompleted,
        Counter::EngineWaves,
        Counter::DaemonEpochs,
        Counter::DaemonRequests,
        Counter::DaemonJobsSubmitted,
        Counter::DaemonJobsCancelled,
        Counter::DaemonJobsExpired,
        Counter::DaemonJobsReplayed,
        Counter::QuotaRefusals,
    ];

    /// Stable dotted label used in reports and threshold files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::EmSimAttempted => "em.sim.attempted",
            Counter::EmSimSucceeded => "em.sim.succeeded",
            Counter::EmSimFailed => "em.sim.failed",
            Counter::EmBatchesCharged => "em.batches_charged",
            Counter::SurrogatePredict => "surrogate.predict",
            Counter::SurrogatePredictBatch => "surrogate.predict_batch",
            Counter::SurrogatePredictBatchRows => "surrogate.predict_batch_rows",
            Counter::SurrogateJacobian => "surrogate.jacobian",
            Counter::SurrogateJacobianBatch => "surrogate.jacobian_batch",
            Counter::SurrogateJacobianBatchRows => "surrogate.jacobian_batch_rows",
            Counter::HarmonicaLassoSolves => "harmonica.lasso_solves",
            Counter::HarmonicaStages => "harmonica.stages",
            Counter::HyperbandPromotions => "hyperband.promotions",
            Counter::HyperbandPrunes => "hyperband.prunes",
            Counter::AdamSteps => "adam.steps",
            Counter::EmCacheHits => "em.cache.hits",
            Counter::EmCacheMisses => "em.cache.misses",
            Counter::SurrogateMemoHits => "surrogate.memo_hits",
            Counter::SurrogateMemoMisses => "surrogate.memo_misses",
            Counter::TrainChunks => "train.chunks",
            Counter::EmRetries => "em.retries",
            Counter::EmFailuresTransient => "em.failures_transient",
            Counter::EmFailuresPermanent => "em.failures_permanent",
            Counter::EmToppedUp => "em.topped_up",
            Counter::EmSchedBatches => "em.sched.batches",
            Counter::EmSchedSlackSlots => "em.sched.slack_slots",
            Counter::StoreShardLoads => "store.shard_loads",
            Counter::StoreRecordsLoaded => "store.records_loaded",
            Counter::StoreRecordsWritten => "store.records_written",
            Counter::StoreRecordsSkipped => "store.records_skipped",
            Counter::StoreCrossJobHits => "store.cross_job_hits",
            Counter::StoreModelHits => "store.model_hits",
            Counter::StoreModelMisses => "store.model_misses",
            Counter::EngineJobsCompleted => "engine.jobs_completed",
            Counter::EngineWaves => "engine.waves",
            Counter::DaemonEpochs => "daemon.epochs",
            Counter::DaemonRequests => "daemon.requests",
            Counter::DaemonJobsSubmitted => "daemon.submitted",
            Counter::DaemonJobsCancelled => "daemon.cancelled",
            Counter::DaemonJobsExpired => "daemon.expired",
            Counter::DaemonJobsReplayed => "daemon.replayed",
            Counter::QuotaRefusals => "quota.refusals",
        }
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every counter is listed in ALL")
    }
}

/// Aggregated wall-clock statistics for one span label.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SpanStat {
    count: u64,
    total_seconds: f64,
    min_seconds: f64,
    max_seconds: f64,
}

impl SpanStat {
    fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.total_seconds += seconds;
        self.min_seconds = self.min_seconds.min(seconds);
        self.max_seconds = self.max_seconds.max(seconds);
    }

    fn new(seconds: f64) -> Self {
        Self {
            count: 1,
            total_seconds: seconds,
            min_seconds: seconds,
            max_seconds: seconds,
        }
    }
}

/// Shared collection state behind an enabled [`Telemetry`] handle.
#[derive(Debug)]
struct Inner {
    counters: [AtomicU64; Counter::ALL.len()],
    /// Charged EM seconds (the paper's headline cost). Written only from
    /// the serial accounting section of the pipeline, so plain f64
    /// accumulation under a mutex stays deterministic.
    em_seconds: Mutex<f64>,
    /// EM seconds the evaluation cache elided: batches whose every member
    /// was a cache hit land here instead of `em_seconds`. The two ledgers
    /// partition the same logical charge — `charged + saved` is invariant
    /// under toggling the cache.
    em_seconds_saved: Mutex<f64>,
    spans: Mutex<BTreeMap<&'static str, SpanStat>>,
}

impl Inner {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            em_seconds: Mutex::new(0.0),
            em_seconds_saved: Mutex::new(0.0),
            spans: Mutex::new(BTreeMap::new()),
        }
    }
}

/// A cheap clonable telemetry handle.
///
/// Clones share the same registry, so a handle can be cloned into worker
/// threads, the EM simulator, and the surrogate wrapper and all recordings
/// land in one place. The default handle is **disabled**: it holds no
/// allocation and every recording method returns after one branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A collecting handle.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::new())),
        }
    }

    /// A no-op handle (same as `Telemetry::default()`).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increments `counter` by one.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Increments `counter` by `n`.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of `counter` (0 when disabled).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counters[counter.index()].load(Ordering::Relaxed))
    }

    /// Adds `seconds` to the charged-EM-seconds ledger.
    pub fn charge_em_seconds(&self, seconds: f64) {
        if let Some(inner) = &self.inner {
            *inner
                .em_seconds
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) += seconds;
        }
    }

    /// Total charged EM seconds so far (0 when disabled).
    #[must_use]
    pub fn em_seconds(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| {
            *i.em_seconds
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
    }

    /// Adds `seconds` to the seconds-saved ledger: EM wall-clock that
    /// *would* have been charged had the evaluation cache not already held
    /// the result.
    pub fn save_em_seconds(&self, seconds: f64) {
        if let Some(inner) = &self.inner {
            *inner
                .em_seconds_saved
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) += seconds;
        }
    }

    /// Total EM seconds elided by cache hits so far (0 when disabled).
    #[must_use]
    pub fn em_seconds_saved(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| {
            *i.em_seconds_saved
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
    }

    /// Starts a wall-clock span; elapsed time is recorded under `label`
    /// when the returned guard drops. On a disabled handle the guard is
    /// inert and the clock is never read.
    #[must_use = "binding the guard to `_` drops it immediately and records a zero-length span"]
    pub fn span(&self, label: &'static str) -> SpanGuard {
        SpanGuard {
            active: self
                .inner
                .as_ref()
                .map(|inner| (Arc::clone(inner), label, Instant::now())),
        }
    }

    /// Snapshot of everything recorded so far as a [`RunReport`] with
    /// neutral metadata; callers fill in the run-specific fields
    /// (task/space/seed/threads/outcome).
    #[must_use]
    pub fn run_report(&self) -> RunReport {
        let mut report = RunReport::empty();
        report.em_seconds_charged = self.em_seconds();
        report.em_seconds_saved = self.em_seconds_saved();
        report.counters = Counter::ALL
            .iter()
            .map(|&c| CounterEntry {
                name: c.name().to_string(),
                value: self.counter(c),
            })
            .collect();
        if let Some(inner) = &self.inner {
            let spans = inner
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            report.spans = spans
                .iter()
                .map(|(label, s)| SpanEntry {
                    name: (*label).to_string(),
                    count: s.count,
                    total_seconds: s.total_seconds,
                    min_seconds: s.min_seconds,
                    max_seconds: s.max_seconds,
                })
                .collect();
        }
        report
    }
}

/// RAII guard recording a wall-clock span on drop. Created by
/// [`Telemetry::span`] or the [`span!`] macro.
#[derive(Debug)]
#[must_use = "binding the guard to `_` drops it immediately and records a zero-length span"]
pub struct SpanGuard {
    active: Option<(Arc<Inner>, &'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, label, start)) = self.active.take() {
            let seconds = start.elapsed().as_secs_f64();
            // A panicking worker must not poison the whole registry: span
            // stats are self-consistent per entry, so recover the guard.
            let mut spans = inner
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            spans
                .entry(label)
                .and_modify(|s| s.record(seconds))
                .or_insert_with(|| SpanStat::new(seconds));
        }
    }
}

/// Opens a telemetry span: `let _guard = span!(tele, "harmonica.lasso");`.
///
/// Sugar over [`Telemetry::span`]; exists so instrumentation sites read as
/// declarations rather than method plumbing.
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $label:expr) => {
        $telemetry.span($label)
    };
}

// ---------------------------------------------------------------------------
// Machine-readable run report
// ---------------------------------------------------------------------------

/// One counter in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Stable dotted label (see [`Counter::name`]).
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// Aggregated statistics for one span label in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEntry {
    /// Span label (e.g. `"pipeline.rollout"`).
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Summed wall-clock, seconds.
    pub total_seconds: f64,
    /// Shortest single span, seconds.
    pub min_seconds: f64,
    /// Longest single span, seconds.
    pub max_seconds: f64,
}

/// The machine-readable outcome of an instrumented run: counters (exact,
/// deterministic at any thread width), per-label span timings (wall-clock),
/// charged EM seconds, and run metadata filled by the caller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report format version; bump on breaking layout changes.
    pub schema_version: u32,
    /// Task label (e.g. `"T1"`), empty when not applicable.
    pub task: String,
    /// Space label (e.g. `"s1"`), empty when not applicable.
    pub space: String,
    /// Job id the report belongs to (multi-job engine runs tag every
    /// per-job report), empty for standalone runs.
    pub job: String,
    /// Tenant the job was admitted under, empty for standalone runs. The
    /// `isop report --aggregate` dashboard folds reports by this field.
    pub tenant: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Worker-thread width the run used.
    pub threads: usize,
    /// Whether the best verified design satisfied every constraint.
    pub success: bool,
    /// How the EM roll-out resolved: `"full"` when every requested slot was
    /// filled by a successful simulation, `"degraded"` when permanent
    /// failures left the roll-out short of `cand_num` even after top-up,
    /// `"all_simulations_failed"` when no simulation succeeded at all, and
    /// empty when not applicable (non-pipeline reports).
    pub resolution: String,
    /// Valid surrogate samples consumed.
    pub samples_seen: u64,
    /// Invalid encodings encountered.
    pub invalid_seen: u64,
    /// Real algorithm wall-clock, seconds.
    pub algorithm_seconds: f64,
    /// Simulated EM wall-clock charged at roll-out, seconds.
    pub em_seconds_charged: f64,
    /// Simulated EM wall-clock elided by evaluation-cache hits, seconds.
    /// `em_seconds_charged + em_seconds_saved` is invariant under toggling
    /// the cache for a fixed seed.
    pub em_seconds_saved: f64,
    /// Every typed counter, in [`Counter::ALL`] order.
    pub counters: Vec<CounterEntry>,
    /// Per-label span statistics, sorted by label.
    pub spans: Vec<SpanEntry>,
}

impl RunReport {
    /// Current schema version. v4: per-job `job` / `tenant` tags and the
    /// `engine.*` counters.
    pub const SCHEMA_VERSION: u32 = 4;

    /// A report with zeroed metrics and empty metadata.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            schema_version: Self::SCHEMA_VERSION,
            task: String::new(),
            space: String::new(),
            job: String::new(),
            tenant: String::new(),
            seed: 0,
            threads: 1,
            success: false,
            resolution: String::new(),
            samples_seen: 0,
            invalid_seen: 0,
            algorithm_seconds: 0.0,
            em_seconds_charged: 0.0,
            em_seconds_saved: 0.0,
            counters: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Looks up a counter value by label (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Looks up a span entry by label.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanEntry> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Total recorded seconds for a span label (0 when absent) — the
    /// "stage timing" consumers read instead of re-measuring.
    #[must_use]
    pub fn span_seconds(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.total_seconds)
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (the vendored writer never fails).
    pub fn to_json(&self) -> Result<String, serde::json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<Self, serde::json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::disabled();
        tele.incr(Counter::SurrogatePredict);
        tele.add(Counter::AdamSteps, 50);
        tele.charge_em_seconds(15.0);
        {
            let _g = span!(tele, "noop");
        }
        assert!(!tele.is_enabled());
        assert_eq!(tele.counter(Counter::SurrogatePredict), 0);
        assert_eq!(tele.counter(Counter::AdamSteps), 0);
        assert_eq!(tele.em_seconds(), 0.0);
        let report = tele.run_report();
        assert!(report.spans.is_empty());
        assert!(report.counters.iter().all(|c| c.value == 0));
    }

    #[test]
    fn counters_accumulate_and_expose_names() {
        let tele = Telemetry::enabled();
        tele.incr(Counter::EmSimAttempted);
        tele.incr(Counter::EmSimAttempted);
        tele.add(Counter::SurrogatePredictBatchRows, 7);
        assert_eq!(tele.counter(Counter::EmSimAttempted), 2);
        let report = tele.run_report();
        assert_eq!(report.counter("em.sim.attempted"), 2);
        assert_eq!(report.counter("surrogate.predict_batch_rows"), 7);
        assert_eq!(report.counter("no.such.counter"), 0);
        assert_eq!(report.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn clones_share_one_registry() {
        let tele = Telemetry::enabled();
        let other = tele.clone();
        other.incr(Counter::HarmonicaLassoSolves);
        tele.incr(Counter::HarmonicaLassoSolves);
        assert_eq!(tele.counter(Counter::HarmonicaLassoSolves), 2);
    }

    #[test]
    fn spans_aggregate_count_total_min_max() {
        let tele = Telemetry::enabled();
        for _ in 0..3 {
            let _g = tele.span("work");
        }
        let report = tele.run_report();
        let s = report.span("work").expect("recorded");
        assert_eq!(s.count, 3);
        assert!(s.total_seconds >= 0.0);
        assert!(s.min_seconds <= s.max_seconds);
        assert!(s.total_seconds >= s.max_seconds);
        assert_eq!(report.span_seconds("work"), s.total_seconds);
        assert!(report.span("absent").is_none());
    }

    #[test]
    fn concurrent_span_and_counter_writers_are_safe() {
        let tele = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = tele.clone();
                scope.spawn(move || {
                    for _ in 0..250 {
                        let _g = t.span("worker");
                        t.incr(Counter::AdamSteps);
                    }
                });
            }
        });
        assert_eq!(tele.counter(Counter::AdamSteps), 1000);
        let report = tele.run_report();
        assert_eq!(report.span("worker").expect("recorded").count, 1000);
    }

    #[test]
    fn em_ledger_accumulates() {
        let tele = Telemetry::enabled();
        tele.charge_em_seconds(15.0);
        tele.charge_em_seconds(0.5);
        assert!((tele.em_seconds() - 15.5).abs() < 1e-12);
        assert!((tele.run_report().em_seconds_charged - 15.5).abs() < 1e-12);
    }

    #[test]
    fn saved_ledger_is_separate_from_charged() {
        let tele = Telemetry::enabled();
        tele.charge_em_seconds(15.0);
        tele.save_em_seconds(30.0);
        tele.save_em_seconds(15.0);
        assert!((tele.em_seconds() - 15.0).abs() < 1e-12);
        assert!((tele.em_seconds_saved() - 45.0).abs() < 1e-12);
        let report = tele.run_report();
        assert!((report.em_seconds_charged - 15.0).abs() < 1e-12);
        assert!((report.em_seconds_saved - 45.0).abs() < 1e-12);
        // Disabled handles ignore the saved ledger too.
        let off = Telemetry::disabled();
        off.save_em_seconds(1.0);
        assert_eq!(off.em_seconds_saved(), 0.0);
    }

    #[test]
    fn cache_counters_have_stable_labels() {
        assert_eq!(Counter::EmCacheHits.name(), "em.cache.hits");
        assert_eq!(Counter::EmCacheMisses.name(), "em.cache.misses");
        assert_eq!(Counter::SurrogateMemoHits.name(), "surrogate.memo_hits");
        assert_eq!(Counter::SurrogateMemoMisses.name(), "surrogate.memo_misses");
        let tele = Telemetry::enabled();
        tele.add(Counter::EmCacheHits, 3);
        tele.incr(Counter::EmCacheMisses);
        assert_eq!(tele.run_report().counter("em.cache.hits"), 3);
        assert_eq!(tele.run_report().counter("em.cache.misses"), 1);
    }

    #[test]
    fn fault_counters_have_stable_labels() {
        assert_eq!(Counter::EmRetries.name(), "em.retries");
        assert_eq!(Counter::EmFailuresTransient.name(), "em.failures_transient");
        assert_eq!(Counter::EmFailuresPermanent.name(), "em.failures_permanent");
        assert_eq!(Counter::EmToppedUp.name(), "em.topped_up");
        let tele = Telemetry::enabled();
        tele.add(Counter::EmRetries, 2);
        tele.incr(Counter::EmFailuresTransient);
        tele.incr(Counter::EmFailuresPermanent);
        tele.incr(Counter::EmToppedUp);
        let report = tele.run_report();
        assert_eq!(report.counter("em.retries"), 2);
        assert_eq!(report.counter("em.failures_transient"), 1);
        assert_eq!(report.counter("em.failures_permanent"), 1);
        assert_eq!(report.counter("em.topped_up"), 1);
    }

    #[test]
    fn scheduler_counters_have_stable_labels() {
        assert_eq!(Counter::EmSchedBatches.name(), "em.sched.batches");
        assert_eq!(Counter::EmSchedSlackSlots.name(), "em.sched.slack_slots");
        let tele = Telemetry::enabled();
        tele.add(Counter::EmSchedBatches, 4);
        tele.incr(Counter::EmSchedSlackSlots);
        let report = tele.run_report();
        assert_eq!(report.counter("em.sched.batches"), 4);
        assert_eq!(report.counter("em.sched.slack_slots"), 1);
    }

    #[test]
    fn store_counters_have_stable_labels() {
        assert_eq!(Counter::StoreShardLoads.name(), "store.shard_loads");
        assert_eq!(Counter::StoreRecordsLoaded.name(), "store.records_loaded");
        assert_eq!(Counter::StoreRecordsWritten.name(), "store.records_written");
        assert_eq!(Counter::StoreRecordsSkipped.name(), "store.records_skipped");
        assert_eq!(Counter::StoreCrossJobHits.name(), "store.cross_job_hits");
        assert_eq!(Counter::StoreModelHits.name(), "store.model_hits");
        assert_eq!(Counter::StoreModelMisses.name(), "store.model_misses");
        let tele = Telemetry::enabled();
        tele.incr(Counter::StoreShardLoads);
        tele.add(Counter::StoreRecordsLoaded, 5);
        tele.incr(Counter::StoreCrossJobHits);
        let report = tele.run_report();
        assert_eq!(report.counter("store.shard_loads"), 1);
        assert_eq!(report.counter("store.records_loaded"), 5);
        assert_eq!(report.counter("store.cross_job_hits"), 1);
    }

    #[test]
    fn engine_counters_have_stable_labels() {
        assert_eq!(Counter::EngineJobsCompleted.name(), "engine.jobs_completed");
        assert_eq!(Counter::EngineWaves.name(), "engine.waves");
        let tele = Telemetry::enabled();
        tele.add(Counter::EngineJobsCompleted, 4);
        tele.incr(Counter::EngineWaves);
        let report = tele.run_report();
        assert_eq!(report.counter("engine.jobs_completed"), 4);
        assert_eq!(report.counter("engine.waves"), 1);
    }

    #[test]
    fn daemon_counters_have_stable_labels() {
        assert_eq!(Counter::DaemonEpochs.name(), "daemon.epochs");
        assert_eq!(Counter::DaemonRequests.name(), "daemon.requests");
        assert_eq!(Counter::DaemonJobsSubmitted.name(), "daemon.submitted");
        assert_eq!(Counter::DaemonJobsCancelled.name(), "daemon.cancelled");
        assert_eq!(Counter::DaemonJobsExpired.name(), "daemon.expired");
        assert_eq!(Counter::DaemonJobsReplayed.name(), "daemon.replayed");
        assert_eq!(Counter::QuotaRefusals.name(), "quota.refusals");
        let tele = Telemetry::enabled();
        tele.incr(Counter::DaemonEpochs);
        tele.add(Counter::DaemonJobsSubmitted, 3);
        tele.incr(Counter::QuotaRefusals);
        let report = tele.run_report();
        assert_eq!(report.counter("daemon.epochs"), 1);
        assert_eq!(report.counter("daemon.submitted"), 3);
        assert_eq!(report.counter("quota.refusals"), 1);
    }

    /// A worker panicking while holding a ledger or span lock must not turn
    /// every later recording into a poison panic — fatal for a daemon that
    /// outlives individual jobs.
    #[test]
    fn poisoned_ledger_and_span_locks_recover() {
        let tele = Telemetry::enabled();
        tele.charge_em_seconds(2.0);
        {
            let _g = tele.span("daemon.poison");
        }
        let inner = Arc::clone(tele.inner.as_ref().expect("enabled"));
        let _ = std::thread::spawn(move || {
            let _ledger = inner.em_seconds.lock().expect("first lock is clean");
            let _saved = inner.em_seconds_saved.lock().expect("first lock is clean");
            let _spans = inner.spans.lock().expect("first lock is clean");
            panic!("poison every registry lock");
        })
        .join();
        tele.charge_em_seconds(4.0);
        tele.save_em_seconds(0.5);
        {
            let _g = tele.span("daemon.poison");
        }
        assert_eq!(tele.em_seconds(), 6.0);
        assert_eq!(tele.em_seconds_saved(), 0.5);
        let report = tele.run_report();
        assert_eq!(
            report.span("daemon.poison").expect("span survives").count,
            2
        );
    }

    #[test]
    fn run_report_carries_job_and_tenant_tags() {
        let mut report = Telemetry::enabled().run_report();
        assert!(report.job.is_empty() && report.tenant.is_empty());
        report.job = "job-7".to_string();
        report.tenant = "team-si".to_string();
        let back = RunReport::from_json(&report.to_json().expect("serializes")).expect("parses");
        assert_eq!(back.job, "job-7");
        assert_eq!(back.tenant, "team-si");
    }

    #[test]
    fn run_report_serde_round_trip() {
        let tele = Telemetry::enabled();
        tele.incr(Counter::EmSimSucceeded);
        tele.add(Counter::HyperbandPrunes, 12);
        tele.charge_em_seconds(15.166_666_666_666_666);
        {
            let _g = tele.span("pipeline.rollout");
        }
        let mut report = tele.run_report();
        report.task = "T1".to_string();
        report.space = "s1".to_string();
        report.seed = 42;
        report.threads = 4;
        report.success = true;
        report.resolution = "full".to_string();
        report.samples_seen = 900;
        report.algorithm_seconds = 1.25;

        let json = report.to_json().expect("serializes");
        let back = RunReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.schema_version, RunReport::SCHEMA_VERSION);
        assert_eq!(back.resolution, "full");
        assert_eq!(back.counter("hyperband.prunes"), 12);
        assert_eq!(back.span("pipeline.rollout").expect("kept").count, 1);
    }

    #[test]
    fn every_counter_has_a_unique_name() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate counter label");
    }
}
