//! The multi-job concurrent execution engine: many [`IsopOptimizer`]
//! pipelines multiplexed over one shared executor, one core budget, and
//! one persistent store.
//!
//! The engine turns the pipeline into a service-shaped library. A
//! [`JobQueue`] is partitioned into deterministic
//! admission waves (weighted-fair across tenants, FIFO within one); each
//! wave's jobs run **concurrently** on dedicated threads, every job
//! leasing its worker width from a global
//! [`CoreBudget`] so J jobs x T threads can never
//! oversubscribe the machine. Jobs tagged with the same design space
//! warm-start each other through a shared [`Store`]: the evaluations a
//! wave flushes are served to every later wave as cross-job cache hits.
//!
//! The engine runs a frozen queue; it does not decide what may enter one.
//! Request validation lives in the [`daemon`](crate::daemon), which `isop
//! daemon` and `isop serve` both drive. A spec that still names an unknown
//! task or space is resolved at its wave's admission like any other and
//! ends `failed` on its own, without touching its neighbors.
//!
//! ## The determinism argument
//!
//! Each job through the engine produces candidates, charged+saved EM
//! ledgers, and counters **bit-identical to running it alone** (same wave
//! position, same initial store), at any core-permit width. Four
//! structural facts make that true:
//!
//! 1. **Private state per job.** Every job gets its own [`Telemetry`]
//!    handle, its own seed, and its own [`EvalCache`] handle — nothing a
//!    neighbor records lands in this job's report.
//! 2. **Admission-time hydration.** A job's cache is hydrated from the
//!    shared store once, at the **serial** admission point of its wave
//!    ([`EvalCache::hydrate_space`]): it takes an `Arc` snapshot of the
//!    store's eval index for its space, which freezes the job's view of
//!    the store before any neighbor starts. Neighbors' appends reach the
//!    store's index only at a flush, never a snapshot already taken.
//! 3. **Flush between waves.** The store flushes after each wave joins, so
//!    the records a later wave hydrates are exactly the completed earlier
//!    waves' — a pure function of wave composition, which is itself a pure
//!    function of the queue ([`JobQueue::fair_waves`]). By then the wave's
//!    caches are dropped, so folding the flush into the index copies
//!    nothing.
//! 4. **Width-independent parallel sections.** A job's lease width only
//!    sets how many workers its `par_map_*` sections use, and every such
//!    section reassembles results by index; all RNG draws happen before
//!    parallel sections. Whatever the budget grants, the outcome is the
//!    serial outcome bit for bit.
//!
//! Within one wave, concurrent jobs therefore cannot observe each other at
//! all (they warm-start only from *earlier* waves), and a fault-injected
//! job perturbs nothing but its own report — properties pinned by
//! `tests/engine_concurrency.rs` and the bench-gate engine smoke.

use crate::evalcache::EvalCache;
use crate::exec::{ControlState, CoreBudget, RunControl};
use crate::jobs::{JobQueue, JobSpec};
use crate::params::ParamSpace;
use crate::pipeline::{DesignCandidate, IsopConfig, IsopOptimizer};
use crate::surrogate::OracleSurrogate;
use crate::tasks::TaskId;
use isop_em::fault::{FaultConfig, FaultInjector};
use isop_em::simulator::{AnalyticalSolver, EmSimulator};
use isop_hpo::budget::Budget;
use isop_store::Store;
use isop_telemetry::{Counter, RunReport, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Sizing knobs of the engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Total core permits shared by every concurrently running job
    /// (0 = the host's available parallelism).
    pub cores: usize,
    /// Jobs admitted per wave (the worker-pool width). Within a wave jobs
    /// run concurrently; waves run in sequence and are the warm-start
    /// boundary for shared-space jobs.
    pub wave_slots: usize,
    /// Pipeline configuration template every job runs with; the
    /// `parallelism` field is overridden per job from its core lease.
    pub pipeline: IsopConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cores: 0,
            wave_slots: 4,
            pipeline: IsopConfig::default(),
        }
    }
}

/// Outcome of one job through the engine: the pipeline's candidate set and
/// ledgers plus the tagged per-job [`RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Job id (from the spec, or queue-assigned).
    pub id: String,
    /// Tenant the job was admitted under.
    pub tenant: String,
    /// Task label the job ran.
    pub task: String,
    /// Space label the job searched.
    pub space: String,
    /// Seed of the job's pipeline run.
    pub seed: u64,
    /// Admission wave the job ran in (0-based).
    pub wave: usize,
    /// Whether the best verified design satisfied every constraint.
    pub success: bool,
    /// How the job left the engine: `completed` (ran to the end),
    /// `cancelled` (its control token was cancelled), `deadline_expired`
    /// (its deadline passed at a wave-admission or stage-boundary check),
    /// or `failed` (an unknown task/space label, or the worker panicked;
    /// contained to this job).
    pub disposition: String,
    /// Roll-out resolution label (`full` / `degraded` /
    /// `all_simulations_failed`).
    pub resolution: String,
    /// Simulated EM seconds the job charged.
    pub em_seconds_charged: f64,
    /// Simulated EM seconds the job's cache hits elided.
    pub em_seconds_saved: f64,
    /// Roll-out candidates ranked by exact objective (best first) — the
    /// payload the bit-identity contracts compare.
    pub candidates: Vec<DesignCandidate>,
    /// The job's full telemetry report, tagged with `job` / `tenant`.
    pub report: RunReport,
}

/// Aggregated outcome of one engine run over a queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineReport {
    /// Mirrors [`RunReport::SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Core permits the run was budgeted.
    pub cores: usize,
    /// Wave width the run admitted at.
    pub wave_slots: usize,
    /// Waves executed.
    pub waves: u64,
    /// Real wall-clock of the whole run, seconds.
    pub wall_seconds: f64,
    /// Summed charged EM seconds across every job.
    pub em_seconds_charged: f64,
    /// Summed elided EM seconds across every job.
    pub em_seconds_saved: f64,
    /// Cache hits served from store records written by another job or a
    /// previous process during this run — the cross-job locality gauge.
    pub cross_job_hits: u64,
    /// High-water mark of simultaneously leased core permits (never above
    /// `cores` by construction).
    pub peak_core_permits: usize,
    /// Per-job outcomes, in queue submission order.
    pub jobs: Vec<JobResult>,
}

/// Per-tenant fold of a set of per-job reports — the
/// `isop report --aggregate` dashboard rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    /// Tenant label (reports with an empty tenant fold under `default`).
    pub tenant: String,
    /// Reports folded.
    pub jobs: u64,
    /// Jobs whose best design satisfied every constraint.
    pub succeeded: u64,
    /// Jobs that resolved `full` (or predate resolution tracking).
    pub full: u64,
    /// Jobs that resolved `degraded`.
    pub degraded: u64,
    /// Jobs that resolved `all_simulations_failed`.
    pub failed: u64,
    /// Summed charged EM seconds.
    pub em_seconds_charged: f64,
    /// Summed elided EM seconds.
    pub em_seconds_saved: f64,
    /// Summed `em.cache.hits`.
    pub cache_hits: u64,
    /// Summed `em.cache.misses`.
    pub cache_misses: u64,
}

impl TenantSummary {
    /// Cache hit rate over the tenant's roll-out probes (0 when none ran).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Folds per-job reports into per-tenant rows, sorted by tenant label.
#[must_use]
pub fn aggregate_by_tenant(reports: &[RunReport]) -> Vec<TenantSummary> {
    let mut by_tenant: std::collections::BTreeMap<String, TenantSummary> =
        std::collections::BTreeMap::new();
    for rep in reports {
        let tenant = if rep.tenant.is_empty() {
            "default".to_string()
        } else {
            rep.tenant.clone()
        };
        let row = by_tenant
            .entry(tenant.clone())
            .or_insert_with(|| TenantSummary {
                tenant,
                jobs: 0,
                succeeded: 0,
                full: 0,
                degraded: 0,
                failed: 0,
                em_seconds_charged: 0.0,
                em_seconds_saved: 0.0,
                cache_hits: 0,
                cache_misses: 0,
            });
        row.jobs += 1;
        row.succeeded += u64::from(rep.success);
        match rep.resolution.as_str() {
            "degraded" => row.degraded += 1,
            "all_simulations_failed" => row.failed += 1,
            _ => row.full += 1,
        }
        row.em_seconds_charged += rep.em_seconds_charged;
        row.em_seconds_saved += rep.em_seconds_saved;
        row.cache_hits += rep.counter("em.cache.hits");
        row.cache_misses += rep.counter("em.cache.misses");
    }
    by_tenant.into_values().collect()
}

/// One admitted job, fully prepared at the wave's serial admission point.
struct AdmittedJob {
    queue_index: usize,
    wave: usize,
    spec: JobSpec,
    task: TaskId,
    space: ParamSpace,
    cache: EvalCache,
    telemetry: Telemetry,
    control: RunControl,
}

/// Per-job execution controls a service layer hands
/// [`Engine::run_with`]: live cancellation tokens and already-finished
/// results to replay instead of re-running.
#[derive(Debug, Default)]
pub struct JobControls {
    /// Cancellation tokens by job id. A job without a token gets a fresh
    /// one (armed with the spec's `deadline_seconds`, if any); a job with
    /// one shares it, so the daemon can cancel mid-epoch.
    pub tokens: std::collections::BTreeMap<String, RunControl>,
    /// Finished results by job id, replayed **verbatim** in place of
    /// running the job — the journal-replay half of crash recovery. A
    /// replayed job is never spawned, charges nothing, and keeps its
    /// original wave tag, so a restarted epoch reproduces the
    /// uninterrupted run bit for bit.
    pub completed: std::collections::BTreeMap<String, JobResult>,
}

/// The multi-job engine. Construct with [`Engine::new`], optionally attach
/// a shared persistent [`Store`] (jobs on the same space then warm-start
/// each other across waves and across engine runs) and an engine-level
/// [`Telemetry`] handle (collects `engine.*` wave/job counters and the
/// shared store's `store.*` traffic when the store carries the same
/// handle), then [`Engine::run`] a queue.
pub struct Engine {
    config: EngineConfig,
    store: Option<Arc<Store>>,
    telemetry: Telemetry,
}

impl Engine {
    /// An engine with the given sizing; no store, no telemetry.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            store: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches the shared persistent store. Every job's cache hydrates
    /// from it at admission and appends to it; the engine flushes it
    /// between waves. To have the store's `store.*` counters land in the
    /// engine report, open it with the engine's telemetry handle.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches an engine-level telemetry handle for the `engine.*`
    /// counters. Per-job recordings never land here — each job runs on its
    /// own private handle so per-job reports stay neighbor-independent.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs every queued job to completion and returns the aggregated
    /// report (per-job results in submission order).
    ///
    /// # Errors
    ///
    /// Returns a message when a store flush fails.
    pub fn run(&self, queue: &JobQueue) -> Result<EngineReport, String> {
        self.run_with(queue, None, |_, _| Ok(()))
    }

    /// [`Engine::run`] with service hooks: per-job [`JobControls`]
    /// (cancellation tokens, deadline arming, journal-replayed results)
    /// and an `on_wave` callback invoked after each wave's store flush
    /// with the wave's **newly produced** results (replays excluded) — the
    /// daemon journals `Finished` frames there, so evaluations always hit
    /// disk before the journal marks their job done.
    ///
    /// Control tokens are polled at wave admission and at pipeline stage
    /// boundaries only; a cancelled or expired job reports its disposition
    /// without ever tearing down wave neighbors. A job whose task or space
    /// label does not resolve, or whose worker panics, is contained to a
    /// `failed` disposition the same way.
    ///
    /// # Errors
    ///
    /// Returns a message on a store flush failure, or when `on_wave` fails.
    pub fn run_with(
        &self,
        queue: &JobQueue,
        controls: Option<&JobControls>,
        mut on_wave: impl FnMut(usize, &[JobResult]) -> Result<(), String>,
    ) -> Result<EngineReport, String> {
        let cores = if self.config.cores == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.cores
        };
        let budget = CoreBudget::new(cores);
        let cross_hits_before = self.telemetry.counter(Counter::StoreCrossJobHits);
        let waves = queue.fair_waves(self.config.wave_slots);
        let t0 = Instant::now();
        let mut results: Vec<Option<JobResult>> = (0..queue.len()).map(|_| None).collect();
        for (wave_idx, wave) in waves.iter().enumerate() {
            // Serial admission: private telemetry + cache per job, the
            // cache pre-hydrated for the job's space so its view of the
            // shared store is frozen before any neighbor runs. Replayed
            // and already-stopped jobs are settled here without spawning.
            let mut replayed: Vec<bool> = vec![false; wave.len()];
            let mut admitted: Vec<AdmittedJob> = Vec::new();
            for (slot, &queue_index) in wave.iter().enumerate() {
                let spec = queue.jobs()[queue_index].clone();
                if let Some(done) = controls.and_then(|c| c.completed.get(&spec.id)) {
                    replayed[slot] = true;
                    results[queue_index] = Some(done.clone());
                    continue;
                }
                // A label that does not resolve fails this job alone: it
                // never hydrates a cache or leases a core.
                let (Some(task), Some(space)) = (spec.task_id(), spec.param_space()) else {
                    results[queue_index] = Some(stub_result(&spec, wave_idx, "failed"));
                    continue;
                };
                let control = controls
                    .and_then(|c| c.tokens.get(&spec.id).cloned())
                    .unwrap_or_default();
                if spec.deadline_seconds > 0.0 {
                    control.arm_deadline(spec.deadline_seconds);
                }
                // Wave-admission control check: a job cancelled (or
                // already past its deadline) before admission never
                // hydrates a cache or leases a core.
                match control.state() {
                    ControlState::Cancelled => {
                        results[queue_index] = Some(stub_result(&spec, wave_idx, "cancelled"));
                        continue;
                    }
                    ControlState::Expired => {
                        results[queue_index] =
                            Some(stub_result(&spec, wave_idx, "deadline_expired"));
                        continue;
                    }
                    ControlState::Live => {}
                }
                let cache = match &self.store {
                    Some(store) => {
                        let cache = EvalCache::with_store(Arc::clone(store));
                        cache.hydrate_space(&space);
                        cache
                    }
                    None => EvalCache::new(),
                };
                admitted.push(AdmittedJob {
                    queue_index,
                    wave: wave_idx,
                    spec,
                    task,
                    space,
                    cache,
                    telemetry: Telemetry::enabled(),
                    control,
                });
            }

            // Concurrent execution: one thread per admitted job, each
            // leasing its width from the shared budget. A panicking job is
            // caught on its own thread and reported as `failed` — the
            // neighbors, the wave, and the store never see the unwind.
            let (tx, rx) = mpsc::channel::<(usize, JobResult)>();
            std::thread::scope(|scope| {
                for job in admitted {
                    let tx = tx.clone();
                    let budget = budget.clone();
                    let pipeline = self.config.pipeline.clone();
                    scope.spawn(move || {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_job(&job, &budget, pipeline)
                        }))
                        .unwrap_or_else(|_| stub_result(&job.spec, job.wave, "failed"));
                        // Receiver outlives the scope; a send cannot fail.
                        let _ = tx.send((job.queue_index, result));
                    });
                }
            });
            drop(tx);
            for (queue_index, result) in rx {
                results[queue_index] = Some(result);
            }
            // Newly produced results (stubs included, replays excluded) in
            // wave order, so `on_wave` consumers journal deterministically.
            let fresh: Vec<JobResult> = wave
                .iter()
                .enumerate()
                .filter(|&(slot, _)| !replayed[slot])
                .map(|(_, &queue_index)| {
                    results[queue_index]
                        .clone()
                        .expect("every non-replayed wave job settled above")
                })
                .collect();

            // Publish the wave's evaluations before the next wave hydrates:
            // later waves warm-start deterministically from completed ones.
            if let Some(store) = &self.store {
                store
                    .flush()
                    .map_err(|e| format!("engine: store flush after wave {wave_idx}: {e}"))?;
            }
            self.telemetry.incr(Counter::EngineWaves);
            self.telemetry
                .add(Counter::EngineJobsCompleted, wave.len() as u64);
            on_wave(wave_idx, &fresh)?;
        }
        let wall_seconds = t0.elapsed().as_secs_f64();
        let jobs: Vec<JobResult> = results
            .into_iter()
            .map(|r| r.expect("every queued job ran in exactly one wave"))
            .collect();
        Ok(EngineReport {
            schema_version: RunReport::SCHEMA_VERSION,
            cores,
            wave_slots: self.config.wave_slots.max(1),
            waves: waves.len() as u64,
            wall_seconds,
            em_seconds_charged: jobs.iter().map(|j| j.em_seconds_charged).sum(),
            em_seconds_saved: jobs.iter().map(|j| j.em_seconds_saved).sum(),
            cross_job_hits: self.telemetry.counter(Counter::StoreCrossJobHits) - cross_hits_before,
            peak_core_permits: budget.peak_outstanding(),
            jobs,
        })
    }
}

/// Runs one admitted job: leases a width, builds the job's simulator stack
/// (fault layer only when the spec asks for it), runs the pipeline, and
/// snapshots the tagged report. Everything here reads only the job's
/// private state plus the immutable spec, so neighbors cannot perturb it.
fn run_job(job: &AdmittedJob, budget: &CoreBudget, pipeline: IsopConfig) -> JobResult {
    let (spec, task) = (&job.spec, job.task);
    if spec.chaos_panic {
        panic!("chaos: job '{}' panicked by request", spec.id);
    }
    let lease = budget.lease(spec.threads);
    let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
    let solver = AnalyticalSolver::new().with_telemetry(job.telemetry.clone());
    let simulator: Box<dyn EmSimulator> =
        if spec.em_fault_rate > 0.0 || spec.em_permanent_rate > 0.0 {
            Box::new(
                FaultInjector::new(
                    solver,
                    FaultConfig {
                        transient_rate: spec.em_fault_rate,
                        permanent_rate: spec.em_permanent_rate,
                        seed: spec.seed,
                    },
                )
                .with_telemetry(job.telemetry.clone()),
            )
        } else {
            Box::new(solver)
        };
    let outcome = IsopOptimizer::new(&job.space, &surrogate, &*simulator, pipeline)
        .with_parallelism(lease.parallelism())
        .with_telemetry(job.telemetry.clone())
        .with_eval_cache(job.cache.clone())
        .with_control(job.control.clone())
        .run(
            crate::tasks::objective_for(task, vec![]),
            Budget::unlimited(),
            spec.seed,
        );
    drop(lease);
    // A stop observed at a stage boundary surfaces as the disposition; a
    // run that went the distance is `completed` even if its token fires
    // the instant after (the work is done — report it).
    let disposition = match job.control.state() {
        _ if !outcome.candidates.is_empty() => "completed",
        ControlState::Cancelled => "cancelled",
        ControlState::Expired => "deadline_expired",
        ControlState::Live => "completed",
    };

    let mut report = job.telemetry.run_report();
    report.task = task.to_string();
    report.space = spec.space.clone();
    report.job = spec.id.clone();
    report.tenant = spec.tenant.clone();
    report.seed = spec.seed;
    // Requested width, not the lease grant: grants vary with neighbor
    // timing, and the report must be bit-identical with or without them.
    report.threads = spec.threads;
    report.success = outcome.success;
    report.resolution = outcome.resolution.as_str().to_string();
    report.samples_seen = outcome.samples_seen;
    report.invalid_seen = outcome.invalid_seen;
    report.algorithm_seconds = outcome.algorithm_seconds;
    JobResult {
        id: spec.id.clone(),
        tenant: spec.tenant.clone(),
        task: spec.task.clone(),
        space: spec.space.clone(),
        seed: spec.seed,
        wave: job.wave,
        success: outcome.success,
        disposition: disposition.to_string(),
        resolution: outcome.resolution.as_str().to_string(),
        em_seconds_charged: outcome.em_seconds,
        em_seconds_saved: outcome.em_seconds_saved,
        candidates: outcome.candidates,
        report,
    }
}

/// A zero-work [`JobResult`] for a job that never ran (cancelled, expired
/// or unresolvable at wave admission) or whose worker panicked: empty
/// candidates, zero ledgers, an empty tagged report, and the telling
/// `disposition`.
fn stub_result(spec: &JobSpec, wave: usize, disposition: &str) -> JobResult {
    let mut report = RunReport::empty();
    report.task = spec.task.clone();
    report.space = spec.space.clone();
    report.job = spec.id.clone();
    report.tenant = spec.tenant.clone();
    report.seed = spec.seed;
    report.threads = spec.threads;
    JobResult {
        id: spec.id.clone(),
        tenant: spec.tenant.clone(),
        task: spec.task.clone(),
        space: spec.space.clone(),
        seed: spec.seed,
        wave,
        success: false,
        disposition: disposition.to_string(),
        resolution: String::new(),
        em_seconds_charged: 0.0,
        em_seconds_saved: 0.0,
        candidates: Vec::new(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobQueue;
    use isop_hpo::harmonica::HarmonicaConfig;
    use isop_hpo::hyperband::HyperbandConfig;

    /// A pipeline config small enough for unit tests.
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

    fn spec(id: &str, tenant: &str, seed: u64) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            tenant: tenant.to_string(),
            seed,
            threads: 2,
            ..JobSpec::default()
        }
    }

    #[test]
    fn engine_runs_a_batch_and_reports_in_submission_order() {
        let mut queue = JobQueue::new();
        queue.push(spec("a", "t1", 1));
        queue.push(spec("b", "t2", 2));
        queue.push(spec("c", "t1", 3));
        let tele = Telemetry::enabled();
        let report = Engine::new(EngineConfig {
            cores: 2,
            wave_slots: 2,
            pipeline: tiny_pipeline(),
        })
        .with_telemetry(tele.clone())
        .run(&queue)
        .expect("engine run");
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.waves, 2);
        assert_eq!(report.cores, 2);
        let ids: Vec<&str> = report.jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c"]);
        assert!(report.peak_core_permits <= report.cores);
        assert_eq!(tele.counter(Counter::EngineJobsCompleted), 3);
        assert_eq!(tele.counter(Counter::EngineWaves), 2);
        for job in &report.jobs {
            assert!(!job.candidates.is_empty(), "job {} found nothing", job.id);
            assert_eq!(job.report.job, job.id);
            assert_eq!(job.report.tenant, job.tenant);
            assert_eq!(job.report.seed, job.seed);
        }
        // Engine-level charged EM is the per-job sum.
        let sum: f64 = report.jobs.iter().map(|j| j.em_seconds_charged).sum();
        assert!((report.em_seconds_charged - sum).abs() < 1e-12);
    }

    /// One wave holding a healthy job, a panicking job, an
    /// already-expired deadline, a pre-cancelled token, and an unknown
    /// task label: each stopped job reports its own disposition with zero
    /// ledgers while the healthy neighbor completes normally — nothing
    /// tears down the wave.
    #[test]
    fn controls_surface_dispositions_without_touching_neighbors() {
        let mut queue = JobQueue::new();
        queue.push(spec("ok", "t", 1));
        queue.push(JobSpec {
            chaos_panic: true,
            ..spec("boom", "t", 2)
        });
        queue.push(JobSpec {
            deadline_seconds: 1e-9,
            ..spec("late", "t", 3)
        });
        queue.push(spec("gone", "t", 4));
        queue.push(JobSpec {
            task: "t9".to_string(),
            ..spec("bad", "t", 5)
        });
        let mut controls = JobControls::default();
        let token = RunControl::none();
        token.cancel();
        controls.tokens.insert("gone".to_string(), token);
        let engine = Engine::new(EngineConfig {
            cores: 2,
            wave_slots: 5,
            pipeline: tiny_pipeline(),
        });
        let report = engine
            .run_with(&queue, Some(&controls), |_, _| Ok(()))
            .expect("engine run");
        let by = |id: &str| {
            report
                .jobs
                .iter()
                .find(|j| j.id == id)
                .unwrap_or_else(|| panic!("job {id}"))
        };
        assert_eq!(by("ok").disposition, "completed");
        assert!(!by("ok").candidates.is_empty());
        assert_eq!(by("boom").disposition, "failed");
        assert_eq!(by("late").disposition, "deadline_expired");
        assert_eq!(by("gone").disposition, "cancelled");
        assert_eq!(by("bad").disposition, "failed");
        for id in ["boom", "late", "gone", "bad"] {
            assert!(by(id).candidates.is_empty(), "{id} must produce nothing");
            assert_eq!(by(id).em_seconds_charged, 0.0, "{id} must charge nothing");
            assert_eq!(by(id).em_seconds_saved, 0.0, "{id} must save nothing");
            assert!(!by(id).success);
        }

        // Journal-replay half: hand the healthy job's finished result back
        // as `completed` — it is replayed verbatim (same wave tag, same
        // bits) and excluded from the on_wave "fresh" stream.
        let mut replay = JobControls::default();
        replay.completed.insert("ok".to_string(), by("ok").clone());
        let mut fresh_ids: Vec<String> = Vec::new();
        let rerun = engine
            .run_with(&queue, Some(&replay), |_, fresh| {
                fresh_ids.extend(fresh.iter().map(|j| j.id.clone()));
                Ok(())
            })
            .expect("replay run");
        let ok = rerun.jobs.iter().find(|j| j.id == "ok").expect("ok");
        assert_eq!(ok, by("ok"), "replayed result must be verbatim");
        assert!(!fresh_ids.contains(&"ok".to_string()));
        assert!(fresh_ids.contains(&"boom".to_string()));
    }

    #[test]
    fn tenant_aggregation_folds_reports() {
        let mut a = RunReport::empty();
        a.tenant = "x".to_string();
        a.success = true;
        a.resolution = "full".to_string();
        a.em_seconds_charged = 10.0;
        let mut b = RunReport::empty();
        b.tenant = "x".to_string();
        b.resolution = "degraded".to_string();
        b.em_seconds_saved = 5.0;
        let mut c = RunReport::empty();
        c.resolution = "all_simulations_failed".to_string();
        let rows = aggregate_by_tenant(&[a, b, c]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tenant, "default");
        assert_eq!(rows[0].failed, 1);
        assert_eq!(rows[1].tenant, "x");
        assert_eq!(rows[1].jobs, 2);
        assert_eq!(rows[1].succeeded, 1);
        assert_eq!(rows[1].full, 1);
        assert_eq!(rows[1].degraded, 1);
        assert!((rows[1].em_seconds_charged - 10.0).abs() < 1e-12);
        assert!((rows[1].em_seconds_saved - 5.0).abs() < 1e-12);
        assert_eq!(rows[1].cache_hit_rate(), 0.0);
    }
}
