//! Job specifications and the weighted-fair admission queue of the
//! multi-job engine.
//!
//! A [`JobSpec`] is one optimization request — target task, design space,
//! seed, fault knobs, and the scheduling metadata (tenant, weight,
//! requested threads) the engine admits it by. A [`JobQueue`] holds a batch
//! of specs and partitions them into deterministic **admission waves** via
//! weighted deficit round-robin across tenants ([`JobQueue::fair_waves`]):
//! a round-robin pointer visits backlogged tenants in first-submission
//! order, each visit grants exactly one quantum of credit (= the tenant's
//! weight, never banked across visits) and admits one job per credit, and
//! the resulting admission stream is chunked into `wave_slots`-sized
//! waves. Over a backlog the admitted share converges to the weight ratio
//! while submission order is preserved within a tenant, and a light tenant
//! is never starved behind a heavy one's banked burst. Wave composition is
//! a pure function of the
//! queue contents — never of thread timing — which is the first half of
//! the engine's concurrent-neighbor bit-identity argument (see
//! [`engine`](crate::engine) for the second half).
//!
//! Specs parse from JSON with every field optional: an empty object is a
//! valid job (task `t1` on `s1`, seed 0, weight 1, one thread), so job
//! files stay terse and old files keep parsing as knobs are added. A jobs
//! file (`isop serve --jobs FILE`) is only split into its elements here;
//! each element is then submitted to the [`daemon`](crate::daemon), which
//! parses, validates and numbers it, refusing a bad one alone.

use crate::params::ParamSpace;
use crate::tasks::TaskId;
use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Resolves a space label (`s1`, `s2`, `s1p`/`s1'`/`s1prime`, `training`)
/// to its [`ParamSpace`]. Shared by the CLI and the job queue so both
/// accept the same names.
#[must_use]
pub fn space_by_name(name: &str) -> Option<ParamSpace> {
    match name {
        "s1" => Some(crate::spaces::s1()),
        "s2" => Some(crate::spaces::s2()),
        "s1p" | "s1'" | "s1prime" => Some(crate::spaces::s1_prime()),
        "training" => Some(crate::spaces::training_space()),
        _ => None,
    }
}

/// Resolves a task label (`t1`..`t4`, case-insensitive) to its [`TaskId`].
#[must_use]
pub fn task_by_name(name: &str) -> Option<TaskId> {
    match name.to_lowercase().as_str() {
        "t1" => Some(TaskId::T1),
        "t2" => Some(TaskId::T2),
        "t3" => Some(TaskId::T3),
        "t4" => Some(TaskId::T4),
        _ => None,
    }
}

/// One optimization request submitted to the engine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    /// Job identifier, unique per daemon and its store (the daemon assigns
    /// `job-N` when empty). Tags the job's
    /// [`RunReport`](isop_telemetry::RunReport).
    pub id: String,
    /// Tenant the job is admitted under; fairness is weighted across
    /// tenants, FIFO within one. Defaults to `"default"`.
    pub tenant: String,
    /// Benchmark task label (`t1`..`t4`).
    pub task: String,
    /// Design-space label (see [`space_by_name`]).
    pub space: String,
    /// RNG seed of the job's pipeline run.
    pub seed: u64,
    /// Fairness weight of the job's tenant (a tenant's effective weight is
    /// the maximum over its jobs; >= 1).
    pub weight: u64,
    /// Worker threads the job *requests*. The engine leases
    /// `min(requested, free permits)` from the global core budget at start
    /// — never less than 1, possibly less than requested under load.
    pub threads: usize,
    /// Transient EM fault rate injected into the job's verifying simulator
    /// (0 = no fault layer), keyed by design identity and `seed`.
    pub em_fault_rate: f64,
    /// Permanent ("doomed design") EM fault rate of the fault layer.
    pub em_permanent_rate: f64,
    /// Wall-clock deadline in seconds from the moment the engine starts
    /// the batch/epoch (0 = no deadline). Checked at wave admission and
    /// between pipeline stages; an expired job reports the
    /// `deadline_expired` disposition without touching its neighbors.
    pub deadline_seconds: f64,
    /// Test/chaos knob: the job's worker panics mid-run instead of
    /// optimizing. The engine must contain the panic as a `failed`
    /// disposition rather than unwind through the wave.
    pub chaos_panic: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            id: String::new(),
            tenant: "default".to_string(),
            task: "t1".to_string(),
            space: "s1".to_string(),
            seed: 0,
            weight: 1,
            threads: 1,
            em_fault_rate: 0.0,
            em_permanent_rate: 0.0,
            deadline_seconds: 0.0,
            chaos_panic: false,
        }
    }
}

impl JobSpec {
    /// The job's resolved task, if the label is known.
    #[must_use]
    pub fn task_id(&self) -> Option<TaskId> {
        task_by_name(&self.task)
    }

    /// The job's resolved design space, if the label is known.
    #[must_use]
    pub fn param_space(&self) -> Option<ParamSpace> {
        space_by_name(&self.space)
    }
}

fn opt_field<T: Deserialize>(obj: &[(String, Value)], key: &str, default: T) -> Result<T, Error> {
    match Value::field(obj, key) {
        Value::Null => Ok(default),
        v => T::from_value(v),
    }
}

// Hand-written so every field is optional: job files list only the knobs
// they care about, and files written before a knob existed keep parsing.
impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_obj()
            .ok_or_else(|| Error::mismatch("object (JobSpec)", v))?;
        let d = JobSpec::default();
        Ok(Self {
            id: opt_field(obj, "id", d.id)?,
            tenant: opt_field(obj, "tenant", d.tenant)?,
            task: opt_field(obj, "task", d.task)?,
            space: opt_field(obj, "space", d.space)?,
            seed: opt_field(obj, "seed", d.seed)?,
            weight: opt_field::<u64>(obj, "weight", d.weight)?.max(1),
            threads: opt_field::<usize>(obj, "threads", d.threads)?.max(1),
            em_fault_rate: opt_field(obj, "em_fault_rate", d.em_fault_rate)?,
            em_permanent_rate: opt_field(obj, "em_permanent_rate", d.em_permanent_rate)?,
            deadline_seconds: opt_field(obj, "deadline_seconds", d.deadline_seconds)?,
            chaos_panic: opt_field(obj, "chaos_panic", d.chaos_panic)?,
        })
    }
}

/// Splits a jobs file into its elements: either a bare JSON array or
/// `{"jobs": [...]}`. The elements stay raw JSON, so one that is not a
/// valid [`JobSpec`] is refused on its own when it is submitted.
///
/// # Errors
///
/// Returns a message on malformed JSON or any other top-level shape.
pub fn parse_jobs(text: &str) -> Result<Vec<Value>, String> {
    let value = Value::parse(text).map_err(|e| format!("jobs file: {e:?}"))?;
    let jobs = match &value {
        Value::Obj(fields) => Value::field(fields, "jobs"),
        other => other,
    };
    match jobs {
        Value::Arr(items) => Ok(items.clone()),
        _ => Err("jobs file: expected an array or {\"jobs\": [...]}".to_string()),
    }
}

/// A batch of jobs awaiting admission.
#[derive(Debug, Clone, Default)]
pub struct JobQueue {
    jobs: Vec<JobSpec>,
}

impl JobQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue holding `jobs` in submission order.
    #[must_use]
    pub fn from_specs(jobs: Vec<JobSpec>) -> Self {
        Self { jobs }
    }

    /// Appends a job.
    pub fn push(&mut self, spec: JobSpec) {
        self.jobs.push(spec);
    }

    /// Queued jobs, in submission order.
    #[must_use]
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Partitions the queue into admission waves of at most `wave_slots`
    /// jobs by weighted deficit round-robin across tenants.
    ///
    /// A round-robin pointer visits tenants in order of first submission.
    /// On arrival at a backlogged tenant the pointer grants exactly one
    /// quantum of credit — the tenant's weight (the maximum weight over
    /// its jobs) — and admits one queued job per credit, FIFO within the
    /// tenant; unspent credit is discarded when the pointer moves on, so
    /// no tenant banks credit across visits and a light tenant is admitted
    /// every round-robin cycle even under `wave_slots = 1`. The admission
    /// stream is then chunked into `wave_slots`-sized waves, which makes
    /// every wave but the last full (work-conserving) by construction.
    /// The result depends only on the queue contents — the returned
    /// indices into [`JobQueue::jobs`] are what the engine executes wave
    /// by wave.
    #[must_use]
    pub fn fair_waves(&self, wave_slots: usize) -> Vec<Vec<usize>> {
        let wave_slots = wave_slots.max(1);
        // Tenant order = first submission; pending lists keep FIFO order.
        let mut tenant_order: Vec<&str> = Vec::new();
        let mut pending: BTreeMap<&str, std::collections::VecDeque<usize>> = BTreeMap::new();
        let mut weight: BTreeMap<&str, u64> = BTreeMap::new();
        for (i, job) in self.jobs.iter().enumerate() {
            let t = job.tenant.as_str();
            if !pending.contains_key(t) {
                tenant_order.push(t);
            }
            pending.entry(t).or_default().push_back(i);
            let w = weight.entry(t).or_insert(1);
            *w = (*w).max(job.weight.max(1));
        }

        let mut stream = Vec::with_capacity(self.jobs.len());
        let mut remaining = self.jobs.len();
        while remaining > 0 {
            for &t in &tenant_order {
                let queue = pending.get_mut(t).expect("pending entry");
                if queue.is_empty() {
                    continue;
                }
                // One quantum per visit, never carried: the deficit
                // round-robin cap that keeps a tenant throttled by tight
                // wave_slots from banking credits and monopolizing later
                // admission.
                let mut credit = weight[t];
                while credit >= 1 {
                    let Some(idx) = queue.pop_front() else { break };
                    stream.push(idx);
                    credit -= 1;
                    remaining -= 1;
                }
            }
        }
        stream.chunks(wave_slots).map(<[usize]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: &str, tenant: &str, weight: u64) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            tenant: tenant.to_string(),
            weight,
            ..JobSpec::default()
        }
    }

    #[test]
    fn specs_parse_with_defaults() {
        let jobs = parse_jobs(r#"[{}, {"task": "t2", "space": "s2", "seed": 7}]"#).unwrap();
        assert_eq!(jobs.len(), 2);
        let first = JobSpec::from_value(&jobs[0]).unwrap();
        assert_eq!(first, JobSpec::default());
        assert_eq!(first.tenant, "default");
        let second = JobSpec::from_value(&jobs[1]).unwrap();
        assert_eq!(second.task, "t2");
        assert_eq!(second.space, "s2");
        assert_eq!(second.seed, 7);
        // Wrapped form parses too.
        let wrapped = parse_jobs(r#"{"jobs": [{"id": "a", "tenant": "x"}]}"#).unwrap();
        let spec = JobSpec::from_value(&wrapped[0]).unwrap();
        assert_eq!((spec.id.as_str(), spec.tenant.as_str()), ("a", "x"));
    }

    #[test]
    fn only_the_file_shape_is_checked() {
        for bad in ["not json", "{}", r#"{"jobs": 3}"#, "7"] {
            assert!(parse_jobs(bad).is_err(), "{bad}");
        }
        // Element-level problems are the daemon's to refuse, one by one.
        let items = parse_jobs(r#"[{"task": "t9"}, {"id": "a"}, {"id": "a"}, 5]"#).unwrap();
        assert_eq!(items.len(), 4);
    }

    #[test]
    fn fair_waves_split_share_by_weight() {
        // Tenant a (weight 2) and b (weight 1), both backlogged: every
        // 3-slot wave should admit 2 of a's jobs and 1 of b's.
        let mut q = JobQueue::new();
        for i in 0..6 {
            q.push(job(&format!("a{i}"), "a", 2));
        }
        for i in 0..3 {
            q.push(job(&format!("b{i}"), "b", 1));
        }
        let waves = q.fair_waves(3);
        assert_eq!(waves.len(), 3);
        for wave in &waves {
            let a = wave.iter().filter(|&&i| q.jobs()[i].tenant == "a").count();
            let b = wave.iter().filter(|&&i| q.jobs()[i].tenant == "b").count();
            assert_eq!((a, b), (2, 1), "wave {wave:?}");
        }
        // FIFO within each tenant.
        let order: Vec<&str> = waves
            .iter()
            .flatten()
            .map(|&i| q.jobs()[i].id.as_str())
            .collect();
        let a_order: Vec<&&str> = order.iter().filter(|id| id.starts_with('a')).collect();
        assert_eq!(a_order, [&"a0", &"a1", &"a2", &"a3", &"a4", &"a5"]);
    }

    #[test]
    fn fair_waves_are_work_conserving() {
        // One tenant with weight 1 and 5 jobs, 4 slots per wave: credits
        // alone would admit 1 per wave; top-up must fill the slots.
        let mut q = JobQueue::new();
        for i in 0..5 {
            q.push(job(&format!("j{i}"), "solo", 1));
        }
        let waves = q.fair_waves(4);
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0].len(), 4);
        assert_eq!(waves[1].len(), 1);
        // Every job admitted exactly once.
        let mut all: Vec<usize> = waves.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    /// Regression: under `wave_slots = 1` the old per-wave accrual banked
    /// the heavy tenant's unspent credits, so it kept winning the first
    /// admission pass wave after wave and the light tenant was starved
    /// until the heavy backlog drained entirely
    /// (`[h0][h1][h2][l0][l1][l2]`). Capping credit at one quantum per
    /// pointer visit admits the light tenant every round-robin cycle.
    #[test]
    fn fair_waves_do_not_starve_a_light_tenant_under_tight_slots() {
        let mut q = JobQueue::new();
        for i in 0..3 {
            q.push(job(&format!("h{i}"), "heavy", 2));
        }
        for i in 0..3 {
            q.push(job(&format!("l{i}"), "light", 1));
        }
        let waves = q.fair_waves(1);
        let order: Vec<&str> = waves
            .iter()
            .flatten()
            .map(|&i| q.jobs()[i].id.as_str())
            .collect();
        assert_eq!(order, ["h0", "h1", "l0", "h2", "l1", "l2"]);
        let first_light = order.iter().position(|id| id.starts_with('l')).unwrap();
        assert!(
            first_light <= 2,
            "light tenant must be admitted within the first round-robin \
             cycle, got wave {first_light}"
        );
    }

    #[test]
    fn fair_waves_are_deterministic_and_cover_the_queue() {
        let mut q = JobQueue::new();
        for i in 0..4 {
            q.push(job(&format!("x{i}"), "x", 3));
            q.push(job(&format!("y{i}"), "y", 1));
        }
        let a = q.fair_waves(2);
        let b = q.fair_waves(2);
        assert_eq!(a, b);
        let mut all: Vec<usize> = a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }
}
