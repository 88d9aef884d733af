//! # isop — inverse stack-up optimization for advanced package design
//!
//! A full reproduction of **ISOP+** (Chae et al., DATE'23 / TCAD'23): given
//! performance targets for a differential-stripline PCB layer — impedance
//! `Z`, insertion loss `L` at 16 GHz, near-end crosstalk `NEXT` — search a
//! discrete 15-parameter design space for the stack-up that minimizes a
//! figure of merit subject to tolerance constraints.
//!
//! The crate wires together the three substrates:
//!
//! * [`isop_em`] — the EM simulator (the paper's ICAT-tool substitute);
//! * [`isop_ml`] — surrogate models (1D-CNN, MLP, XGBoost, ...);
//! * [`isop_hpo`] — search algorithms (Harmonica, Hyperband, SA, TPE).
//!
//! and implements everything specific to the paper:
//!
//! * [`params`] / [`spaces`] — discrete spaces with binary encoding
//!   (Eqs. 4–6, Table III);
//! * [`objective`] — `g` / `g_hat` with double-sigmoid smoothing and input
//!   constraints (Eqs. 8–11, Fig. 5);
//! * [`weights`] — adaptive weight adjustment (Algorithm 2);
//! * [`tasks`] — benchmark tasks T1–T4 (Table II);
//! * [`surrogate`] / [`data`] — surrogate training against the simulator;
//! * [`pipeline`] — the three-stage ISOP+ optimizer (Algorithm 1);
//! * [`scheduler`] — deterministic EM roll-out scheduling: one async
//!   batch stream of retries, top-ups, and fresh candidates;
//! * [`baselines`] / [`experiment`] — the SA/BO comparison protocol and
//!   statistics of Tables IV/V/VII/VIII;
//! * [`manual`] — the published Table IX reference designs;
//! * [`jobs`] / [`engine`] — the multi-job concurrent execution engine:
//!   a weighted-fair job queue multiplexing many pipelines over one
//!   shared core budget and one persistent store;
//! * [`daemon`] — the live optimization daemon: streamed epoch admission
//!   over NDJSON/TCP, cancellation and deadlines, rolling tenant quotas,
//!   and a crash-safe job journal with bit-identical restart replay.
//!
//! ## Quickstart
//!
//! ```
//! use isop::prelude::*;
//! use isop_em::simulator::AnalyticalSolver;
//! use isop_hpo::budget::Budget;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Small-budget demonstration: optimize T1 (min |L| at Z = 85 +- 1) on
//! // S_1 using the simulator itself as a perfect surrogate.
//! let space = isop::spaces::s1();
//! let surrogate = OracleSurrogate::new(AnalyticalSolver::new());
//! let simulator = AnalyticalSolver::new();
//! let mut config = IsopConfig::default();
//! config.harmonica.samples_per_stage = 60;
//! config.harmonica.stages = 1;
//! config.gd_epochs = 10;
//! let optimizer = IsopOptimizer::new(&space, &surrogate, &simulator, config);
//! let outcome = optimizer.run(
//!     isop::tasks::objective_for(TaskId::T1, vec![]),
//!     Budget::unlimited(),
//!     0,
//! );
//! let best = outcome.best().expect("found a design");
//! println!("Z = {:.2}", best.simulated.expect("verified").z_diff);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod board;
pub mod daemon;
pub mod data;
pub mod engine;
pub mod evalcache;
pub mod exec;
pub mod experiment;
pub mod jobs;
pub mod manual;
pub mod objective;
pub mod params;
pub mod pipeline;
pub mod report;
pub mod scheduler;
pub mod spaces;
pub mod surrogate;
pub mod tasks;
pub mod weights;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use crate::daemon::{Daemon, DaemonConfig, Request, Response};
    pub use crate::engine::{
        aggregate_by_tenant, Engine, EngineConfig, EngineReport, JobControls, JobResult,
        TenantSummary,
    };
    pub use crate::evalcache::{CachedSim, DesignKey, EvalCache, MemoizedSurrogate, SurrogateMemo};
    pub use crate::exec::{ControlState, CoreBudget, CoreLease, Parallelism, RunControl};
    pub use crate::experiment::{
        ExperimentContext, IsopCellOutcome, MatchMode, TrialResult, TrialStats,
    };
    pub use crate::jobs::{JobQueue, JobSpec};
    pub use crate::objective::{FomSpec, InputConstraint, Metric, Objective, OutputConstraint};
    pub use crate::params::{ParamDef, ParamSpace};
    pub use crate::pipeline::{
        DesignCandidate, IsopConfig, IsopOptimizer, IsopOutcome, RolloutResolution,
    };
    pub use crate::scheduler::{JobRollout, PoolEntry, EM_BATCH_SLOTS};
    pub use crate::surrogate::{
        CnnSurrogate, InstrumentedSurrogate, MlpSurrogate, MlpXgbSurrogate, NeuralSurrogate,
        OracleSurrogate, Surrogate,
    };
    pub use crate::tasks::TaskId;
    pub use crate::weights::WeightAdapter;
    pub use isop_em::fault::{FaultConfig, FaultInjector, RetryPolicy, SimError};
    pub use isop_telemetry::{Counter, RunReport, Telemetry};
}
