//! Simulator facade: the drop-in substitute for the paper's commercial
//! "ICAT-based" EM tool.
//!
//! Two engines implement [`EmSimulator`]:
//!
//! * [`AnalyticalSolver`] — fast closed-form model (used to generate the
//!   surrogate-training dataset and for roll-out verification at scale);
//! * [`FieldSolver`] — the 2-D finite-difference engine, slower but free of
//!   closed-form approximations; used for cross-validation.
//!
//! Both report the three performance metrics the paper optimizes: the
//! differential impedance `Z` (ohms), the differential insertion loss `L` at
//! 16 GHz (dB/inch, negative), and the peak near-end crosstalk `NEXT` (mV,
//! negative). A configurable simulated latency reproduces the paper's
//! runtime accounting (45.5 s for three parallel EM runs) without actually
//! sleeping, via an internal cost ledger.

use crate::crosstalk::next_mv;
use crate::fault::SimError;
use crate::fdsolver::{solve_odd_mode, FdConfig};
use crate::rlgc::insertion_loss_db_per_inch;
use crate::stackup::DiffStripline;
use crate::stripline::differential_z0;
use isop_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Frequency at which the paper evaluates insertion loss, Hz.
pub const LOSS_EVAL_FREQ_HZ: f64 = 16.0e9;

/// The paper's reported wall-clock for three parallel EM simulations, s.
pub const PAPER_EM_BATCH_SECONDS: f64 = 45.5;

/// The three stack-up performance metrics of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Differential impedance `Z`, ohms.
    pub z_diff: f64,
    /// Differential insertion loss `L` at 16 GHz, dB/inch (negative).
    pub insertion_loss: f64,
    /// Peak near-end crosstalk `NEXT`, mV (negative).
    pub next: f64,
}

impl SimulationResult {
    /// Returns the metrics as a `[Z, L, NEXT]` array — the target vector
    /// layout used by the surrogate models.
    pub fn to_array(&self) -> [f64; 3] {
        [self.z_diff, self.insertion_loss, self.next]
    }
}

/// A performance simulator for differential stripline layers.
///
/// The trait is object-safe: the optimizer holds engines as
/// `&dyn EmSimulator` so roll-out verification can swap engines.
pub trait EmSimulator: Send + Sync {
    /// Evaluates one stack-up layer.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] classifying the failure: permanent for a
    /// physically invalid layer (or an injected unsolvable design) and
    /// transient for retryable tool failures injected by
    /// [`FaultInjector`](crate::fault::FaultInjector).
    fn simulate(&self, layer: &DiffStripline) -> Result<SimulationResult, SimError>;

    /// Nominal wall-clock cost of one evaluation in seconds, used by the
    /// experiment harness to account simulated EM time like the paper does.
    fn nominal_seconds(&self) -> f64;

    /// Engine name for reports.
    fn name(&self) -> &str;
}

/// Fast closed-form engine (Wheeler impedance + RLGC loss + coupled-line
/// crosstalk).
#[derive(Debug, Default)]
pub struct AnalyticalSolver {
    calls: AtomicU64,
    telemetry: Telemetry,
}

impl AnalyticalSolver {
    /// Creates a new engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry handle: every `simulate` call then records
    /// attempted/succeeded/failed counters and an `em.simulate` span.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of evaluations performed so far.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl EmSimulator for AnalyticalSolver {
    fn simulate(&self, layer: &DiffStripline) -> Result<SimulationResult, SimError> {
        let _span = isop_telemetry::span!(self.telemetry, "em.simulate");
        self.telemetry.incr(Counter::EmSimAttempted);
        if let Err(e) = layer.validate() {
            self.telemetry.incr(Counter::EmSimFailed);
            return Err(e.into());
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.telemetry.incr(Counter::EmSimSucceeded);
        Ok(SimulationResult {
            z_diff: differential_z0(layer),
            insertion_loss: insertion_loss_db_per_inch(layer, LOSS_EVAL_FREQ_HZ),
            next: next_mv(layer),
        })
    }

    fn nominal_seconds(&self) -> f64 {
        // The closed-form model stands in for the production tool; a single
        // accurate EM run in the paper costs PAPER_EM_BATCH_SECONDS for a
        // batch of three.
        PAPER_EM_BATCH_SECONDS / 3.0
    }

    fn name(&self) -> &str {
        "analytical"
    }
}

/// Accurate engine: finite-difference impedance, closed-form loss/crosstalk.
#[derive(Debug)]
pub struct FieldSolver {
    cfg: FdConfig,
    calls: AtomicU64,
    telemetry: Telemetry,
}

impl Default for FieldSolver {
    fn default() -> Self {
        Self::new(FdConfig::default())
    }
}

impl FieldSolver {
    /// Creates an engine with the given grid configuration. Its nominal
    /// per-run cost is the paper's accounting (`PAPER_EM_BATCH_SECONDS / 3`,
    /// same as [`AnalyticalSolver`]).
    pub fn new(cfg: FdConfig) -> Self {
        Self {
            cfg,
            calls: AtomicU64::new(0),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (see
    /// [`AnalyticalSolver::with_telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of evaluations performed so far.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl EmSimulator for FieldSolver {
    fn simulate(&self, layer: &DiffStripline) -> Result<SimulationResult, SimError> {
        let _span = isop_telemetry::span!(self.telemetry, "em.simulate");
        self.telemetry.incr(Counter::EmSimAttempted);
        if let Err(e) = layer.validate() {
            self.telemetry.incr(Counter::EmSimFailed);
            return Err(e.into());
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.telemetry.incr(Counter::EmSimSucceeded);
        let sol = solve_odd_mode(layer, &self.cfg);
        Ok(SimulationResult {
            z_diff: sol.z_diff(),
            insertion_loss: insertion_loss_db_per_inch(layer, LOSS_EVAL_FREQ_HZ),
            next: next_mv(layer),
        })
    }

    fn nominal_seconds(&self) -> f64 {
        PAPER_EM_BATCH_SECONDS / 3.0
    }

    fn name(&self) -> &str {
        "field-solver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_reports_all_metrics() {
        let sim = AnalyticalSolver::new();
        let r = sim
            .simulate(&DiffStripline::default())
            .expect("valid layer");
        assert!(r.z_diff > 40.0 && r.z_diff < 150.0);
        assert!(r.insertion_loss < 0.0);
        assert!(r.next <= 0.0);
        assert_eq!(sim.call_count(), 1);
    }

    #[test]
    fn invalid_layer_is_rejected() {
        let sim = AnalyticalSolver::new();
        let bad = DiffStripline {
            trace_width: -1.0,
            ..DiffStripline::default()
        };
        assert!(sim.simulate(&bad).is_err());
        assert_eq!(sim.call_count(), 0, "failed runs must not count");
    }

    #[test]
    fn telemetry_counts_attempts_successes_failures() {
        let tele = Telemetry::enabled();
        let sim = AnalyticalSolver::new().with_telemetry(tele.clone());
        sim.simulate(&DiffStripline::default())
            .expect("valid layer");
        let bad = DiffStripline {
            trace_width: -1.0,
            ..DiffStripline::default()
        };
        assert!(sim.simulate(&bad).is_err());
        assert_eq!(tele.counter(Counter::EmSimAttempted), 2);
        assert_eq!(tele.counter(Counter::EmSimSucceeded), 1);
        assert_eq!(tele.counter(Counter::EmSimFailed), 1);
        let report = tele.run_report();
        assert_eq!(report.span("em.simulate").expect("span recorded").count, 2);
    }

    #[test]
    fn to_array_layout() {
        let r = SimulationResult {
            z_diff: 85.0,
            insertion_loss: -0.4,
            next: -0.5,
        };
        assert_eq!(r.to_array(), [85.0, -0.4, -0.5]);
    }

    #[test]
    fn engines_agree_on_impedance() {
        let layer = DiffStripline::default();
        let a = AnalyticalSolver::new().simulate(&layer).unwrap();
        let f = FieldSolver::new(FdConfig {
            cells_per_mil: 2.5,
            tolerance: 1e-5,
            ..FdConfig::default()
        })
        .simulate(&layer)
        .unwrap();
        let rel = (a.z_diff - f.z_diff).abs() / a.z_diff;
        assert!(rel < 0.15, "analytical {} vs FD {}", a.z_diff, f.z_diff);
        // Loss and NEXT share the same model by construction.
        assert_eq!(a.insertion_loss, f.insertion_loss);
        assert_eq!(a.next, f.next);
    }

    /// Calibration anchor: the expert design of paper Table IX
    /// (`T1 Manual` row) must land near its published metrics:
    /// Z = 85.69 ohm, L = -0.434 dB/inch, NEXT = -2.77 mV.
    #[test]
    fn table_ix_manual_design_calibration() {
        let manual = DiffStripline {
            trace_width: 5.0,
            trace_spacing: 6.0,
            pair_distance: 20.0,
            etch_factor: 0.0,
            trace_height: 1.5,
            core_height: 8.0,
            prepreg_height: 8.0,
            conductivity: 5.8e7,
            roughness: -14.5,
            dk_trace: 4.30,
            dk_core: 4.30,
            dk_prepreg: 4.30,
            df_trace: 0.001,
            df_core: 0.001,
            df_prepreg: 0.001,
        };
        let r = AnalyticalSolver::new().simulate(&manual).unwrap();
        assert!(
            (r.z_diff - 85.69).abs() < 4.0,
            "Z calibration off: {}",
            r.z_diff
        );
        assert!(
            (r.insertion_loss - (-0.434)).abs() < 0.12,
            "L calibration off: {}",
            r.insertion_loss
        );
        assert!(
            (r.next.abs() - 2.77).abs() < 1.6,
            "NEXT calibration off: {}",
            r.next
        );
    }
}
