//! Fault model for the EM simulator stack: typed transient/permanent
//! failures, a seeded deterministic fault injector, and the retry policy
//! the stage-3 roll-out applies.
//!
//! Production EM tools fail in two distinct ways and the roll-out must
//! treat them differently:
//!
//! * **Transient** faults (license contention, mesh non-convergence,
//!   timeouts) are worth retrying — the same design may well succeed on
//!   the next attempt.
//! * **Permanent** faults (physically invalid geometry, an unsolvable
//!   mesh) will fail identically forever; retrying wastes budget and the
//!   scheduler should instead *top up* from the surrogate-ranked pool.
//!
//! [`FaultInjector`] wraps any [`EmSimulator`] and injects synthetic
//! transient/permanent faults from a seeded stream. Determinism contract:
//! every fault decision is a pure function of `(fault seed, design
//! identity, attempt number)` — **never** of call order or thread
//! interleaving — so a roll-out at `threads = 1` observes bit-identical
//! faults, retries, and outcomes to the same roll-out at `threads = N`.
//! The design identity is an FNV-1a hash over the bit patterns of the
//! design's 15 parameter values; roll-out candidates are grid-canonical
//! (snapped to grid levels before simulation), so equal value bits are
//! equivalent to equal grid indices.
//!
//! [`RetryPolicy`] bounds how many attempts a design gets. A retry waits
//! for nothing: the roll-out scheduler re-issues it in a later batch, and
//! the only cost it bills is that batch's slot.

use crate::simulator::{EmSimulator, SimulationResult};
use crate::stackup::{DiffStripline, GeometryError};
use isop_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// A simulator failure worth retrying: the same design may succeed on the
/// next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransientFault {
    /// All solver licenses were checked out.
    LicenseContention,
    /// The adaptive mesh failed to converge within its iteration budget.
    MeshNonConvergence,
    /// The solver exceeded its wall-clock limit.
    Timeout,
}

impl fmt::Display for TransientFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransientFault::LicenseContention => write!(f, "license contention"),
            TransientFault::MeshNonConvergence => write!(f, "mesh non-convergence"),
            TransientFault::Timeout => write!(f, "solver timeout"),
        }
    }
}

/// A simulator failure that will recur on every attempt for the same
/// design; retrying is pointless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermanentFault {
    /// The layer is physically invalid (fail-fast pre-flight validation;
    /// no solver time is spent).
    Geometry(GeometryError),
    /// The solver deterministically cannot solve this design (e.g. a
    /// degenerate mesh); injected by [`FaultInjector`].
    Unsolvable,
}

impl fmt::Display for PermanentFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PermanentFault::Geometry(e) => write!(f, "invalid geometry: {e}"),
            PermanentFault::Unsolvable => write!(f, "unsolvable design"),
        }
    }
}

/// The error type of [`EmSimulator::simulate`]: every failure is classified
/// transient or permanent so the roll-out scheduler can decide between
/// retry and top-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Retryable failure.
    Transient(TransientFault),
    /// Unretryable failure.
    Permanent(PermanentFault),
}

impl SimError {
    /// Whether a retry of the same design could succeed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::Transient(_))
    }

    /// Whether every future attempt of the same design will fail too.
    #[must_use]
    pub fn is_permanent(&self) -> bool {
        matches!(self, SimError::Permanent(_))
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Transient(t) => write!(f, "transient EM failure: {t}"),
            SimError::Permanent(p) => write!(f, "permanent EM failure: {p}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<GeometryError> for SimError {
    fn from(e: GeometryError) -> Self {
        SimError::Permanent(PermanentFault::Geometry(e))
    }
}

/// Bounded-retry budget for transient EM failures.
///
/// With the default of 3 attempts, a design may fail transiently twice
/// and still be delivered by its third attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum simulation attempts per design (including the first);
    /// clamped to at least 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// Effective attempt budget (never below 1).
    #[must_use]
    pub fn attempt_budget(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Retries still available to a flight that has already run `attempts`
    /// attempts — the roll-out scheduler's re-enqueue predicate. Zero means
    /// the next transient failure is terminal (the design counts as a
    /// permanent failure and the scheduler draws a top-up instead).
    #[must_use]
    pub fn retries_remaining(&self, attempts: u32) -> u32 {
        self.attempt_budget().saturating_sub(attempts)
    }
}

/// Fault rates and seed for a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that any single attempt fails transiently, in `[0, 1]`.
    pub transient_rate: f64,
    /// Probability that a design is *doomed* — every attempt fails
    /// permanently — in `[0, 1]`. Rolled once per design, not per attempt.
    pub permanent_rate: f64,
    /// Seed of the fault stream. Two injectors with equal seeds and rates
    /// inject identical faults for identical designs.
    pub seed: u64,
}

impl FaultConfig {
    /// A configuration that injects nothing; wrapping with it is a
    /// bit-exact no-op (verified by the integration suite).
    #[must_use]
    pub fn disabled(seed: u64) -> Self {
        Self {
            transient_rate: 0.0,
            permanent_rate: 0.0,
            seed,
        }
    }

    /// Whether this configuration can ever inject a fault.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.transient_rate > 0.0 || self.permanent_rate > 0.0
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a mixed word to the unit interval `[0, 1)` using the top 53 bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

const PERMANENT_SALT: u64 = 0x5045_524d_414e_4546; // "PERMANEF"
const TRANSIENT_SALT: u64 = 0x5452_414e_5349_454e; // "TRANSIEN"

/// Deterministic fault-injecting decorator over any [`EmSimulator`].
///
/// Each fault decision hashes `(seed, design key, attempt)` — the design
/// key is an FNV-1a over the design's parameter bit patterns, and the
/// attempt number is tracked per design key — so the fault stream is a
/// property of the *design*, never of call order or thread interleaving.
/// A doomed design (permanent roll below `permanent_rate`) fails every
/// attempt; transient faults are rolled independently per attempt.
///
/// Injected failures tick `em.sim.attempted` and `em.sim.failed` on the
/// injector's telemetry handle (the inner engine is not called), keeping
/// the invariant `attempted == succeeded + failed` across the stack.
#[derive(Debug)]
pub struct FaultInjector<S> {
    inner: S,
    config: FaultConfig,
    telemetry: Telemetry,
    /// Attempts observed so far per design key. Designs retry serially
    /// (one worker owns a design's whole retry chain), so the per-design
    /// sequence is deterministic even though the map is shared.
    attempts: Mutex<HashMap<u64, u32>>,
}

impl<S: EmSimulator> FaultInjector<S> {
    /// Wraps `inner` with the given fault stream.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        Self {
            inner,
            config,
            telemetry: Telemetry::disabled(),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a telemetry handle for the attempted/failed counters of
    /// *injected* faults. Pass the same handle the inner engine records
    /// to, so the ledger stays consistent.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Call-order-independent identity of a design: FNV-1a over the bit
    /// patterns of its 15 parameters. Roll-out designs are grid-canonical,
    /// so equal bits ≡ equal grid indices.
    #[must_use]
    pub fn design_key(layer: &DiffStripline) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in layer.to_vector() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Whether `layer` is doomed: its per-design permanent roll fires.
    /// Independent of the attempt number so a doomed design fails forever.
    #[must_use]
    pub fn is_doomed(&self, layer: &DiffStripline) -> bool {
        if self.config.permanent_rate <= 0.0 {
            return false;
        }
        let key = Self::design_key(layer);
        unit(mix64(self.config.seed ^ PERMANENT_SALT ^ mix64(key))) < self.config.permanent_rate
    }

    /// Whether attempt number `attempt` (1-based) of `layer` fails
    /// transiently, and with which fault.
    fn transient_fault(&self, key: u64, attempt: u32) -> Option<TransientFault> {
        if self.config.transient_rate <= 0.0 {
            return None;
        }
        let word = mix64(self.config.seed ^ TRANSIENT_SALT ^ mix64(key) ^ u64::from(attempt));
        if unit(word) >= self.config.transient_rate {
            return None;
        }
        Some(match mix64(word) % 3 {
            0 => TransientFault::LicenseContention,
            1 => TransientFault::MeshNonConvergence,
            _ => TransientFault::Timeout,
        })
    }
}

impl<S: EmSimulator> EmSimulator for FaultInjector<S> {
    fn simulate(&self, layer: &DiffStripline) -> Result<SimulationResult, SimError> {
        if !self.config.is_active() {
            // Inactive injector is a transparent pass-through: no hashing,
            // no attempt bookkeeping, bit-identical to the bare engine.
            return self.inner.simulate(layer);
        }
        let key = Self::design_key(layer);
        let attempt = {
            let mut map = self.attempts.lock().expect("fault attempt map lock");
            let slot = map.entry(key).or_insert(0);
            *slot += 1;
            *slot
        };
        if self.is_doomed(layer) {
            self.telemetry.incr(Counter::EmSimAttempted);
            self.telemetry.incr(Counter::EmSimFailed);
            return Err(SimError::Permanent(PermanentFault::Unsolvable));
        }
        if let Some(fault) = self.transient_fault(key, attempt) {
            self.telemetry.incr(Counter::EmSimAttempted);
            self.telemetry.incr(Counter::EmSimFailed);
            return Err(SimError::Transient(fault));
        }
        self.inner.simulate(layer)
    }

    fn nominal_seconds(&self) -> f64 {
        self.inner.nominal_seconds()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::AnalyticalSolver;

    fn layer_with_width(w: f64) -> DiffStripline {
        DiffStripline {
            trace_width: w,
            ..DiffStripline::default()
        }
    }

    #[test]
    fn sim_error_classifies_and_displays() {
        let t = SimError::Transient(TransientFault::Timeout);
        assert!(t.is_transient() && !t.is_permanent());
        assert!(t.to_string().contains("timeout"));
        let p = SimError::Permanent(PermanentFault::Unsolvable);
        assert!(p.is_permanent() && !p.is_transient());
        assert!(p.to_string().contains("unsolvable"));
        let geom = layer_with_width(-1.0).validate().expect_err("invalid");
        let g: SimError = geom.into();
        assert!(g.is_permanent());
        assert!(g.to_string().contains("trace_width"));
    }

    #[test]
    fn retries_remaining_counts_down_to_zero() {
        let p = RetryPolicy::default(); // attempt budget 3
        assert_eq!(p.retries_remaining(0), 3);
        assert_eq!(p.retries_remaining(1), 2);
        assert_eq!(p.retries_remaining(3), 0);
        assert_eq!(p.retries_remaining(99), 0);
    }

    #[test]
    fn attempt_budget_never_drops_below_one() {
        assert_eq!(RetryPolicy::default().attempt_budget(), 3);
        let degenerate = RetryPolicy { max_attempts: 0 };
        assert_eq!(degenerate.attempt_budget(), 1);
        assert_eq!(degenerate.retries_remaining(0), 1);
    }

    #[test]
    fn rate_zero_injector_is_transparent() {
        let layer = DiffStripline::default();
        let bare = AnalyticalSolver::new().simulate(&layer).expect("valid");
        let wrapped = FaultInjector::new(AnalyticalSolver::new(), FaultConfig::disabled(7));
        let via = wrapped.simulate(&layer).expect("valid");
        assert_eq!(
            bare.to_array().map(f64::to_bits),
            via.to_array().map(f64::to_bits)
        );
        assert_eq!(
            wrapped.nominal_seconds(),
            AnalyticalSolver::new().nominal_seconds()
        );
        assert_eq!(wrapped.name(), "analytical");
    }

    #[test]
    fn fault_stream_is_keyed_by_design_not_call_order() {
        let cfg = FaultConfig {
            transient_rate: 0.5,
            permanent_rate: 0.2,
            seed: 42,
        };
        let layers: Vec<DiffStripline> = (0..24)
            .map(|i| layer_with_width(4.0 + 0.25 * f64::from(i)))
            .collect();
        let record = |order: &[usize]| -> Vec<Vec<bool>> {
            let inj = FaultInjector::new(AnalyticalSolver::new(), cfg);
            // Two attempts per design, issued in the given design order.
            let mut per_design = vec![Vec::new(); layers.len()];
            for round in 0..2 {
                let _ = round;
                for &i in order {
                    per_design[i].push(inj.simulate(&layers[i]).is_ok());
                }
            }
            per_design
        };
        let forward: Vec<usize> = (0..layers.len()).collect();
        let reverse: Vec<usize> = (0..layers.len()).rev().collect();
        assert_eq!(
            record(&forward),
            record(&reverse),
            "per-design outcome sequences must not depend on call order"
        );
    }

    #[test]
    fn doomed_designs_fail_every_attempt() {
        let cfg = FaultConfig {
            transient_rate: 0.0,
            permanent_rate: 0.4,
            seed: 3,
        };
        let inj = FaultInjector::new(AnalyticalSolver::new(), cfg);
        let mut saw_doomed = false;
        let mut saw_clean = false;
        for i in 0..32 {
            let layer = layer_with_width(4.0 + 0.2 * f64::from(i));
            let doomed = inj.is_doomed(&layer);
            saw_doomed |= doomed;
            saw_clean |= !doomed;
            for _ in 0..3 {
                let out = inj.simulate(&layer);
                if doomed {
                    assert_eq!(out, Err(SimError::Permanent(PermanentFault::Unsolvable)));
                } else {
                    assert!(out.is_ok());
                }
            }
        }
        assert!(saw_doomed && saw_clean, "rate 0.4 over 32 designs must mix");
    }

    #[test]
    fn injected_faults_keep_counter_invariant() {
        let tele = Telemetry::enabled();
        let cfg = FaultConfig {
            transient_rate: 0.6,
            permanent_rate: 0.2,
            seed: 11,
        };
        let inj = FaultInjector::new(AnalyticalSolver::new().with_telemetry(tele.clone()), cfg)
            .with_telemetry(tele.clone());
        for i in 0..20 {
            let _ = inj.simulate(&layer_with_width(4.0 + 0.3 * f64::from(i)));
        }
        let attempted = tele.counter(Counter::EmSimAttempted);
        let succeeded = tele.counter(Counter::EmSimSucceeded);
        let failed = tele.counter(Counter::EmSimFailed);
        assert_eq!(attempted, 20);
        assert_eq!(attempted, succeeded + failed);
        assert!(failed > 0, "rates 0.6/0.2 over 20 designs must inject");
    }

    #[test]
    fn transient_faults_vary_by_attempt() {
        let cfg = FaultConfig {
            transient_rate: 0.5,
            permanent_rate: 0.0,
            seed: 9,
        };
        let inj = FaultInjector::new(AnalyticalSolver::new(), cfg);
        // With per-attempt rolls at rate 0.5, some design must flip from
        // failure to success within its first few attempts.
        let mut saw_recovery = false;
        for i in 0..32 {
            let layer = layer_with_width(4.0 + 0.2 * f64::from(i));
            let first = inj.simulate(&layer).is_ok();
            let second = inj.simulate(&layer).is_ok();
            if !first && second {
                saw_recovery = true;
                break;
            }
        }
        assert!(saw_recovery, "transient faults must clear on retry");
    }
}
