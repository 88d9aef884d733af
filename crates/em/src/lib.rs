//! # isop-em — coupled-stripline electromagnetic simulator
//!
//! The electromagnetic substrate of the ISOP+ reproduction: a
//! physics-based, frequency-dependent model of a **differential stripline**
//! layer in an HDI PCB stack-up, standing in for the commercial ICAT-based
//! tool used in the paper.
//!
//! The crate is organised bottom-up:
//!
//! * [`complex`] / [`units`] — numeric foundations;
//! * [`stackup`] — the 15-parameter layer description (paper Fig. 2 / Table I);
//! * [`stripline`] — closed-form impedance (Wheeler conformal mapping, edge
//!   coupling);
//! * [`roughness`] / [`rlgc`] — conductor & dielectric loss, per-unit-length
//!   line constants, and the insertion loss `L` at one frequency;
//! * [`crosstalk`] — near-end crosstalk between adjacent pairs;
//! * [`fdsolver`] — a 2-D finite-difference Laplace solver used as the
//!   approximation-free reference engine;
//! * [`simulator`] — the [`EmSimulator`] facade the
//!   optimizer consumes;
//! * [`fault`] — transient/permanent failure taxonomy
//!   ([`SimError`]), the seeded deterministic
//!   [`FaultInjector`] decorator, and the
//!   [`RetryPolicy`] the roll-out applies.
//!
//! ## Quick example
//!
//! ```
//! use isop_em::stackup::DiffStripline;
//! use isop_em::simulator::{AnalyticalSolver, EmSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layer = DiffStripline::builder()
//!     .trace_width(5.0)
//!     .trace_spacing(6.0)
//!     .dk_core(3.8)
//!     .build()?;
//! let result = AnalyticalSolver::new().simulate(&layer)?;
//! println!("Z = {:.1} ohm, L = {:.3} dB/in, NEXT = {:.2} mV",
//!          result.z_diff, result.insertion_loss, result.next);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod complex;
pub mod crosstalk;
pub mod fault;
pub mod fdsolver;
pub mod rlgc;
pub mod roughness;
pub mod simulator;
pub mod stackup;
pub mod stripline;
pub mod units;

pub use fault::{
    FaultConfig, FaultInjector, PermanentFault, RetryPolicy, SimError, TransientFault,
};
pub use simulator::{AnalyticalSolver, EmSimulator, FieldSolver, SimulationResult};
pub use stackup::{DiffStripline, GeometryError, PARAM_COUNT, PARAM_NAMES};
