//! End-to-end channel composition: stripline segments and vias cascaded
//! into one two-port, with loss-budget utilities.
//!
//! This is what a signal-integrity engineer does *after* the stack-up is
//! chosen: route the link (segments on possibly different optimized layers,
//! layer changes through vias) and check the end-to-end insertion loss
//! against the interface budget (e.g. -28 dB at Nyquist for a 32 GT/s
//! PCIe-class link).
//!
//! ```
//! use isop_em::channel::{Channel, Element};
//! use isop_em::stackup::DiffStripline;
//! use isop_em::via::Via;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layer = DiffStripline::default();
//! let channel = Channel::new(vec![
//!     Element::Stripline { layer, length_inches: 3.0 },
//!     Element::Via(Via::default()),
//!     Element::Stripline { layer, length_inches: 5.0 },
//! ])?;
//! let il = channel.insertion_loss_db(8e9);
//! assert!(il < 0.0);
//! # Ok(())
//! # }
//! ```

use crate::abcd::{to_db, AbcdMatrix};
use crate::rlgc::{odd_mode_rlgc, RlgcParams};
use crate::stackup::DiffStripline;
use crate::stripline::odd_mode_z0;
use crate::sweep::{SweepPlan, SweepView};
use crate::units::METERS_PER_INCH;
use crate::via::Via;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reference impedance (ohms) for a channel that contains no stripline
/// segment (via-only), where there is no first-segment odd-mode impedance
/// to reference S-parameters to. 42.5 ohm is the odd-mode impedance of the
/// paper's Table IX expert stripline (half of its ~85 ohm differential
/// target) — the impedance such a via would be embedded in on a real link.
pub const VIA_ONLY_Z_REF_OHMS: f64 = 42.5;

/// The ABCD matrix of a stripline segment given its per-unit-length line
/// constants at `f_hz`. This is the one place the segment matrix is built —
/// the scalar path ([`Channel::abcd`]) and the batched path
/// ([`SweepPlan`](crate::sweep::SweepPlan)) both call it, which is what
/// makes their results bit-identical by construction: the batched sweep
/// only *reuses* values from pure functions, it never re-derives them
/// through different arithmetic.
pub(crate) fn stripline_abcd(p: &RlgcParams, f_hz: f64, length_inches: f64) -> AbcdMatrix {
    AbcdMatrix::transmission_line(
        p.propagation_constant(f_hz),
        p.characteristic_impedance(f_hz),
        length_inches * METERS_PER_INCH,
    )
}

/// One element of a channel, in signal order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Element {
    /// A stripline routing segment on some stack-up layer.
    Stripline {
        /// The layer's cross-section.
        layer: DiffStripline,
        /// Routed length in inches.
        length_inches: f64,
    },
    /// A layer-change via.
    Via(Via),
}

impl Element {
    /// The element's two-port ABCD matrix at `f_hz` — the single scalar
    /// reference implementation shared by [`Channel::abcd`] and the batched
    /// sweep machinery.
    pub fn abcd_at(&self, f_hz: f64) -> AbcdMatrix {
        match self {
            Element::Stripline {
                layer,
                length_inches,
            } => stripline_abcd(&odd_mode_rlgc(layer, f_hz), f_hz, *length_inches),
            Element::Via(v) => v.abcd(f_hz),
        }
    }
}

/// Error building a channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// The element list was empty.
    Empty,
    /// A stripline layer failed validation.
    BadLayer(crate::stackup::GeometryError),
    /// A via failed validation.
    BadVia(crate::via::ViaGeometryError),
    /// A non-positive segment length.
    BadLength(f64),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Empty => write!(f, "channel needs at least one element"),
            ChannelError::BadLayer(e) => write!(f, "bad stripline layer: {e}"),
            ChannelError::BadVia(e) => write!(f, "bad via: {e}"),
            ChannelError::BadLength(l) => write!(f, "non-positive segment length {l}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// A validated multi-element channel referenced to the odd-mode impedance of
/// its first stripline segment (or 42.5 ohm if via-only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    elements: Vec<Element>,
    z_ref: f64,
}

impl Channel {
    /// Builds and validates a channel.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError`] for an empty list or any invalid element.
    pub fn new(elements: Vec<Element>) -> Result<Self, ChannelError> {
        if elements.is_empty() {
            return Err(ChannelError::Empty);
        }
        let mut z_ref = None;
        for e in &elements {
            match e {
                Element::Stripline {
                    layer,
                    length_inches,
                } => {
                    layer.validate().map_err(ChannelError::BadLayer)?;
                    if *length_inches <= 0.0 {
                        return Err(ChannelError::BadLength(*length_inches));
                    }
                    z_ref.get_or_insert_with(|| odd_mode_z0(layer));
                }
                Element::Via(v) => v.validate().map_err(ChannelError::BadVia)?,
            }
        }
        Ok(Self {
            elements,
            z_ref: z_ref.unwrap_or(VIA_ONLY_Z_REF_OHMS),
        })
    }

    /// The elements in signal order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Reference (odd-mode) impedance used for S-parameters, ohms.
    pub fn reference_impedance(&self) -> f64 {
        self.z_ref
    }

    /// Total routed length in inches (vias excluded).
    pub fn routed_length_inches(&self) -> f64 {
        self.elements
            .iter()
            .map(|e| match e {
                Element::Stripline { length_inches, .. } => *length_inches,
                Element::Via(_) => 0.0,
            })
            .sum()
    }

    /// Cascaded ABCD matrix at `f_hz` — the scalar per-point reference path.
    ///
    /// For sweeps over many frequencies, [`Channel::sweep`] computes the
    /// same chain bit-identically with per-layer RLGC results hoisted out
    /// of the frequency loop (this method recomputes RLGC for every
    /// element at every call, even when segments share a layer).
    pub fn abcd(&self, f_hz: f64) -> AbcdMatrix {
        let mut chain = AbcdMatrix::identity();
        for e in &self.elements {
            chain = chain.cascade(&e.abcd_at(f_hz));
        }
        chain
    }

    /// Sweeps the channel's four S-parameters over `plan`'s frequency grid
    /// through the batched structure-of-arrays path (see [`crate::sweep`]).
    /// Bit-identical to calling [`Channel::abcd`] +
    /// [`AbcdMatrix::to_s_params`] per point.
    pub fn sweep<'p>(&self, plan: &'p mut SweepPlan) -> SweepView<'p> {
        plan.sweep(self)
    }

    /// Batched equivalent of [`Channel::insertion_loss_db`] over `plan`'s
    /// grid: clears `out` and appends one dB value per frequency.
    /// Allocation-free once `out` has capacity.
    pub fn insertion_loss_db_sweep(&self, plan: &mut SweepPlan, out: &mut Vec<f64>) {
        let view = plan.sweep(self);
        out.clear();
        out.extend((0..view.len()).map(|i| view.il_db(i)));
    }

    /// Batched equivalent of [`Channel::return_loss_db`] over `plan`'s
    /// grid: clears `out` and appends one dB value per frequency.
    /// Allocation-free once `out` has capacity.
    pub fn return_loss_db_sweep(&self, plan: &mut SweepPlan, out: &mut Vec<f64>) {
        let view = plan.sweep(self);
        out.clear();
        out.extend((0..view.len()).map(|i| view.rl_db(i)));
    }

    /// End-to-end `|S21|` in dB at `f_hz` (non-positive for this passive
    /// network).
    pub fn insertion_loss_db(&self, f_hz: f64) -> f64 {
        let (_, s21, _, _) = self.abcd(f_hz).to_s_params(self.z_ref);
        to_db(s21)
    }

    /// `|S11|` in dB at `f_hz`.
    pub fn return_loss_db(&self, f_hz: f64) -> f64 {
        let (s11, _, _, _) = self.abcd(f_hz).to_s_params(self.z_ref);
        to_db(s11)
    }

    /// Checks the channel against a loss budget: `true` when the insertion
    /// loss at `f_hz` stays above `budget_db` (e.g. `-28.0`).
    pub fn meets_budget(&self, f_hz: f64, budget_db: f64) -> bool {
        self.insertion_loss_db(f_hz) >= budget_db
    }

    /// The margin to a loss budget at `f_hz`, dB (positive = passing).
    pub fn budget_margin_db(&self, f_hz: f64, budget_db: f64) -> f64 {
        self.insertion_loss_db(f_hz) - budget_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_inch() -> Element {
        Element::Stripline {
            layer: DiffStripline::default(),
            length_inches: 1.0,
        }
    }

    #[test]
    fn empty_channel_rejected() {
        assert_eq!(Channel::new(vec![]), Err(ChannelError::Empty));
    }

    #[test]
    fn invalid_length_rejected() {
        let e = Element::Stripline {
            layer: DiffStripline::default(),
            length_inches: -2.0,
        };
        assert!(matches!(
            Channel::new(vec![e]),
            Err(ChannelError::BadLength(_))
        ));
    }

    #[test]
    fn loss_accumulates_with_segments() {
        let short = Channel::new(vec![one_inch()]).expect("ok");
        let long = Channel::new(vec![one_inch(); 8]).expect("ok");
        let f = 1.6e10;
        let il_short = short.insertion_loss_db(f);
        let il_long = long.insertion_loss_db(f);
        assert!(il_long < il_short);
        // Matched homogeneous cascade: loss ~ linear in length.
        assert!(
            (il_long / il_short - 8.0).abs() < 0.3,
            "ratio {}",
            il_long / il_short
        );
    }

    #[test]
    fn via_adds_loss_at_high_frequency() {
        let plain = Channel::new(vec![one_inch(), one_inch()]).expect("ok");
        let with_via =
            Channel::new(vec![one_inch(), Element::Via(Via::default()), one_inch()]).expect("ok");
        let f = 2.5e10;
        assert!(with_via.insertion_loss_db(f) < plain.insertion_loss_db(f));
    }

    #[test]
    fn backdrilling_recovers_margin() {
        let stubbed = Via {
            stub_length: 35.0,
            ..Via::default()
        };
        let drilled = Via {
            stub_length: 0.0,
            ..Via::default()
        };
        let mk = |v: Via| Channel::new(vec![one_inch(), Element::Via(v), one_inch()]).expect("ok");
        let f = stubbed.stub_resonance_hz().expect("stub") * 0.9;
        assert!(
            mk(drilled).insertion_loss_db(f) > mk(stubbed).insertion_loss_db(f),
            "back-drilled channel must lose less near the stub notch"
        );
    }

    #[test]
    fn budget_check_consistency() {
        let ch = Channel::new(vec![one_inch(); 4]).expect("ok");
        let f = 1.6e10;
        let il = ch.insertion_loss_db(f);
        assert!(ch.meets_budget(f, il - 1.0));
        assert!(!ch.meets_budget(f, il + 1.0));
        assert!((ch.budget_margin_db(f, il - 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn routed_length_counts_segments_only() {
        let ch = Channel::new(vec![
            one_inch(),
            Element::Via(Via::default()),
            Element::Stripline {
                layer: DiffStripline::default(),
                length_inches: 2.5,
            },
        ])
        .expect("ok");
        assert!((ch.routed_length_inches() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn reference_impedance_tracks_first_segment() {
        let ch = Channel::new(vec![one_inch()]).expect("ok");
        assert!((ch.reference_impedance() - odd_mode_z0(&DiffStripline::default())).abs() < 1e-9);
        let via_only = Channel::new(vec![Element::Via(Via::default())]).expect("ok");
        assert_eq!(via_only.reference_impedance(), VIA_ONLY_Z_REF_OHMS);
    }

    #[test]
    fn passivity_holds_across_band() {
        let ch = Channel::new(vec![
            one_inch(),
            Element::Via(Via::default()),
            one_inch(),
            Element::Via(Via {
                stub_length: 0.0,
                ..Via::default()
            }),
            one_inch(),
        ])
        .expect("ok");
        for f in [1e8, 1e9, 8e9, 1.6e10, 3.2e10] {
            let il = ch.insertion_loss_db(f);
            assert!(il <= 1e-9, "gain at {f} Hz: {il} dB");
        }
    }
}
