//! Closed-form impedance models for single and edge-coupled striplines.
//!
//! The characteristic impedance of a symmetric stripline is computed with
//! Wheeler's conformal-mapping approximation (as collected in Wadell,
//! *Transmission Line Design Handbook*), including a finite-thickness width
//! correction. Offset (asymmetric) striplines — the general case here, since
//! core and prepreg heights differ — are handled with the standard
//! parallel-combination rule of the two bounding symmetric striplines.
//! Edge coupling between the two traces of a differential pair uses an
//! exponential coupling-coefficient model calibrated against published
//! industrial design points (see `calibration` tests in `simulator.rs`).
//!
//! All geometric inputs are in **mils**; impedances in ohms.

use crate::stackup::DiffStripline;

/// Coupling-coefficient amplitude for the edge-coupled pair model.
///
/// Calibrated (together with [`COUPLING_DECAY`]) against two anchors: the
/// in-crate 2-D finite-difference solver's odd-mode impedance across the
/// spacing range `S in [2, 20]` mils, and the expert design of the paper's
/// Table IX (`W=5, S=6, Hc=Hp=8, Ht=1.5, Dk=4.3`) whose published
/// differential impedance is 85.7 ohms.
pub const COUPLING_AMPLITUDE: f64 = 0.68;

/// Exponential decay rate of the coupling coefficient with `S / b`.
pub const COUPLING_DECAY: f64 = 3.7;

/// Finite-thickness effective-width correction for a stripline trace.
///
/// Returns the width increment `dW` (mils) to add to the drawn width, using
/// the standard logarithmic correction for a strip of thickness `t` between
/// planes `b` apart. Tends to zero as `t -> 0`.
pub fn thickness_correction_mils(width: f64, thickness: f64, plane_spacing: f64) -> f64 {
    if thickness <= 0.0 {
        return 0.0;
    }
    let ratio_b = thickness / plane_spacing;
    let ratio_w = std::f64::consts::PI * thickness / (4.0 * width);
    let arg = 4.0 * std::f64::consts::E / (ratio_b * ratio_b + ratio_w * ratio_w).sqrt();
    (thickness / std::f64::consts::PI) * arg.ln()
}

/// Characteristic impedance of a symmetric stripline (ohms).
///
/// `width` and `thickness` describe the trace, `plane_spacing` is the
/// plane-to-plane dielectric height `b`, and `er` the relative permittivity.
/// Uses Wheeler's single-formula approximation, accurate to a few percent
/// over the full `w/b` range used in PCB design.
///
/// # Panics
///
/// Panics in debug builds if any dimension is non-positive.
pub fn symmetric_stripline_z0(width: f64, thickness: f64, plane_spacing: f64, er: f64) -> f64 {
    debug_assert!(width > 0.0 && plane_spacing > thickness && er >= 1.0);
    let w_eff = width + thickness_correction_mils(width, thickness, plane_spacing);
    let u = w_eff / (plane_spacing - thickness);
    let q = 8.0 / (std::f64::consts::PI * u);
    let inner = q + (q * q + 6.27).sqrt();
    30.0 / er.sqrt() * (1.0 + (4.0 / (std::f64::consts::PI * u)) * inner).ln()
}

/// Single-ended (uncoupled) impedance of the stripline trace in its actual
/// offset position between the core and prepreg (ohms).
///
/// An offset stripline behaves as the parallel combination of two symmetric
/// striplines whose half-heights match the distances to each plane:
/// `Z = 2 * Z1 * Z2 / (Z1 + Z2)`.
pub fn single_ended_z0(layer: &DiffStripline) -> f64 {
    let er = layer.effective_dk();
    let w = layer.effective_width_mils();
    let t = layer.trace_height;
    // Plane distances measured from the trace centre to each plane.
    let b1 = 2.0 * layer.core_height + t;
    let b2 = 2.0 * layer.prepreg_height + t;
    let z1 = symmetric_stripline_z0(w, t, b1, er);
    let z2 = symmetric_stripline_z0(w, t, b2, er);
    2.0 * z1 * z2 / (z1 + z2)
}

/// Electromagnetic coupling coefficient between two parallel striplines whose
/// edge-to-edge separation is `separation` (mils) between planes `b` apart.
///
/// In the homogeneous stripline medium the inductive and capacitive coupling
/// coefficients coincide; both are modelled as
/// `k = K0 * exp(-a * s / b)`, the classical exponential fall-off of
/// edge-coupled lines.
pub fn coupling_coefficient(separation: f64, plane_spacing: f64) -> f64 {
    coupling_coefficient_with(
        separation,
        plane_spacing,
        COUPLING_AMPLITUDE,
        COUPLING_DECAY,
    )
}

/// [`coupling_coefficient`] with explicit amplitude/decay constants.
///
/// The crosstalk model uses a slower decay than the impedance model: the
/// odd-mode impedance is set by the strong near-field between the pair's own
/// traces, while pair-to-pair crosstalk rides on the weaker far-field tail,
/// whose best exponential fit over the relevant distance range has a smaller
/// rate.
pub fn coupling_coefficient_with(
    separation: f64,
    plane_spacing: f64,
    amplitude: f64,
    decay: f64,
) -> f64 {
    debug_assert!(plane_spacing > 0.0);
    if separation <= 0.0 {
        return amplitude;
    }
    amplitude * (-decay * separation / plane_spacing).exp()
}

/// Odd-mode impedance of the differential pair (ohms).
///
/// With equal inductive and capacitive coupling `k`,
/// `Z_odd = Z0 * sqrt((1 - k) / (1 + k))`.
pub fn odd_mode_z0(layer: &DiffStripline) -> f64 {
    let z0 = single_ended_z0(layer);
    let k = coupling_coefficient(layer.trace_spacing, layer.plane_spacing_mils());
    z0 * ((1.0 - k) / (1.0 + k)).sqrt()
}

/// Differential impedance `Z_diff = 2 * Z_odd` (ohms) — the quantity the
/// paper's `Z` targets (85 or 100 ohms).
pub fn differential_z0(layer: &DiffStripline) -> f64 {
    2.0 * odd_mode_z0(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stackup::DiffStripline;

    #[test]
    fn thickness_correction_vanishes_for_thin_strip() {
        let d = thickness_correction_mils(5.0, 1e-9, 12.0);
        assert!(d.abs() < 1e-7);
    }

    #[test]
    fn z0_decreases_with_width() {
        let narrow = symmetric_stripline_z0(3.0, 1.2, 12.0, 4.0);
        let wide = symmetric_stripline_z0(8.0, 1.2, 12.0, 4.0);
        assert!(
            wide < narrow,
            "wider trace must have lower impedance ({wide} !< {narrow})"
        );
    }

    #[test]
    fn z0_decreases_with_dk() {
        let lo = symmetric_stripline_z0(5.0, 1.2, 12.0, 2.5);
        let hi = symmetric_stripline_z0(5.0, 1.2, 12.0, 4.5);
        assert!(hi < lo);
        // Ideal TEM scaling: Z ~ 1/sqrt(er).
        assert!((hi * 4.5f64.sqrt() - lo * 2.5f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn z0_increases_with_plane_spacing() {
        let thin = symmetric_stripline_z0(5.0, 1.2, 8.0, 4.0);
        let thick = symmetric_stripline_z0(5.0, 1.2, 16.0, 4.0);
        assert!(thick > thin);
    }

    #[test]
    fn z0_in_plausible_pcb_range() {
        // Typical geometries must land in the 20..120 ohm realm.
        for w in [3.0, 5.0, 8.0] {
            for b in [10.0, 14.0, 18.0] {
                let z = symmetric_stripline_z0(w, 1.2, b, 3.8);
                assert!((20.0..120.0).contains(&z), "Z0={z} for w={w}, b={b}");
            }
        }
    }

    #[test]
    fn offset_combination_below_best_half() {
        // The parallel combination is below twice the smaller symmetric Z.
        let layer = DiffStripline::builder()
            .core_height(4.0)
            .prepreg_height(10.0)
            .build()
            .unwrap();
        let z = single_ended_z0(&layer);
        assert!(z > 0.0 && z < 120.0);
    }

    #[test]
    fn coupling_decays_with_separation() {
        let near = coupling_coefficient(2.0, 14.0);
        let far = coupling_coefficient(10.0, 14.0);
        assert!(near > far);
        assert!(far > 0.0);
        assert!(near < 1.0);
    }

    #[test]
    fn coupling_saturates_at_zero_separation() {
        assert_eq!(coupling_coefficient(0.0, 14.0), COUPLING_AMPLITUDE);
        assert_eq!(coupling_coefficient(-1.0, 14.0), COUPLING_AMPLITUDE);
    }

    #[test]
    fn odd_mode_below_single_ended() {
        let layer = DiffStripline::default();
        let zodd = odd_mode_z0(&layer);
        let z0 = single_ended_z0(&layer);
        assert!(zodd < z0, "{zodd} !< {z0}");
    }

    #[test]
    fn differential_is_twice_odd() {
        let layer = DiffStripline::default();
        assert!((differential_z0(&layer) - 2.0 * odd_mode_z0(&layer)).abs() < 1e-12);
    }

    #[test]
    fn wider_spacing_raises_differential_z() {
        let tight = DiffStripline::builder().trace_spacing(3.0).build().unwrap();
        let loose = DiffStripline::builder().trace_spacing(9.0).build().unwrap();
        assert!(differential_z0(&loose) > differential_z0(&tight));
    }

    #[test]
    fn default_design_near_85_ohms() {
        // The default layer is meant to be an 85-ohm-class design.
        let z = differential_z0(&DiffStripline::default());
        assert!((70.0..100.0).contains(&z), "Zdiff = {z}");
    }
}
