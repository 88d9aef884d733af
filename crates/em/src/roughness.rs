//! Copper surface-roughness loss models.
//!
//! Rough copper increases conductor loss once the skin depth shrinks to the
//! scale of the tooth structure. [`hammerstad_jensen_factor`] is the
//! classic closed-form multiplier, saturating at 2x: it takes the RMS
//! roughness in micrometres and the skin depth in metres and returns the
//! factor `K >= 1` by which smooth-copper resistance is multiplied.

use crate::units::MU0;

/// Skin depth in metres for a conductor of conductivity `sigma` (S/m) at
/// frequency `f_hz`.
///
/// ```
/// // Copper at 1 GHz: ~2.1 um.
/// let d = isop_em::roughness::skin_depth(5.8e7, 1e9);
/// assert!((d - 2.09e-6).abs() < 0.05e-6);
/// ```
pub fn skin_depth(sigma: f64, f_hz: f64) -> f64 {
    debug_assert!(sigma > 0.0 && f_hz > 0.0);
    1.0 / (std::f64::consts::PI * f_hz * MU0 * sigma).sqrt()
}

/// Hammerstad–Jensen roughness multiplier.
///
/// `K = 1 + (2/pi) * atan(1.4 * (delta_rms / skin_depth)^2)`, saturating at 2.
pub fn hammerstad_jensen_factor(rms_um: f64, skin_depth_m: f64) -> f64 {
    if rms_um <= 0.0 {
        return 1.0;
    }
    let ratio = rms_um * 1e-6 / skin_depth_m;
    1.0 + (2.0 / std::f64::consts::PI) * (1.4 * ratio * ratio).atan()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COPPER: f64 = 5.8e7;

    #[test]
    fn skin_depth_decreases_with_frequency() {
        let d1 = skin_depth(COPPER, 1e9);
        let d16 = skin_depth(COPPER, 16e9);
        assert!(d16 < d1);
        // delta ~ 1/sqrt(f): 16x frequency -> 4x smaller depth.
        assert!((d1 / d16 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn smooth_copper_has_unit_factor() {
        let d = skin_depth(COPPER, 16e9);
        assert_eq!(hammerstad_jensen_factor(0.0, d), 1.0);
    }

    #[test]
    fn hammerstad_saturates_at_two() {
        let d = skin_depth(COPPER, 50e9);
        let k = hammerstad_jensen_factor(10.0, d);
        assert!(k < 2.0 && k > 1.9, "k = {k}");
    }

    #[test]
    fn factors_increase_with_roughness() {
        let d = skin_depth(COPPER, 16e9);
        let k1 = hammerstad_jensen_factor(0.5, d);
        let k2 = hammerstad_jensen_factor(2.0, d);
        assert!(k2 > k1 && k1 > 1.0);
    }

    #[test]
    fn factors_increase_with_frequency() {
        let k_lo = hammerstad_jensen_factor(1.5, skin_depth(COPPER, 1e9));
        let k_hi = hammerstad_jensen_factor(1.5, skin_depth(COPPER, 16e9));
        assert!(k_hi > k_lo);
    }
}
