//! Physical constants and unit conversions used throughout the solver.
//!
//! Stack-up geometry is specified in **mils** (1/1000 inch), matching both
//! industrial practice and the parameter tables of the ISOP+ paper, while all
//! field computations happen in SI units. These helpers keep the conversions
//! in one place so no module hand-rolls its own factors.

/// Speed of light in vacuum, m/s.
pub const C0: f64 = 299_792_458.0;

/// Vacuum permeability, H/m.
pub const MU0: f64 = 1.256_637_061_435_917_3e-6;

/// Vacuum permittivity, F/m.
pub const EPS0: f64 = 8.854_187_817e-12;

/// Metres per mil (1 mil = 1/1000 inch = 25.4 um).
pub const METERS_PER_MIL: f64 = 25.4e-6;

/// Metres per inch.
pub const METERS_PER_INCH: f64 = 0.0254;

/// Converts a length in mils to metres.
///
/// ```
/// assert!((isop_em::units::mils_to_meters(1000.0) - 0.0254).abs() < 1e-12);
/// ```
#[inline]
pub fn mils_to_meters(mils: f64) -> f64 {
    mils * METERS_PER_MIL
}

/// Converts an attenuation constant in nepers/metre to dB/inch.
///
/// The paper reports differential insertion loss in dB/inch at 16 GHz; the
/// RLGC machinery naturally produces Np/m.
#[inline]
pub fn np_per_meter_to_db_per_inch(alpha: f64) -> f64 {
    alpha * 8.685_889_638_065_037 * METERS_PER_INCH
}

/// Converts a frequency in GHz to Hz.
#[inline]
pub fn ghz_to_hz(ghz: f64) -> f64 {
    ghz * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn np_to_db_inch_scale() {
        // 1 Np/m = 8.6859 dB/m = 0.2206 dB/inch.
        let v = np_per_meter_to_db_per_inch(1.0);
        assert!((v - 0.220_622).abs() < 1e-4, "got {v}");
    }

    #[test]
    fn light_speed_consistency() {
        // c0 = 1/sqrt(mu0 * eps0) must hold to solver accuracy.
        let c = 1.0 / (MU0 * EPS0).sqrt();
        assert!((c - C0).abs() / C0 < 1e-9);
    }

    #[test]
    fn ghz_conversion() {
        assert_eq!(ghz_to_hz(16.0), 1.6e10);
    }
}
