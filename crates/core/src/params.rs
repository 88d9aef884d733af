//! Discrete design-parameter spaces and their binary encoding (paper
//! Eqs. 4–6).
//!
//! Each stack-up parameter is a uniform grid `{x_L, x_L + dx, ..., x_U}`.
//! A parameter with `c` grid levels occupies `ceil(log2(c))` bits; a design
//! vector concatenates all parameter codes into one bitstring, giving the
//! binary cube Harmonica searches. Codes that decode past the last level are
//! **invalid** (Table III's `2^73` codes vs `7.14e19` valid designs in `S_1`)
//! and are excluded from evaluation, exactly as Section IV-A prescribes.

use isop_hpo::space::BinarySpace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One discrete design parameter (a uniform grid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamDef {
    /// Parameter name (matches `isop_em::PARAM_NAMES`).
    pub name: String,
    /// Lower bound `x_L`.
    pub lo: f64,
    /// Upper bound `x_U`.
    pub hi: f64,
    /// Increment `dx`.
    pub step: f64,
}

/// Error for values/codes outside a parameter grid.
#[derive(Debug, Clone, PartialEq)]
pub struct OutOfRangeError {
    param: String,
    value: f64,
}

impl fmt::Display for OutOfRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} outside the grid of parameter {}",
            self.value, self.param
        )
    }
}

impl std::error::Error for OutOfRangeError {}

impl ParamDef {
    /// Creates a grid parameter.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `step > 0`.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64, step: f64) -> Self {
        assert!(step > 0.0, "step must be positive");
        assert!(lo < hi, "lo must be below hi");
        Self {
            name: name.into(),
            lo,
            hi,
            step,
        }
    }

    /// Number of grid levels `(x_U - x_L)/dx + 1` (paper Table III "case").
    pub fn n_levels(&self) -> usize {
        (((self.hi - self.lo) / self.step).round() as usize) + 1
    }

    /// Bits needed to encode every level (paper Table III "bits").
    pub fn n_bits(&self) -> usize {
        let c = self.n_levels();
        if c <= 1 {
            0
        } else {
            (usize::BITS - (c - 1).leading_zeros()) as usize
        }
    }

    /// Value of grid level `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= n_levels()`.
    pub fn value_of(&self, level: usize) -> f64 {
        assert!(level < self.n_levels(), "level out of range");
        self.lo + level as f64 * self.step
    }

    /// Grid level of (approximately) `value`, or an error when it falls
    /// outside `[x_L, x_U]`.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] outside the grid span (half a step of
    /// slack is allowed at both ends).
    pub fn level_of(&self, value: f64) -> Result<usize, OutOfRangeError> {
        let level = ((value - self.lo) / self.step).round();
        if level < -0.01 || level > (self.n_levels() - 1) as f64 + 0.01 {
            return Err(OutOfRangeError {
                param: self.name.clone(),
                value,
            });
        }
        Ok(level.clamp(0.0, (self.n_levels() - 1) as f64) as usize)
    }

    /// Rounds a continuous value onto the grid, clamping to the span
    /// (paper Eq. 6).
    pub fn round_to_grid(&self, value: f64) -> f64 {
        let level = ((value - self.lo) / self.step).round();
        let level = level.clamp(0.0, (self.n_levels() - 1) as f64);
        self.lo + level * self.step
    }

    /// `true` when `value` sits on the grid (within floating tolerance).
    pub fn contains(&self, value: f64) -> bool {
        if value < self.lo - 1e-9 || value > self.hi + 1e-9 {
            return false;
        }
        let level = (value - self.lo) / self.step;
        (level - level.round()).abs() < 1e-6
    }
}

/// An ordered collection of [`ParamDef`]s: the design search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
}

impl ParamSpace {
    /// Creates a space from parameter definitions.
    ///
    /// # Panics
    ///
    /// Panics on an empty parameter list.
    pub fn new(params: Vec<ParamDef>) -> Self {
        assert!(!params.is_empty(), "space needs at least one parameter");
        Self { params }
    }

    /// The parameters, in encoding order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// Total bits of the binary encoding (Table III's per-space sum).
    pub fn total_bits(&self) -> usize {
        self.params.iter().map(ParamDef::n_bits).sum()
    }

    /// Number of *valid* designs (product of level counts), as `f64`.
    pub fn n_valid(&self) -> f64 {
        self.params.iter().map(|p| p.n_levels() as f64).product()
    }

    /// Per-parameter level counts (for [`isop_hpo::DiscreteSpace`]).
    pub fn cardinalities(&self) -> Vec<usize> {
        self.params.iter().map(ParamDef::n_levels).collect()
    }

    /// The free binary cube of this space's encoding, with one field per
    /// parameter (its bit width and level count), so that
    /// [`BinarySpace::sample`] draws only codes that
    /// [`ParamSpace::decode_levels`] accepts.
    pub fn binary_space(&self) -> BinarySpace {
        let layout: Vec<(usize, usize)> = self
            .params
            .iter()
            .map(|p| (p.n_bits(), p.n_levels()))
            .collect();
        BinarySpace::with_fields(&layout)
    }

    /// Encodes grid `levels` into the concatenated bitstring (little-endian
    /// per parameter), paper Eq. 4.
    ///
    /// # Panics
    ///
    /// Panics if a level is out of range or the count mismatches.
    pub fn encode_levels(&self, levels: &[usize]) -> Vec<bool> {
        assert_eq!(levels.len(), self.params.len(), "level count mismatch");
        let mut bits = Vec::with_capacity(self.total_bits());
        for (p, &level) in self.params.iter().zip(levels) {
            assert!(
                level < p.n_levels(),
                "level {level} out of range for {}",
                p.name
            );
            for b in 0..p.n_bits() {
                bits.push((level >> b) & 1 == 1);
            }
        }
        bits
    }

    /// Decodes a bitstring into grid levels; `None` when any parameter's
    /// code exceeds its level count (an invalid design).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != total_bits()`.
    pub fn decode_levels(&self, bits: &[bool]) -> Option<Vec<usize>> {
        assert_eq!(bits.len(), self.total_bits(), "bit length mismatch");
        let mut levels = Vec::with_capacity(self.params.len());
        let mut offset = 0;
        for p in &self.params {
            let nb = p.n_bits();
            let mut code = 0usize;
            for b in 0..nb {
                if bits[offset + b] {
                    code |= 1 << b;
                }
            }
            offset += nb;
            if code >= p.n_levels() {
                return None;
            }
            levels.push(code);
        }
        Some(levels)
    }

    /// Encodes real values into the bitstring (rounding onto the grid).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRangeError`] when a value lies outside its span.
    pub fn encode_values(&self, values: &[f64]) -> Result<Vec<bool>, OutOfRangeError> {
        assert_eq!(values.len(), self.params.len(), "value count mismatch");
        let levels: Result<Vec<usize>, _> = self
            .params
            .iter()
            .zip(values)
            .map(|(p, &v)| p.level_of(v))
            .collect();
        Ok(self.encode_levels(&levels?))
    }

    /// Decodes a bitstring directly into parameter values (paper Eq. 5);
    /// `None` for invalid codes.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != total_bits()`.
    pub fn decode_values(&self, bits: &[bool]) -> Option<Vec<f64>> {
        let levels = self.decode_levels(bits)?;
        Some(
            self.params
                .iter()
                .zip(&levels)
                .map(|(p, &l)| p.value_of(l))
                .collect(),
        )
    }

    /// Converts grid levels to values.
    ///
    /// # Panics
    ///
    /// Panics on level-count mismatch or out-of-range levels.
    pub fn values_of_levels(&self, levels: &[usize]) -> Vec<f64> {
        assert_eq!(levels.len(), self.params.len(), "level count mismatch");
        self.params
            .iter()
            .zip(levels)
            .map(|(p, &l)| p.value_of(l))
            .collect()
    }

    /// Rounds a continuous design onto the grid (paper Eq. 6), clamping to
    /// each span.
    ///
    /// # Panics
    ///
    /// Panics on a value-count mismatch.
    pub fn round_to_grid(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.params.len(), "value count mismatch");
        self.params
            .iter()
            .zip(values)
            .map(|(p, &v)| p.round_to_grid(v))
            .collect()
    }

    /// `true` when every value is on its grid.
    pub fn contains(&self, values: &[f64]) -> bool {
        values.len() == self.params.len()
            && self.params.iter().zip(values).all(|(p, &v)| p.contains(v))
    }

    /// Per-parameter `(lo, hi)` bounds.
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        self.params.iter().map(|p| (p.lo, p.hi)).collect()
    }

    /// Clamps a continuous design into the (continuous) box `[lo, hi]^d` —
    /// used between gradient-descent steps.
    pub fn clamp(&self, values: &mut [f64]) {
        for (p, v) in self.params.iter().zip(values.iter_mut()) {
            *v = v.clamp(p.lo, p.hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::new("a", 2.0, 5.0, 0.1),   // 31 levels, 5 bits
            ParamDef::new("b", 30.0, 40.0, 5.0), // 3 levels, 2 bits
            ParamDef::new("c", 0.0, 0.3, 0.05),  // 7 levels, 3 bits
        ])
    }

    #[test]
    fn table_iii_level_and_bit_counts() {
        // Spot-checks against the printed Table III "case/bits" column.
        let cases = [
            (2.0, 5.0, 0.1, 31, 5),
            (2.0, 10.0, 0.1, 81, 7),
            (2.0, 10.0, 0.5, 17, 5),
            (30.0, 40.0, 5.0, 3, 2),
            (0.0, 0.3, 0.05, 7, 3),
            (0.6, 1.5, 0.1, 10, 4),
            (2.0, 8.0, 0.2, 31, 5),
            (3.8e7, 5.8e7, 1e6, 21, 5),
            (-14.5, 14.0, 0.5, 58, 6),
            (2.5, 4.5, 0.05, 41, 6),
            (0.001, 0.02, 0.001, 20, 5),
        ];
        for &(lo, hi, step, levels, bits) in &cases {
            let p = ParamDef::new("x", lo, hi, step);
            assert_eq!(p.n_levels(), levels, "levels of [{lo},{hi}]/{step}");
            assert_eq!(p.n_bits(), bits, "bits of [{lo},{hi}]/{step}");
        }
    }

    #[test]
    fn binary_space_draws_only_decodable_codes() {
        let space = simple_space();
        let bin = space.binary_space();
        assert_eq!(bin.n_bits(), space.total_bits());
        assert!((bin.log2_size() - space.n_valid().log2()).abs() < 1e-12);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for _ in 0..500 {
            assert!(space.decode_levels(&bin.sample(&mut rng)).is_some());
        }
    }

    #[test]
    fn value_level_roundtrip() {
        let p = ParamDef::new("w", 2.0, 5.0, 0.1);
        for level in 0..p.n_levels() {
            let v = p.value_of(level);
            assert_eq!(p.level_of(v).expect("in range"), level);
        }
    }

    #[test]
    fn level_of_rejects_out_of_range() {
        let p = ParamDef::new("w", 2.0, 5.0, 0.1);
        assert!(p.level_of(1.0).is_err());
        assert!(p.level_of(5.6).is_err());
    }

    #[test]
    fn round_to_grid_snaps_and_clamps() {
        let p = ParamDef::new("w", 2.0, 5.0, 0.1);
        assert!((p.round_to_grid(3.149) - 3.1).abs() < 1e-12);
        assert_eq!(p.round_to_grid(-10.0), 2.0);
        assert_eq!(p.round_to_grid(99.0), 5.0);
    }

    #[test]
    fn encode_decode_roundtrip_all_levels() {
        let s = simple_space();
        for a in 0..31 {
            for b in 0..3 {
                for c in 0..7 {
                    let levels = vec![a, b, c];
                    let bits = s.encode_levels(&levels);
                    assert_eq!(bits.len(), s.total_bits());
                    assert_eq!(s.decode_levels(&bits), Some(levels));
                }
            }
        }
    }

    #[test]
    fn invalid_codes_decode_to_none() {
        let s = simple_space();
        // Parameter b has 3 levels in 2 bits: code 3 is invalid.
        let mut bits = s.encode_levels(&[0, 0, 0]);
        bits[5] = true; // b's low bit
        bits[6] = true; // b's high bit -> code 3
        assert_eq!(s.decode_levels(&bits), None);
    }

    #[test]
    fn invalid_fraction_matches_theory() {
        // 31/32 * 3/4 * 7/8 of codes are valid.
        let s = simple_space();
        let total = 1usize << s.total_bits();
        let mut valid = 0usize;
        for code in 0..total {
            let bits: Vec<bool> = (0..s.total_bits()).map(|b| (code >> b) & 1 == 1).collect();
            if s.decode_levels(&bits).is_some() {
                valid += 1;
            }
        }
        assert_eq!(valid as f64, s.n_valid());
        assert_eq!(valid, 31 * 3 * 7);
    }

    #[test]
    fn encode_values_rounds_onto_grid() {
        let s = simple_space();
        let bits = s.encode_values(&[3.13, 34.0, 0.12]).expect("in range");
        let back = s.decode_values(&bits).expect("valid");
        assert!((back[0] - 3.1).abs() < 1e-9);
        assert!((back[1] - 35.0).abs() < 1e-9);
        assert!((back[2] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn encode_values_out_of_range_errors() {
        let s = simple_space();
        assert!(s.encode_values(&[1.0, 35.0, 0.1]).is_err());
    }

    #[test]
    fn contains_checks_grid_membership() {
        let s = simple_space();
        assert!(s.contains(&[2.5, 35.0, 0.05]));
        assert!(!s.contains(&[2.55, 35.0, 0.05]), "off-grid value");
        assert!(!s.contains(&[2.5, 35.0])); // wrong arity
    }

    #[test]
    fn clamp_limits_to_box() {
        let s = simple_space();
        let mut v = vec![99.0, 20.0, 0.15];
        s.clamp(&mut v);
        assert_eq!(v, vec![5.0, 30.0, 0.15]);
    }

    #[test]
    fn single_level_param_takes_zero_bits() {
        let p = ParamDef::new("fixed", 0.0, 0.2, 0.5);
        assert_eq!(p.n_levels(), 1);
        assert_eq!(p.n_bits(), 0);
    }
}
