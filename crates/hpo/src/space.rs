//! Search-space descriptions and sampling.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A binary search cube `{0, 1}^n` with optional per-bit restrictions —
/// the view Harmonica and simulated annealing operate on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinarySpace {
    /// Per-bit restriction: `None` = free, `Some(b)` = fixed to `b`.
    fixed: Vec<Option<bool>>,
}

impl BinarySpace {
    /// A fully free cube of `n_bits` dimensions.
    pub fn free(n_bits: usize) -> Self {
        Self {
            fixed: vec![None; n_bits],
        }
    }

    /// Number of bits.
    pub fn n_bits(&self) -> usize {
        self.fixed.len()
    }

    /// Number of still-free bits.
    pub fn n_free(&self) -> usize {
        self.fixed.iter().filter(|f| f.is_none()).count()
    }

    /// Fixes bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fix(&mut self, i: usize, value: bool) {
        self.fixed[i] = Some(value);
    }

    /// The restriction on bit `i` (`None` = free).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn restriction(&self, i: usize) -> Option<bool> {
        self.fixed[i]
    }

    /// Draws a uniform sample consistent with the restrictions.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<bool> {
        self.fixed
            .iter()
            .map(|f| f.unwrap_or_else(|| rng.gen::<bool>()))
            .collect()
    }

    /// Projects `bits` onto the space by overwriting restricted positions.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n_bits()`.
    pub fn project(&self, bits: &mut [bool]) {
        assert_eq!(bits.len(), self.fixed.len(), "bit length mismatch");
        for (b, f) in bits.iter_mut().zip(&self.fixed) {
            if let Some(v) = f {
                *b = *v;
            }
        }
    }

    /// `true` when `bits` satisfies every restriction.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n_bits()`.
    pub fn contains(&self, bits: &[bool]) -> bool {
        assert_eq!(bits.len(), self.fixed.len(), "bit length mismatch");
        bits.iter()
            .zip(&self.fixed)
            .all(|(b, f)| f.is_none_or(|v| v == *b))
    }

    /// log2 of the remaining space size.
    pub fn log2_size(&self) -> f64 {
        self.n_free() as f64
    }
}

/// A per-parameter discrete search space: dimension `i` takes integer levels
/// `0..cardinalities[i]` — the view TPE uses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscreteSpace {
    cardinalities: Vec<usize>,
}

impl DiscreteSpace {
    /// Creates a space from per-dimension level counts.
    ///
    /// # Panics
    ///
    /// Panics if any dimension has zero levels.
    pub fn new(cardinalities: Vec<usize>) -> Self {
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "every dimension needs at least one level"
        );
        Self { cardinalities }
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.cardinalities.len()
    }

    /// Level count of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cardinality(&self, i: usize) -> usize {
        self.cardinalities[i]
    }

    /// All level counts.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cardinalities
    }

    /// Total number of configurations, as `f64` (spaces like `10^20` exceed
    /// `u64`).
    pub fn size(&self) -> f64 {
        self.cardinalities.iter().map(|&c| c as f64).product()
    }

    /// Uniform random configuration.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<usize> {
        self.cardinalities
            .iter()
            .map(|&c| rng.gen_range(0..c))
            .collect()
    }

    /// `true` when every level is in range.
    pub fn contains(&self, levels: &[usize]) -> bool {
        levels.len() == self.cardinalities.len()
            && levels.iter().zip(&self.cardinalities).all(|(l, c)| l < c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn free_space_samples_vary() {
        let s = BinarySpace::free(16);
        let mut rng = StdRng::seed_from_u64(0);
        let a = s.sample(&mut rng);
        let b = s.sample(&mut rng);
        assert_eq!(a.len(), 16);
        assert_ne!(a, b, "two 16-bit samples should differ");
    }

    #[test]
    fn fixed_bits_always_respected() {
        let mut s = BinarySpace::free(8);
        s.fix(2, true);
        s.fix(5, false);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let x = s.sample(&mut rng);
            assert!(x[2]);
            assert!(!x[5]);
            assert!(s.contains(&x));
        }
        assert_eq!(s.n_free(), 6);
    }

    #[test]
    fn project_enforces_restrictions() {
        let mut s = BinarySpace::free(4);
        s.fix(0, true);
        let mut bits = vec![false, false, true, true];
        s.project(&mut bits);
        assert!(bits[0]);
        assert!(s.contains(&bits));
    }

    #[test]
    fn contains_rejects_violations() {
        let mut s = BinarySpace::free(3);
        s.fix(1, true);
        assert!(!s.contains(&[true, false, true]));
        assert!(s.contains(&[true, true, true]));
    }

    #[test]
    fn log2_size_counts_free_bits() {
        let mut s = BinarySpace::free(10);
        assert_eq!(s.log2_size(), 10.0);
        s.fix(0, false);
        s.fix(9, true);
        assert_eq!(s.log2_size(), 8.0);
    }

    #[test]
    fn discrete_space_size() {
        let s = DiscreteSpace::new(vec![3, 5, 2]);
        assert_eq!(s.size(), 30.0);
        assert_eq!(s.n_dims(), 3);
        assert_eq!(s.cardinality(1), 5);
    }

    #[test]
    fn discrete_samples_in_range() {
        let s = DiscreteSpace::new(vec![4, 7, 1]);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let x = s.sample(&mut rng);
            assert!(s.contains(&x));
            assert_eq!(x[2], 0, "cardinality-1 dims are always level 0");
        }
    }

    #[test]
    fn discrete_contains_rejects_bad_levels() {
        let s = DiscreteSpace::new(vec![2, 2]);
        assert!(!s.contains(&[2, 0]));
        assert!(!s.contains(&[0]));
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_cardinality_panics() {
        let _ = DiscreteSpace::new(vec![3, 0]);
    }

    #[test]
    fn huge_space_size_is_finite() {
        let s = DiscreteSpace::new(vec![100; 15]);
        assert!(s.size().is_finite());
        assert_eq!(s.size(), 1e30);
    }
}
