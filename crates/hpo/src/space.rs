//! Search-space descriptions and sampling.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// One parameter's slice of the bitstring: `width` little-endian bits
/// whose code is valid only below `levels`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Field {
    width: usize,
    levels: usize,
}

impl Field {
    /// `true` when every code of the field decodes to a level.
    fn is_full(self) -> bool {
        self.levels == 1 << self.width
    }
}

/// A binary search cube `{0, 1}^n` with optional per-bit restrictions —
/// the view Harmonica and simulated annealing operate on.
///
/// The bits split into consecutive **fields**, one per encoded parameter
/// (paper Eq. 4): a field of `width` bits holds a little-endian code, and a
/// design is valid when every field's code is below its level count. Both
/// validity and bit restrictions act field by field, so the uniform
/// distribution over the valid designs that satisfy the restrictions is the
/// product of per-field uniforms. [`BinarySpace::sample`] draws from it
/// directly; no draw is ever invalid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinarySpace {
    /// Per-bit restriction: `None` = free, `Some(b)` = fixed to `b`.
    fixed: Vec<Option<bool>>,
    /// Field layout, covering `fixed` in order.
    fields: Vec<Field>,
}

impl BinarySpace {
    /// A fully free cube of `n_bits` dimensions: every bit is its own
    /// two-level field, so every bitstring is valid.
    pub fn free(n_bits: usize) -> Self {
        Self::with_fields(&vec![(1, 2); n_bits])
    }

    /// A free space over consecutive fields, each given as
    /// `(width, level count)`; codes at or above a field's level count are
    /// invalid. A zero-width field (a one-level parameter) holds no bits.
    ///
    /// # Panics
    ///
    /// Panics if a field has no level or more levels than its width can
    /// encode.
    pub fn with_fields(layout: &[(usize, usize)]) -> Self {
        let fields: Vec<Field> = layout
            .iter()
            .map(|&(width, levels)| {
                assert!(
                    width < usize::BITS as usize && levels >= 1 && levels <= 1 << width,
                    "a {width}-bit field cannot hold {levels} levels"
                );
                Field { width, levels }
            })
            .collect();
        Self {
            fixed: vec![None; fields.iter().map(|f| f.width).sum()],
            fields,
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

    /// Each field with its bit restrictions.
    fn field_spans(&self) -> impl Iterator<Item = (Field, &[Option<bool>])> {
        let mut offset = 0;
        self.fields.iter().map(move |&f| {
            let span = &self.fixed[offset..offset + f.width];
            offset += f.width;
            (f, span)
        })
    }

    /// The valid codes of field `f` that agree with its restrictions
    /// `span`, in increasing order.
    fn allowed_codes(f: Field, span: &[Option<bool>]) -> impl Iterator<Item = usize> {
        let (mut mask, mut value) = (0usize, 0usize);
        for (b, r) in span.iter().enumerate() {
            if let Some(v) = r {
                mask |= 1 << b;
                value |= usize::from(*v) << b;
            }
        }
        (0..f.levels).filter(move |c| c & mask == value)
    }

    /// `true` when at least one valid design satisfies every restriction:
    /// each field keeps at least one valid code that agrees with its fixed
    /// bits.
    pub fn is_live(&self) -> bool {
        self.field_spans()
            .all(|(f, span)| f.is_full() || Self::allowed_codes(f, span).next().is_some())
    }

    /// Draws a uniform sample from the valid designs that satisfy the
    /// restrictions. A field whose every code is valid draws each free bit
    /// with one `bool` draw, so a [`BinarySpace::free`] cube draws the same
    /// stream as independent fair bits; any other field draws one index
    /// into its allowed codes.
    ///
    /// # Panics
    ///
    /// Panics if the space is not [live](BinarySpace::is_live).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.n_bits());
        for (f, span) in self.field_spans() {
            if f.is_full() {
                bits.extend(span.iter().map(|r| r.unwrap_or_else(|| rng.gen::<bool>())));
                continue;
            }
            let count = Self::allowed_codes(f, span).count();
            assert!(count > 0, "sampling a space with no valid design");
            let code = Self::allowed_codes(f, span)
                .nth(rng.gen_range(0..count))
                .expect("index below the count");
            bits.extend((0..f.width).map(|b| (code >> b) & 1 == 1));
        }
        bits
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

    /// log2 of the number of valid designs that satisfy the restrictions
    /// (`-inf` for a dead space).
    pub fn log2_size(&self) -> f64 {
        self.field_spans()
            .map(|(f, span)| (Self::allowed_codes(f, span).count() as f64).log2())
            .sum()
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

    /// A free cube draws exactly one fair `bool` per bit, in bit order —
    /// the stream the simulated-annealing baseline and the Harmonica tests
    /// were written against.
    #[test]
    fn free_cube_draws_one_bool_per_bit() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut s = BinarySpace::free(12);
        s.fix(4, true);
        for _ in 0..20 {
            let want: Vec<bool> = (0..12)
                .map(|i| if i == 4 { true } else { b.gen::<bool>() })
                .collect();
            assert_eq!(s.sample(&mut a), want);
        }
    }

    fn code_of(bits: &[bool]) -> usize {
        bits.iter()
            .enumerate()
            .map(|(b, &v)| usize::from(v) << b)
            .sum()
    }

    /// Every field's code is uniform over the valid codes that agree with
    /// its fixed bits (chi-squared at the 0.1% level, fixed seed), for a
    /// 3-level/2-bit field, a 31-level/5-bit field and a full 3-bit field,
    /// under several fixed-bit masks.
    #[test]
    fn field_codes_are_uniform_under_fixed_bits() {
        let layout = [(2, 3), (5, 31), (3, 8)];
        let masks: [&[(usize, bool)]; 5] = [
            &[],
            &[(0, false)],                       // 3-level field: codes {0, 2}
            &[(1, true), (6, true)],             // {2}; 5-bit: code bit 4 set
            &[(2, true), (3, true), (8, false)], // 5-bit: low bits 11
            &[(6, false), (5, true), (9, true)],
        ];
        let draws = 20_000;
        for (m, fixes) in masks.iter().enumerate() {
            let mut space = BinarySpace::with_fields(&layout);
            for &(bit, v) in *fixes {
                space.fix(bit, v);
            }
            let mut rng = StdRng::seed_from_u64(40 + m as u64);
            let samples: Vec<Vec<bool>> = (0..draws).map(|_| space.sample(&mut rng)).collect();
            let mut offset = 0;
            for &(width, levels) in &layout {
                let allowed: Vec<usize> = (0..levels)
                    .filter(|&c| {
                        fixes.iter().all(|&(bit, v)| {
                            bit < offset
                                || bit >= offset + width
                                || ((c >> (bit - offset)) & 1 == 1) == v
                        })
                    })
                    .collect();
                let mut counts = vec![0usize; 1 << width];
                for x in &samples {
                    counts[code_of(&x[offset..offset + width])] += 1;
                }
                for (c, &n) in counts.iter().enumerate() {
                    if !allowed.contains(&c) {
                        assert_eq!(n, 0, "mask {m}: disallowed code {c} drawn");
                    }
                }
                let expected = draws as f64 / allowed.len() as f64;
                let chi2: f64 = allowed
                    .iter()
                    .map(|&c| (counts[c] as f64 - expected).powi(2) / expected)
                    .sum();
                // Wilson-Hilferty 99.9% quantile; a single allowed code has
                // chi2 = 0.
                let df = (allowed.len() - 1).max(1) as f64;
                let z = 3.09;
                let h = 2.0 / (9.0 * df);
                let crit = df * (1.0 - h + z * h.sqrt()).powi(3);
                assert!(
                    chi2 < crit,
                    "mask {m}, field at bit {offset}: chi2 {chi2:.1} >= {crit:.1}"
                );
                offset += width;
            }
        }
    }

    /// `is_live` and `log2_size` agree with enumerating every bitstring,
    /// under every restriction pattern of a small space.
    #[test]
    fn liveness_matches_brute_force() {
        let layout = [(2, 3), (3, 5), (1, 1), (1, 2)];
        let n = 7;
        let valid = |x: usize| {
            let mut offset = 0;
            layout.iter().all(|&(w, levels)| {
                let code = (x >> offset) & ((1 << w) - 1);
                offset += w;
                code < levels
            })
        };
        for pattern in 0..3usize.pow(n as u32) {
            let mut space = BinarySpace::with_fields(&layout);
            let mut p = pattern;
            for bit in 0..n {
                match p % 3 {
                    1 => space.fix(bit, false),
                    2 => space.fix(bit, true),
                    _ => {}
                }
                p /= 3;
            }
            let count = (0..1usize << n)
                .filter(|&x| {
                    let bits: Vec<bool> = (0..n).map(|b| (x >> b) & 1 == 1).collect();
                    valid(x) && space.contains(&bits)
                })
                .count();
            assert_eq!(space.is_live(), count > 0, "pattern {pattern}");
            if count == 0 {
                assert_eq!(space.log2_size(), f64::NEG_INFINITY, "pattern {pattern}");
            } else {
                let exact = (count as f64).log2();
                assert!(
                    (space.log2_size() - exact).abs() < 1e-12,
                    "pattern {pattern}"
                );
                let x = space.sample(&mut StdRng::seed_from_u64(pattern as u64));
                assert!(valid(code_of(&x)) && space.contains(&x));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn overfull_field_panics() {
        let _ = BinarySpace::with_fields(&[(2, 5)]);
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
