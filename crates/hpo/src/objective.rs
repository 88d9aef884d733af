//! Objective-function traits and evaluation records.
//!
//! Stack-up encodings contain *invalid* codes (Table III: `S_1` spans `2^73`
//! codes but only `7.14e19` valid designs). Section IV-A of the paper leaves
//! them out of the search. Harmonica never draws them: its
//! [`BinarySpace`](crate::space::BinarySpace) knows the field layout and
//! samples valid designs only. Binary objectives still return `None` for an
//! invalid point, which searchers that move by bit flips (simulated
//! annealing, Hyperband's neighbourhood probes) can reach.

use serde::{Deserialize, Serialize};

/// One recorded evaluation (used by experiment statistics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The evaluated point in whatever encoding the searcher uses.
    pub point: Vec<f64>,
    /// The objective value.
    pub value: f64,
}

/// An objective over bitstrings. Lower is better.
pub trait BinaryObjective {
    /// Evaluates `bits`; `None` marks an invalid encoding (excluded from
    /// search statistics, as in the paper).
    fn eval(&mut self, bits: &[bool]) -> Option<f64>;

    /// Evaluates `points` in order, one result per point, as if by one
    /// [`BinaryObjective::eval`] call each. The default loops `eval`;
    /// objectives backed by a batched model override it with one call.
    fn eval_batch(&mut self, points: &[Vec<bool>]) -> Vec<Option<f64>> {
        points.iter().map(|p| self.eval(p)).collect()
    }

    /// Number of bits expected.
    fn n_bits(&self) -> usize;
}

/// An objective over per-dimension integer levels. Lower is better.
pub trait DiscreteObjective {
    /// Evaluates a level vector (always valid by construction).
    fn eval(&mut self, levels: &[usize]) -> f64;

    /// Per-dimension level counts.
    fn cardinalities(&self) -> Vec<usize>;
}

/// Wraps a closure as a [`BinaryObjective`].
pub struct BinaryFn<F> {
    f: F,
    n_bits: usize,
}

impl<F: FnMut(&[bool]) -> Option<f64>> BinaryFn<F> {
    /// Creates a closure-backed binary objective over `n_bits` bits.
    pub fn new(n_bits: usize, f: F) -> Self {
        Self { f, n_bits }
    }
}

impl<F: FnMut(&[bool]) -> Option<f64>> BinaryObjective for BinaryFn<F> {
    fn eval(&mut self, bits: &[bool]) -> Option<f64> {
        (self.f)(bits)
    }

    fn n_bits(&self) -> usize {
        self.n_bits
    }
}

/// Wraps a closure as a [`DiscreteObjective`].
pub struct DiscreteFn<F> {
    f: F,
    cards: Vec<usize>,
}

impl<F: FnMut(&[usize]) -> f64> DiscreteFn<F> {
    /// Creates a closure-backed discrete objective.
    pub fn new(cards: Vec<usize>, f: F) -> Self {
        Self { f, cards }
    }
}

impl<F: FnMut(&[usize]) -> f64> DiscreteObjective for DiscreteFn<F> {
    fn eval(&mut self, levels: &[usize]) -> f64 {
        (self.f)(levels)
    }

    fn cardinalities(&self) -> Vec<usize> {
        self.cards.clone()
    }
}

/// Counts evaluations of an inner binary objective (valid and invalid
/// separately), for the paper's "samples seen" accounting.
pub struct CountingBinary<O> {
    inner: O,
    /// Evaluations that returned a value.
    pub valid: u64,
    /// Evaluations rejected as invalid encodings.
    pub invalid: u64,
}

impl<O: BinaryObjective> CountingBinary<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            valid: 0,
            invalid: 0,
        }
    }

    /// Total evaluation attempts.
    pub fn total(&self) -> u64 {
        self.valid + self.invalid
    }

    /// Unwraps the inner objective.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: BinaryObjective> BinaryObjective for CountingBinary<O> {
    fn eval(&mut self, bits: &[bool]) -> Option<f64> {
        let out = self.inner.eval(bits);
        if out.is_some() {
            self.valid += 1;
        } else {
            self.invalid += 1;
        }
        out
    }

    fn eval_batch(&mut self, points: &[Vec<bool>]) -> Vec<Option<f64>> {
        let out = self.inner.eval_batch(points);
        let valid = out.iter().filter(|v| v.is_some()).count() as u64;
        self.valid += valid;
        self.invalid += out.len() as u64 - valid;
        out
    }

    fn n_bits(&self) -> usize {
        self.inner.n_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_objectives_work() {
        let mut o = BinaryFn::new(
            3,
            |b: &[bool]| Some(b.iter().filter(|&&x| x).count() as f64),
        );
        assert_eq!(o.n_bits(), 3);
        assert_eq!(o.eval(&[true, false, true]), Some(2.0));

        let mut d = DiscreteFn::new(vec![4, 4], |l: &[usize]| (l[0] + l[1]) as f64);
        assert_eq!(d.cardinalities(), vec![4, 4]);
        assert_eq!(d.eval(&[1, 2]), 3.0);
    }

    #[test]
    fn counting_tracks_valid_and_invalid() {
        let inner = BinaryFn::new(2, |b: &[bool]| if b[0] { Some(1.0) } else { None });
        let mut c = CountingBinary::new(inner);
        assert_eq!(c.eval(&[true, false]), Some(1.0));
        assert_eq!(c.eval(&[false, false]), None);
        assert_eq!(c.eval(&[true, true]), Some(1.0));
        assert_eq!((c.valid, c.invalid, c.total()), (2, 1, 3));
        let batch = vec![vec![false, true], vec![true, true]];
        assert_eq!(c.eval_batch(&batch), vec![None, Some(1.0)]);
        assert_eq!((c.valid, c.invalid), (3, 2));
    }
}
