//! Minimal complex arithmetic for the RLGC line constants.
//!
//! A dedicated complex type (rather than an external dependency) keeps the
//! solver self-contained and exposes exactly the operations [`rlgc`]
//! needs: product, quotient, magnitude and the principal-branch square root.
//!
//! ```
//! use isop_em::complex::Complex;
//!
//! let z = Complex::new(3.0, 4.0);
//! assert_eq!(z.abs(), 5.0);
//! let w = Complex::new(-7.0, 24.0).sqrt();
//! assert!((w.re - 3.0).abs() < 1e-12 && (w.im - 4.0).abs() < 1e-12);
//! ```
//!
//! [`rlgc`]: crate::rlgc

use std::ops::{Div, Mul};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Complex zero.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Magnitude `|z|`, computed with `hypot` for numerical robustness.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|^2`, avoiding the square root of [`abs`].
    ///
    /// [`abs`]: Complex::abs
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Principal-branch complex square root (non-negative real part).
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return ZERO;
        }
        let r = self.abs();
        let re = ((r + self.re) / 2.0).max(0.0).sqrt();
        let im_mag = ((r - self.re) / 2.0).max(0.0).sqrt();
        Self::new(re, if self.im < 0.0 { -im_mag } else { im_mag })
    }
}

impl Mul for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a.re - b.re).hypot(a.im - b.im) < tol
    }

    #[test]
    fn product_and_quotient() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a * b, Complex::new(-4.0, -5.5));
        assert!(close(a / b * b, a, 1e-12));
    }

    #[test]
    fn division_by_self_is_one() {
        let z = Complex::new(0.3, -7.2);
        assert!(close(z / z, Complex::new(1.0, 0.0), 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-1.0, 0.0), (3.0, -4.0), (0.0, 2.0)] {
            let z = Complex::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-12), "sqrt failed for {z:?}");
            assert!(s.re >= 0.0, "principal branch violated for {z:?}");
        }
    }

    #[test]
    fn sqrt_of_negative_real_is_imaginary() {
        let s = Complex::new(-9.0, 0.0).sqrt();
        assert!(close(s, Complex::new(0.0, 3.0), 1e-12));
    }

    #[test]
    fn sqrt_of_zero_is_zero() {
        assert_eq!(ZERO.sqrt(), ZERO);
    }
}
