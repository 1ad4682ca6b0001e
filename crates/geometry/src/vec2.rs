//! Two-dimensional Euclidean vectors.
//!
//! [`Vec2`] doubles as a *point* (a position in the plane) and a
//! *displacement*; the paper's trajectories `S(t)` are curves of points
//! while its symmetry-breaking analysis works with displacement vectors
//! such as `d⃗` (the vector from one robot's start to the other's).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A vector (or point) in the Euclidean plane, stored as `f64` components.
///
/// All operations are plain component arithmetic; no hidden normalization is
/// performed. The type is `Copy` and cheap everywhere.
///
/// # Example
///
/// ```
/// use rvz_geometry::Vec2;
///
/// let a = Vec2::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a.dot(Vec2::UNIT_X), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector (also used as "the origin").
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// The unit vector along `+x`.
    pub const UNIT_X: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// The unit vector along `+y`.
    pub const UNIT_Y: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Creates the vector `r·(cos θ, sin θ)` — polar coordinates.
    ///
    /// ```
    /// use rvz_geometry::Vec2;
    /// let v = Vec2::from_polar(2.0, std::f64::consts::PI);
    /// assert!((v.x + 2.0).abs() < 1e-15 && v.y.abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar(radius: f64, angle: f64) -> Self {
        let (s, c) = crate::sin_cos(angle);
        Vec2::new(radius * c, radius * s)
    }

    /// Euclidean norm `√(x² + y²)`.
    ///
    /// Every engine step measures a distance, so the common case is the
    /// plain formula: when `s = x² + y²` is normal and finite, `√s` is
    /// within an ulp or so of the exact norm. Only when `s` overflows,
    /// underflows into the subnormals, is zero or is NaN does it fall
    /// back to [`f64::hypot`], whose scaling keeps huge and tiny vectors
    /// finite and nonzero and gives `hypot`'s answer on ±∞ and NaN.
    #[inline]
    pub fn norm(self) -> f64 {
        let s = self.x * self.x + self.y * self.y;
        if s.is_normal() {
            s.sqrt()
        } else {
            self.x.hypot(self.y)
        }
    }

    /// Squared Euclidean norm `x² + y²` (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Inner product with `other`.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// The scalar cross product (z-component of the 3-D cross product).
    ///
    /// Positive when `other` lies counter-clockwise of `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// The angle `atan2(y, x)` of this vector, in `(−π, π]`.
    ///
    /// Returns `0.0` for the zero vector (matching `atan2(0, 0)`).
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns this vector scaled to unit length, or `None` if it is too
    /// short to normalize reliably.
    ///
    /// ```
    /// use rvz_geometry::Vec2;
    /// assert!(Vec2::ZERO.normalized().is_none());
    /// let u = Vec2::new(0.0, -3.0).normalized().unwrap();
    /// assert!((u.y + 1.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n < f64::MIN_POSITIVE.sqrt() {
            None
        } else {
            Some(self / n)
        }
    }

    /// Rotates this vector counter-clockwise by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = crate::sin_cos(angle);
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Rotates this vector counter-clockwise by 90° exactly (no trig).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Linear interpolation: `self + s·(other − self)`.
    ///
    /// `s = 0` yields `self`; `s = 1` yields `other`. `s` outside `[0, 1]`
    /// extrapolates.
    #[inline]
    pub fn lerp(self, other: Vec2, s: f64) -> Vec2 {
        self + (other - self) * s
    }

    /// `true` when both components are finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec2 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl DivAssign<f64> for Vec2 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, Add::add)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Vec2 {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    #[inline]
    fn from(v: Vec2) -> (f64, f64) {
        (v.x, v.y)
    }
}

impl From<[f64; 2]> for Vec2 {
    #[inline]
    fn from([x, y]: [f64; 2]) -> Vec2 {
        Vec2::new(x, y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq;

    #[test]
    fn constants() {
        assert_eq!(Vec2::ZERO, Vec2::new(0.0, 0.0));
        assert_eq!(Vec2::UNIT_X.norm(), 1.0);
        assert_eq!(Vec2::UNIT_Y.norm(), 1.0);
        assert_eq!(Vec2::UNIT_X.dot(Vec2::UNIT_Y), 0.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(-3.0, 4.5);
        assert_eq!(a + b, Vec2::new(-2.0, 6.5));
        assert_eq!(a - b, Vec2::new(4.0, -2.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
    }

    #[test]
    fn compound_assignment() {
        let mut v = Vec2::new(1.0, 1.0);
        v += Vec2::UNIT_X;
        v -= Vec2::UNIT_Y;
        v *= 3.0;
        v /= 2.0;
        assert_eq!(v, Vec2::new(3.0, 0.0));
    }

    #[test]
    fn norms_and_distance() {
        let v = Vec2::new(3.0, -4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_squared(), 25.0);
        assert_eq!(v.distance(Vec2::ZERO), 5.0);
    }

    #[test]
    fn norm_is_robust_to_extreme_magnitudes() {
        // x² + y² overflows here; the hypot fallback keeps the norm
        // finite where sqrt(x² + y²) would return inf.
        let v = Vec2::new(1e200, 1e200);
        assert!(v.norm().is_finite());
        // ... and underflow.
        let w = Vec2::new(1e-200, 1e-200);
        assert!(w.norm() > 0.0);
    }

    #[test]
    fn norm_equals_hypot_where_the_plain_formula_does_not_apply() {
        let tiny = f64::from_bits(1);
        let sub = f64::MIN_POSITIVE / 3.0;
        let cases = [
            (0.0, 0.0),
            (-0.0, 0.0),
            (tiny, tiny),
            (sub, -sub),
            (tiny, 0.0),
            (1e-160, 1e-160),
            (1e200, 1e200),
            (-1e300, 1e10),
            (f64::MAX, f64::MAX),
            (f64::INFINITY, 1.0),
            (1.0, f64::NEG_INFINITY),
            (f64::INFINITY, f64::NAN),
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
        ];
        for (x, y) in cases {
            assert_eq!(
                Vec2::new(x, y).norm().to_bits(),
                x.hypot(y).to_bits(),
                "({x:e}, {y:e})"
            );
        }
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(2.0, 0.0);
        let b = Vec2::new(0.0, 3.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 6.0);
        assert_eq!(b.cross(a), -6.0);
    }

    #[test]
    fn polar_roundtrip() {
        let v = Vec2::from_polar(2.5, 1.2);
        assert!(approx_eq(v.norm(), 2.5));
        assert!(approx_eq(v.angle(), 1.2));
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Vec2::ZERO.normalized().is_none());
        let n = Vec2::new(0.0, 5.0).normalized().unwrap();
        assert!(approx_eq(n.norm(), 1.0));
        assert!(approx_eq(n.y, 1.0));
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::UNIT_X.rotated(std::f64::consts::FRAC_PI_2);
        assert!((v - Vec2::UNIT_Y).norm() < 1e-15);
        // perp is the exact quarter turn.
        assert_eq!(Vec2::UNIT_X.perp(), Vec2::UNIT_Y);
        assert_eq!(Vec2::UNIT_Y.perp(), -Vec2::UNIT_X);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn conversions() {
        let v: Vec2 = (1.0, 2.0).into();
        assert_eq!(v, Vec2::new(1.0, 2.0));
        let w: Vec2 = [3.0, 4.0].into();
        assert_eq!(w, Vec2::new(3.0, 4.0));
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.0, 2.0));
    }

    #[test]
    fn sum_of_vectors() {
        let total: Vec2 = [Vec2::UNIT_X, Vec2::UNIT_Y, Vec2::new(1.0, 1.0)]
            .into_iter()
            .sum();
        assert_eq!(total, Vec2::new(2.0, 2.0));
    }

    #[test]
    fn finiteness() {
        assert!(Vec2::new(1.0, 2.0).is_finite());
        assert!(!Vec2::new(f64::NAN, 0.0).is_finite());
        assert!(!Vec2::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn display_formats_components() {
        assert_eq!(Vec2::new(1.5, -2.0).to_string(), "(1.5, -2)");
    }
}
