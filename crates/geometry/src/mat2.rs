//! 2×2 real matrices and the QR factorization of Lemma 5.
//!
//! The paper reduces a rendezvous execution to an *equivalent search
//! trajectory* `S∘(t) = T∘·S(t)` where
//!
//! ```text
//! T∘ = I − v·Rot(φ)·Refl(χ)
//! ```
//!
//! (Lemma 4). Lemma 5 then factors `T∘ = Φ·T∘'` with `Φ` a rotation and
//! `T∘'` upper triangular, which is an ordinary QR factorization. This
//! module supplies the matrix type and a numerically careful
//! [`Mat2::qr`] implementation, tested against the paper's closed forms.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::vec2::Vec2;

/// A 2×2 matrix over `f64`, stored row-major.
///
/// ```text
/// | a  b |
/// | c  d |
/// ```
///
/// # Example
///
/// ```
/// use rvz_geometry::{Mat2, Vec2};
///
/// let m = Mat2::new(1.0, 2.0, 3.0, 4.0);
/// assert_eq!(m * Vec2::new(1.0, 1.0), Vec2::new(3.0, 7.0));
/// assert_eq!(m.det(), -2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat2 {
    /// Row 0, column 0.
    pub a: f64,
    /// Row 0, column 1.
    pub b: f64,
    /// Row 1, column 0.
    pub c: f64,
    /// Row 1, column 1.
    pub d: f64,
}

/// The result of a QR factorization `M = Q·R` of a [`Mat2`].
///
/// `q` is orthogonal with `det(q) = +1` (a pure rotation, the paper's `Φ`)
/// and `r` is upper triangular with non-negative top-left entry (the
/// paper's `T∘'`). Produced by [`Mat2::qr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QrFactors {
    /// The rotation factor `Q` (`Φ` in Lemma 5).
    pub q: Mat2,
    /// The upper-triangular factor `R` (`T∘'` in Lemma 5).
    pub r: Mat2,
}

impl Mat2 {
    /// The identity matrix.
    pub const IDENTITY: Mat2 = Mat2 {
        a: 1.0,
        b: 0.0,
        c: 0.0,
        d: 1.0,
    };

    /// The zero matrix.
    pub const ZERO: Mat2 = Mat2 {
        a: 0.0,
        b: 0.0,
        c: 0.0,
        d: 0.0,
    };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        Mat2 { a, b, c, d }
    }

    /// Creates a matrix from its two columns.
    #[inline]
    pub fn from_columns(col0: Vec2, col1: Vec2) -> Self {
        Mat2::new(col0.x, col1.x, col0.y, col1.y)
    }

    /// Counter-clockwise rotation by `angle` radians.
    ///
    /// ```
    /// use rvz_geometry::{Mat2, Vec2};
    /// let m = Mat2::rotation(std::f64::consts::PI);
    /// assert!((m * Vec2::UNIT_X + Vec2::UNIT_X).norm() < 1e-15);
    /// ```
    #[inline]
    pub fn rotation(angle: f64) -> Self {
        let (s, c) = crate::sin_cos(angle);
        Mat2::new(c, -s, s, c)
    }

    /// Reflection about the x-axis when `chirality = -1.0`; identity when
    /// `chirality = +1.0`. Matches the paper's `diag(1, χ)` factor.
    ///
    /// # Panics
    ///
    /// Panics if `chirality` is not exactly `+1.0` or `-1.0`, because any
    /// other value has no meaning in the model.
    #[inline]
    pub fn chirality_reflection(chirality: f64) -> Self {
        assert!(
            chirality == 1.0 || chirality == -1.0,
            "chirality must be ±1, got {chirality}"
        );
        Mat2::new(1.0, 0.0, 0.0, chirality)
    }

    /// Uniform scaling by `s`.
    #[inline]
    pub fn scaling(s: f64) -> Self {
        Mat2::new(s, 0.0, 0.0, s)
    }

    /// The first column as a vector.
    #[inline]
    pub fn col0(self) -> Vec2 {
        Vec2::new(self.a, self.c)
    }

    /// The second column as a vector.
    #[inline]
    pub fn col1(self) -> Vec2 {
        Vec2::new(self.b, self.d)
    }

    /// Determinant `ad − bc`.
    #[inline]
    pub fn det(self) -> f64 {
        self.a * self.d - self.b * self.c
    }

    /// Trace `a + d`.
    #[inline]
    pub fn trace(self) -> f64 {
        self.a + self.d
    }

    /// The transposed matrix.
    #[inline]
    pub fn transpose(self) -> Mat2 {
        Mat2::new(self.a, self.c, self.b, self.d)
    }

    /// The inverse, or `None` when the determinant is too close to zero.
    ///
    /// Singularity of the equivalent-search matrix `T∘` is *meaningful* in
    /// this workspace — it is exactly the infeasible region of Theorem 4 —
    /// so callers must handle `None` rather than rely on panics.
    pub fn inverse(self) -> Option<Mat2> {
        let det = self.det();
        if det.abs() < f64::MIN_POSITIVE.sqrt() {
            None
        } else {
            Some(Mat2::new(
                self.d / det,
                -self.b / det,
                -self.c / det,
                self.a / det,
            ))
        }
    }

    /// Frobenius norm `√(a² + b² + c² + d²)`.
    #[inline]
    pub fn frobenius_norm(self) -> f64 {
        (self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d).sqrt()
    }

    /// The operator (spectral) 2-norm: the largest singular value.
    ///
    /// Used by the simulator to bound how much a frame transform can scale
    /// speeds. Computed from the closed-form singular values of a 2×2
    /// matrix.
    pub fn operator_norm(self) -> f64 {
        // Singular values of M are sqrt of eigenvalues of MᵀM.
        let m = self.transpose() * self;
        // MᵀM is symmetric positive semidefinite with entries
        // [p q; q r]; eigenvalues (p+r)/2 ± sqrt(((p-r)/2)² + q²).
        let p = m.a;
        let q = m.b;
        let r = m.d;
        let mid = 0.5 * (p + r);
        let rad = (0.25 * (p - r) * (p - r) + q * q).sqrt();
        (mid + rad).max(0.0).sqrt()
    }

    /// Whether this matrix is orthogonal within `eps` (columns orthonormal).
    pub fn is_orthogonal(self, eps: f64) -> bool {
        let c0 = self.col0();
        let c1 = self.col1();
        (c0.norm() - 1.0).abs() <= eps && (c1.norm() - 1.0).abs() <= eps && c0.dot(c1).abs() <= eps
    }

    /// QR factorization `M = Q·R` with `Q` a *rotation* (`det Q = +1`) and
    /// `R` upper triangular with `R[0,0] ≥ 0`.
    ///
    /// This is the factorization used in Lemma 5 of the paper, where `M` is
    /// the equivalent-search matrix `T∘`, `Q = Φ` and `R = T∘'`. When the
    /// first column of `M` is (numerically) zero the rotation is taken to be
    /// the identity, which keeps the factorization well-defined for the
    /// degenerate matrices that arise in infeasible instances.
    ///
    /// ```
    /// use rvz_geometry::Mat2;
    /// let m = Mat2::new(0.5, -0.3, 0.8, 1.1);
    /// let f = m.qr();
    /// assert!(f.q.is_orthogonal(1e-12));
    /// assert!((f.q * f.r - m).frobenius_norm() < 1e-12);
    /// assert!(f.r.c.abs() < 1e-12); // upper triangular
    /// ```
    pub fn qr(self) -> QrFactors {
        let col0 = self.col0();
        let n = col0.norm();
        if n < f64::MIN_POSITIVE.sqrt() {
            // Degenerate: first column ~ 0. Q = I, R = M (R is upper
            // triangular because its first column is the ~zero column).
            return QrFactors {
                q: Mat2::IDENTITY,
                r: self,
            };
        }
        // Q's first column is col0 normalized; second column is its
        // perpendicular, making det(Q) = +1.
        let u = col0 / n;
        let q = Mat2::from_columns(u, u.perp());
        // R = Qᵀ M; clamp the (1,0) entry to exactly zero — algebraically it
        // is u.perp()·col0 = 0, numerically it is ~1 ulp of noise.
        let mut r = q.transpose() * self;
        r.c = 0.0;
        QrFactors { q, r }
    }

    /// Applies the matrix to a vector.
    #[inline]
    pub fn apply(self, v: Vec2) -> Vec2 {
        Vec2::new(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)
    }
}

impl Mul<Vec2> for Mat2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, v: Vec2) -> Vec2 {
        self.apply(v)
    }
}

impl Mul for Mat2 {
    type Output = Mat2;
    #[inline]
    fn mul(self, m: Mat2) -> Mat2 {
        Mat2::new(
            self.a * m.a + self.b * m.c,
            self.a * m.b + self.b * m.d,
            self.c * m.a + self.d * m.c,
            self.c * m.b + self.d * m.d,
        )
    }
}

impl Mul<f64> for Mat2 {
    type Output = Mat2;
    #[inline]
    fn mul(self, s: f64) -> Mat2 {
        Mat2::new(self.a * s, self.b * s, self.c * s, self.d * s)
    }
}

impl Mul<Mat2> for f64 {
    type Output = Mat2;
    #[inline]
    fn mul(self, m: Mat2) -> Mat2 {
        m * self
    }
}

impl Add for Mat2 {
    type Output = Mat2;
    #[inline]
    fn add(self, m: Mat2) -> Mat2 {
        Mat2::new(self.a + m.a, self.b + m.b, self.c + m.c, self.d + m.d)
    }
}

impl Sub for Mat2 {
    type Output = Mat2;
    #[inline]
    fn sub(self, m: Mat2) -> Mat2 {
        Mat2::new(self.a - m.a, self.b - m.b, self.c - m.c, self.d - m.d)
    }
}

impl Neg for Mat2 {
    type Output = Mat2;
    #[inline]
    fn neg(self) -> Mat2 {
        Mat2::new(-self.a, -self.b, -self.c, -self.d)
    }
}

impl fmt::Display for Mat2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}; {} {}]", self.a, self.b, self.c, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_3};

    fn assert_mat_close(m: Mat2, n: Mat2, eps: f64) {
        assert!(
            (m - n).frobenius_norm() < eps,
            "matrices differ: {m} vs {n}"
        );
    }

    #[test]
    fn identity_and_zero() {
        let v = Vec2::new(3.0, -1.0);
        assert_eq!(Mat2::IDENTITY * v, v);
        assert_eq!(Mat2::ZERO * v, Vec2::ZERO);
        assert_eq!(Mat2::IDENTITY.det(), 1.0);
        assert_eq!(Mat2::IDENTITY.trace(), 2.0);
    }

    #[test]
    fn rotation_matrices() {
        let r = Mat2::rotation(FRAC_PI_2);
        assert!((r * Vec2::UNIT_X - Vec2::UNIT_Y).norm() < 1e-15);
        assert!((r.det() - 1.0).abs() < 1e-15);
        assert!(r.is_orthogonal(1e-15));
        // Composition of rotations adds angles.
        let r2 = Mat2::rotation(FRAC_PI_3) * Mat2::rotation(FRAC_PI_3);
        assert_mat_close(r2, Mat2::rotation(2.0 * FRAC_PI_3), 1e-14);
    }

    #[test]
    fn chirality_reflection_matrix() {
        let refl = Mat2::chirality_reflection(-1.0);
        assert_eq!(refl * Vec2::new(1.0, 2.0), Vec2::new(1.0, -2.0));
        assert_eq!(refl.det(), -1.0);
        assert_eq!(Mat2::chirality_reflection(1.0), Mat2::IDENTITY);
    }

    #[test]
    #[should_panic(expected = "chirality must be ±1")]
    fn chirality_rejects_other_values() {
        let _ = Mat2::chirality_reflection(0.5);
    }

    #[test]
    fn matrix_product_and_transpose() {
        let m = Mat2::new(1.0, 2.0, 3.0, 4.0);
        let n = Mat2::new(0.0, 1.0, -1.0, 2.0);
        assert_eq!(m * n, Mat2::new(-2.0, 5.0, -4.0, 11.0));
        assert_eq!(m.transpose(), Mat2::new(1.0, 3.0, 2.0, 4.0));
        assert_eq!((m * n).transpose(), n.transpose() * m.transpose());
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Mat2::new(2.0, 1.0, 1.0, 3.0);
        let inv = m.inverse().unwrap();
        assert_mat_close(m * inv, Mat2::IDENTITY, 1e-15);
        assert_mat_close(inv * m, Mat2::IDENTITY, 1e-15);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        // Rank-1 matrix: second row is 2× the first.
        let m = Mat2::new(1.0, 2.0, 2.0, 4.0);
        assert!(m.inverse().is_none());
        assert_eq!(m.det(), 0.0);
    }

    #[test]
    fn operator_norm_matches_known_cases() {
        // Diagonal matrix: operator norm = max |diagonal|.
        assert!((Mat2::new(3.0, 0.0, 0.0, -5.0).operator_norm() - 5.0).abs() < 1e-12);
        // Rotations are isometries.
        assert!((Mat2::rotation(1.0).operator_norm() - 1.0).abs() < 1e-12);
        // Scaling.
        assert!((Mat2::scaling(2.5).operator_norm() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn qr_reconstructs_and_is_canonical() {
        let cases = [
            Mat2::new(0.5, -0.3, 0.8, 1.1),
            Mat2::new(1.0, 0.0, 0.0, 1.0),
            Mat2::rotation(2.2),
            Mat2::new(-1.0, 4.0, 2.0, -8.0), // rank 1
            Mat2::new(1e-3, 5.0, 1e-3, -5.0),
        ];
        for m in cases {
            let f = m.qr();
            assert!(f.q.is_orthogonal(1e-12), "Q not orthogonal for {m}");
            assert!((f.q.det() - 1.0).abs() < 1e-12, "Q not a rotation for {m}");
            assert_eq!(f.r.c, 0.0, "R not upper triangular for {m}");
            assert!(f.r.a >= 0.0, "R[0,0] negative for {m}");
            assert_mat_close(f.q * f.r, m, 1e-12);
        }
    }

    #[test]
    fn qr_of_zero_first_column() {
        let m = Mat2::new(0.0, 3.0, 0.0, 4.0);
        let f = m.qr();
        assert_eq!(f.q, Mat2::IDENTITY);
        assert_eq!(f.r, m);
        assert_mat_close(f.q * f.r, m, 1e-15);
    }

    #[test]
    fn qr_matches_paper_closed_form() {
        // Lemma 5: for T∘ = I − v·Rot(φ)·diag(1, χ) with χ = +1 the upper
        // triangular factor is µ·I with µ = √(v² − 2v cos φ + 1).
        let v = 0.6;
        let phi = 1.1;
        let t = Mat2::IDENTITY - v * (Mat2::rotation(phi) * Mat2::chirality_reflection(1.0));
        let mu = (v * v - 2.0 * v * phi.cos() + 1.0).sqrt();
        let f = t.qr();
        assert_mat_close(f.r, Mat2::scaling(mu), 1e-12);

        // χ = −1: R = [µ, −2v sinφ/µ; 0, (1−v²)/µ].
        let t = Mat2::IDENTITY - v * (Mat2::rotation(phi) * Mat2::chirality_reflection(-1.0));
        let f = t.qr();
        let expected = Mat2::new(mu, -2.0 * v * phi.sin() / mu, 0.0, (1.0 - v * v) / mu);
        assert_mat_close(f.r, expected, 1e-12);
    }

    #[test]
    fn display_formats_rows() {
        assert_eq!(Mat2::new(1.0, 2.0, 3.0, 4.0).to_string(), "[1 2; 3 4]");
    }
}
