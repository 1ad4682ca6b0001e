//! Lemmas 4 and 5: the equivalent search trajectory.
//!
//! With symmetric clocks (`τ = 1`), if both robots run the common
//! trajectory `S(t)`, the reference robot follows `S(t)` and the other
//! follows `d⃗ + M·S(t)` with `M = v·Rot(φ)·Refl(χ)` (Lemma 4). Their
//! *relative* motion is therefore
//!
//! ```text
//! S(t) − S'(t) = (I − M)·S(t) = T∘·S(t)
//! ```
//!
//! so the pair rendezvous exactly when the single "virtual" robot
//! `T∘·S(t)` finds a stationary target at `d⃗` — a search problem.
//!
//! This is the query production runs: `rvz_sim::simulate_rendezvous_by_ref`
//! answers every `τ = 1` instance as a `Stationary` target at `d⃗`
//! against the common algorithm warped by exactly [`EquivalentSearch::matrix`]
//! (`I − frame_linear()`, which equals `I − lemma4_matrix()` at `τ = 1`).
//! The analysis below (Lemma 5's QR factors, the projection factors of
//! Lemma 7) bounds that search; the engine runs it directly.
//! Lemma 5 QR-factors `T∘ = Φ·T∘'` with `Φ` a rotation (irrelevant to
//! distances) and `T∘'` upper triangular; the top-left entry of `T∘'` is
//! the symmetry-breaking scale `µ = √(v² − 2v·cos φ + 1)`.

use rvz_geometry::{Mat2, QrFactors, Vec2};
use rvz_model::{Chirality, RobotAttributes};

/// The equivalent-search reduction for a robot-attribute pair with
/// symmetric clocks.
///
/// # Example
///
/// ```
/// use rvz_core::EquivalentSearch;
/// use rvz_model::RobotAttributes;
///
/// let attrs = RobotAttributes::reference().with_speed(0.5);
/// let eq = EquivalentSearch::new(&attrs);
/// // v = 0.5, φ = 0: T∘ = 0.5·I and µ = 0.5.
/// assert!((eq.mu() - 0.5).abs() < 1e-12);
/// assert!(!eq.is_degenerate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivalentSearch {
    attrs: RobotAttributes,
    t_circ: Mat2,
}

impl EquivalentSearch {
    /// Builds the reduction for `attrs`.
    ///
    /// # Panics
    ///
    /// Panics when `attrs.time_unit() != 1` — the reduction is only exact
    /// for symmetric clocks; asymmetric clocks are handled by Algorithm 7
    /// (see [`crate::algorithm7`]).
    pub fn new(attrs: &RobotAttributes) -> Self {
        assert!(
            attrs.time_unit() == 1.0,
            "the equivalent-search reduction requires τ = 1, got τ = {}",
            attrs.time_unit()
        );
        let t_circ = Mat2::IDENTITY - attrs.lemma4_matrix();
        EquivalentSearch {
            attrs: *attrs,
            t_circ,
        }
    }

    /// The matrix `T∘ = I − v·Rot(φ)·Refl(χ)` of Lemma 4 / Definition 1.
    pub fn matrix(&self) -> Mat2 {
        self.t_circ
    }

    /// The QR factorization `T∘ = Φ·T∘'` of Lemma 5 (computed
    /// numerically; see [`EquivalentSearch::upper_triangular_closed_form`]
    /// for the paper's closed form, which it matches to rounding).
    pub fn qr(&self) -> QrFactors {
        self.t_circ.qr()
    }

    /// Lemma 5's closed form for the upper-triangular factor:
    ///
    /// ```text
    /// T∘' = [ µ   −(1−χ)·v·sinφ/µ            ]
    ///       [ 0   (χv² − (1+χ)v·cosφ + 1)/µ ]
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `µ = 0` (identical twins: `v = 1, φ = 0`), where the
    /// paper's expression divides by zero. Callers should check
    /// [`EquivalentSearch::is_degenerate`] first.
    pub fn upper_triangular_closed_form(&self) -> Mat2 {
        let mu = self.mu();
        assert!(mu > 0.0, "closed form undefined at µ = 0 (identical twins)");
        let v = self.attrs.speed();
        let phi = self.attrs.orientation();
        let chi = self.attrs.chirality().sign();
        Mat2::new(
            mu,
            -(1.0 - chi) * v * phi.sin() / mu,
            0.0,
            (chi * v * v - (1.0 + chi) * v * phi.cos() + 1.0) / mu,
        )
    }

    /// The symmetry-breaking scale `µ = √(v² − 2v·cosφ + 1)`.
    pub fn mu(&self) -> f64 {
        self.attrs.mu()
    }

    /// `det T∘` — zero exactly on the infeasible set of Theorem 4
    /// restricted to `τ = 1`.
    pub fn determinant(&self) -> f64 {
        self.t_circ.det()
    }

    /// `true` when the reduction cannot certify rendezvous:
    ///
    /// * equal chirality: degenerate iff `µ = 0` (`v = 1 ∧ φ = 0`);
    /// * opposite chirality: degenerate iff `v = 1` (then
    ///   `T∘` has rank ≤ 1 and misses targets off its range line).
    pub fn is_degenerate(&self) -> bool {
        match self.attrs.chirality() {
            Chirality::Consistent => self.mu() == 0.0,
            Chirality::Mirrored => self.attrs.speed() == 1.0,
        }
    }

    /// The factor `|T∘ᵀ·d̂|` by which the effective search instance is
    /// rescaled for a target in direction `direction` (Lemma 7's change of
    /// variables): the equivalent search must solve distance
    /// `d/|T∘ᵀd̂|` with visibility `r/|T∘ᵀd̂|`.
    ///
    /// # Panics
    ///
    /// Panics if `direction` is (numerically) zero.
    pub fn projection_factor(&self, direction: Vec2) -> f64 {
        let unit = direction
            .normalized()
            .expect("direction must be a non-zero vector");
        (self.t_circ.transpose() * unit).norm()
    }

    /// The worst-case (minimum) projection factor over all target
    /// directions — the smallest singular value of `T∘`.
    ///
    /// * `χ = +1`: `T∘` is `µ` times a rotation, so the factor is `µ` in
    ///   every direction.
    /// * `χ = −1`: `det T∘ = 1 − v²` and the largest singular value is at
    ///   most `1 + v`, so the minimum is `|1 − v²| / σ₁ ≥ 1 − v` — the
    ///   `1 − v` lower bound is exactly what Theorem 2's mirrored-case
    ///   time bound uses (see [`crate::bounds`]).
    pub fn worst_case_projection_factor(&self) -> f64 {
        match self.attrs.chirality() {
            Chirality::Consistent => self.mu(),
            Chirality::Mirrored => {
                let sigma1 = self.t_circ.operator_norm();
                if sigma1 == 0.0 {
                    0.0
                } else {
                    self.t_circ.det().abs() / sigma1
                }
            }
        }
    }

    /// The attributes this reduction was built from.
    pub fn attributes(&self) -> &RobotAttributes {
        &self.attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn attrs(v: f64, phi: f64, chi: Chirality) -> RobotAttributes {
        RobotAttributes::new(v, 1.0, phi, chi)
    }

    #[test]
    fn matrix_matches_definition_1() {
        // Definition 1 / Lemma 4: T∘ = [1−v cosφ, vχ sinφ; −v sinφ, 1−vχ cosφ].
        for (v, phi, chi, chi_s) in [
            (0.6, 1.1, Chirality::Consistent, 1.0),
            (0.6, 1.1, Chirality::Mirrored, -1.0),
            (1.0, 2.7, Chirality::Consistent, 1.0),
        ] {
            let eq = EquivalentSearch::new(&attrs(v, phi, chi));
            // The map the engine runs τ = 1 queries through, bit for bit.
            assert_eq!(
                eq.matrix(),
                Mat2::IDENTITY - attrs(v, phi, chi).frame_linear()
            );
            let expected = Mat2::new(
                1.0 - v * phi.cos(),
                v * chi_s * phi.sin(),
                -v * phi.sin(),
                1.0 - v * chi_s * phi.cos(),
            );
            assert!(
                (eq.matrix() - expected).frobenius_norm() < 1e-14,
                "v={v} φ={phi} χ={chi_s}"
            );
        }
    }

    #[test]
    fn consistent_chirality_gives_mu_times_identity() {
        // Lemma 6: for χ = +1, T∘' = µ·I.
        for (v, phi) in [(0.5, 0.0), (0.8, 1.2), (1.0, PI), (0.3, FRAC_PI_2)] {
            let eq = EquivalentSearch::new(&attrs(v, phi, Chirality::Consistent));
            let r = eq.qr().r;
            let mu = eq.mu();
            assert!(
                (r - Mat2::scaling(mu)).frobenius_norm() < 1e-12,
                "v={v} φ={phi}"
            );
            // Closed form agrees.
            let cf = eq.upper_triangular_closed_form();
            assert!((cf - Mat2::scaling(mu)).frobenius_norm() < 1e-12);
        }
    }

    #[test]
    fn mirrored_chirality_closed_form_matches_qr() {
        // Lemma 7's specialized matrix: [µ, −2v sinφ/µ; 0, (1−v²)/µ].
        for (v, phi) in [(0.5, 0.7), (0.9, 2.0), (0.2, 5.5)] {
            let eq = EquivalentSearch::new(&attrs(v, phi, Chirality::Mirrored));
            let qr_r = eq.qr().r;
            let cf = eq.upper_triangular_closed_form();
            assert!((qr_r - cf).frobenius_norm() < 1e-10, "v={v} φ={phi}");
            let mu = eq.mu();
            let expected = Mat2::new(mu, -2.0 * v * phi.sin() / mu, 0.0, (1.0 - v * v) / mu);
            assert!((cf - expected).frobenius_norm() < 1e-12, "v={v} φ={phi}");
        }
    }

    #[test]
    fn qr_reconstructs_t_circ() {
        for chi in [Chirality::Consistent, Chirality::Mirrored] {
            let eq = EquivalentSearch::new(&attrs(0.7, 2.3, chi));
            let f = eq.qr();
            assert!(f.q.is_orthogonal(1e-12));
            assert!(((f.q * f.r) - eq.matrix()).frobenius_norm() < 1e-12);
        }
    }

    #[test]
    fn degeneracy_matches_theorem4() {
        // Identical twins.
        assert!(EquivalentSearch::new(&attrs(1.0, 0.0, Chirality::Consistent)).is_degenerate());
        // Orientation breaks symmetry with equal chirality.
        assert!(!EquivalentSearch::new(&attrs(1.0, 0.1, Chirality::Consistent)).is_degenerate());
        // Mirror twins: degenerate for every φ when v = 1.
        for phi in [0.0, 1.0, PI] {
            assert!(EquivalentSearch::new(&attrs(1.0, phi, Chirality::Mirrored)).is_degenerate());
        }
        // Speed rescues the mirrored case.
        assert!(!EquivalentSearch::new(&attrs(0.5, 1.0, Chirality::Mirrored)).is_degenerate());
    }

    #[test]
    fn determinant_zero_iff_mirror_or_twin() {
        assert_approx_eq!(
            EquivalentSearch::new(&attrs(1.0, 1.3, Chirality::Mirrored)).determinant(),
            0.0
        );
        assert_approx_eq!(
            EquivalentSearch::new(&attrs(1.0, 0.0, Chirality::Consistent)).determinant(),
            0.0
        );
        assert!(
            EquivalentSearch::new(&attrs(0.5, 0.0, Chirality::Consistent))
                .determinant()
                .abs()
                > 0.1
        );
    }

    #[test]
    fn projection_factor_consistent_is_direction_independent() {
        let eq = EquivalentSearch::new(&attrs(0.6, 1.0, Chirality::Consistent));
        let f1 = eq.projection_factor(Vec2::UNIT_X);
        let f2 = eq.projection_factor(Vec2::new(1.0, 3.0));
        assert_approx_eq!(f1, eq.mu(), 1e-12);
        assert_approx_eq!(f2, eq.mu(), 1e-12);
        assert_approx_eq!(eq.worst_case_projection_factor(), eq.mu());
    }

    #[test]
    fn projection_factor_mirrored_worst_case() {
        // The minimum of |T∘ᵀ·d̂| over directions is the smaller singular
        // value; Theorem 2 lower-bounds it by 1 − v.
        let v = 0.6;
        for phi in [0.3, 1.0, 2.5] {
            let eq = EquivalentSearch::new(&attrs(v, phi, Chirality::Mirrored));
            let worst = eq.worst_case_projection_factor();
            // Scan directions for the numeric minimum.
            let mut min_seen = f64::INFINITY;
            let mut a = 0.0;
            while a < PI {
                min_seen = min_seen.min(eq.projection_factor(Vec2::from_polar(1.0, a)));
                a += 1e-3;
            }
            assert!(
                (min_seen - worst).abs() < 1e-4,
                "φ={phi}: scan {min_seen} vs closed form {worst}"
            );
            // Theorem 2's 1 − v lower bound holds ...
            assert!(worst >= 1.0 - v - 1e-12, "φ={phi}");
            // ... and the paper's specific direction d̂ = ŷ (rotated) gives
            // (1−v²)/µ, an upper bound on the minimum.
            let mu = eq.mu();
            assert!(worst <= (1.0 - v * v) / mu + 1e-12, "φ={phi}");
        }
    }

    #[test]
    #[should_panic(expected = "requires τ = 1")]
    fn rejects_asymmetric_clocks() {
        let a = RobotAttributes::reference().with_time_unit(0.5);
        let _ = EquivalentSearch::new(&a);
    }

    #[test]
    #[should_panic(expected = "undefined at µ = 0")]
    fn closed_form_rejects_twins() {
        let eq = EquivalentSearch::new(&attrs(1.0, 0.0, Chirality::Consistent));
        let _ = eq.upper_triangular_closed_form();
    }
}
