//! Robot attributes and the Lemma 4 reference-frame map.

use rvz_geometry::{normalize_angle, Mat2, Vec2};
use rvz_trajectory::FrameWarp;
use std::fmt;

/// Whether a robot's `+y` axis agrees with the global frame.
///
/// The paper's `χ = ±1`: [`Chirality::Consistent`] is `+1`,
/// [`Chirality::Mirrored`] is `−1` (the robot's trajectory is reflected
/// about its local x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Chirality {
    /// `χ = +1`: both robots agree on counter-clockwise.
    #[default]
    Consistent,
    /// `χ = −1`: the robots disagree on the `+y` direction.
    Mirrored,
}

impl Chirality {
    /// The paper's numeric `χ ∈ {+1, −1}`.
    pub fn sign(self) -> f64 {
        match self {
            Chirality::Consistent => 1.0,
            Chirality::Mirrored => -1.0,
        }
    }

    /// The reflection matrix `diag(1, χ)`.
    pub fn reflection(self) -> Mat2 {
        Mat2::chirality_reflection(self.sign())
    }

    /// The fixed token naming `χ` (`+1`, `-1`).
    pub fn token(self) -> &'static str {
        match self {
            Chirality::Consistent => "+1",
            Chirality::Mirrored => "-1",
        }
    }
}

impl fmt::Display for Chirality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The hidden attributes of the non-reference robot `R'`, expressed
/// relative to the reference robot `R` (which has speed 1, time unit 1,
/// orientation 0 and chirality +1 WLOG, Section 1.1 of the paper).
///
/// Build with [`RobotAttributes::reference`] plus the `with_*` methods:
///
/// ```
/// use rvz_model::{Chirality, RobotAttributes};
///
/// let attrs = RobotAttributes::reference()
///     .with_speed(0.75)
///     .with_time_unit(0.5)
///     .with_orientation(1.2)
///     .with_chirality(Chirality::Mirrored);
/// assert_eq!(attrs.speed(), 0.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobotAttributes {
    speed: f64,
    time_unit: f64,
    orientation: f64,
    chirality: Chirality,
}

impl RobotAttributes {
    /// The reference frame: `v = τ = 1`, `φ = 0`, `χ = +1`.
    pub fn reference() -> Self {
        RobotAttributes {
            speed: 1.0,
            time_unit: 1.0,
            orientation: 0.0,
            chirality: Chirality::Consistent,
        }
    }

    /// Creates attributes from all four parameters at once.
    ///
    /// # Panics
    ///
    /// Panics when `speed ≤ 0`, `time_unit ≤ 0`, or either is non-finite.
    /// `orientation` is normalized into `[0, 2π)`.
    pub fn new(speed: f64, time_unit: f64, orientation: f64, chirality: Chirality) -> Self {
        RobotAttributes::reference()
            .with_speed(speed)
            .with_time_unit(time_unit)
            .with_orientation(orientation)
            .with_chirality(chirality)
    }

    /// Sets the movement speed `v > 0`.
    ///
    /// # Panics
    ///
    /// Panics when `speed` is not positive and finite.
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(
            speed > 0.0 && speed.is_finite(),
            "speed must be positive and finite, got {speed}"
        );
        self.speed = speed;
        self
    }

    /// Sets the clock time-unit `τ > 0` (one local time unit lasts `τ`
    /// global time units).
    ///
    /// # Panics
    ///
    /// Panics when `time_unit` is not positive and finite.
    pub fn with_time_unit(mut self, time_unit: f64) -> Self {
        assert!(
            time_unit > 0.0 && time_unit.is_finite(),
            "time unit must be positive and finite, got {time_unit}"
        );
        self.time_unit = time_unit;
        self
    }

    /// Sets the compass orientation `φ`, normalized into `[0, 2π)`.
    ///
    /// # Panics
    ///
    /// Panics when `orientation` is not finite.
    pub fn with_orientation(mut self, orientation: f64) -> Self {
        assert!(orientation.is_finite(), "orientation must be finite");
        self.orientation = normalize_angle(orientation);
        self
    }

    /// Sets the chirality `χ`.
    pub fn with_chirality(mut self, chirality: Chirality) -> Self {
        self.chirality = chirality;
        self
    }

    /// Movement speed `v`.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Clock time-unit `τ`.
    pub fn time_unit(&self) -> f64 {
        self.time_unit
    }

    /// Compass orientation `φ ∈ [0, 2π)`.
    pub fn orientation(&self) -> f64 {
        self.orientation
    }

    /// Chirality `χ`.
    pub fn chirality(&self) -> Chirality {
        self.chirality
    }

    /// `true` when these are exactly the reference attributes (an
    /// indistinguishable twin of `R`).
    pub fn is_reference(&self) -> bool {
        *self == RobotAttributes::reference()
    }

    /// The Lemma 4 matrix `v·Rot(φ)·Refl(χ)`, i.e. the linear part of the
    /// frame map **per local time unit scale** (without the clock's `τ`
    /// distance-unit factor).
    ///
    /// With symmetric clocks (`τ = 1`) the robot `R'` executing the common
    /// trajectory `S(t)` follows exactly `d⃗ + lemma4_matrix()·S(t)`.
    pub fn lemma4_matrix(&self) -> Mat2 {
        self.speed * (Mat2::rotation(self.orientation) * self.chirality.reflection())
    }

    /// The full linear part of the global-frame map, `(v·τ)·Rot(φ)·Refl(χ)`.
    ///
    /// The `v·τ` factor is the robot's own distance unit — the product of
    /// its speed and its time unit (Section 1.1) — so that traversing one
    /// local distance unit takes one local clock unit.
    pub fn frame_linear(&self) -> Mat2 {
        (self.speed * self.time_unit)
            * (Mat2::rotation(self.orientation) * self.chirality.reflection())
    }

    /// Wraps the common algorithm trajectory into this robot's frame,
    /// starting from `start`: the robot's global-time position is
    /// `start + frame_linear()·S(t/τ)` (Lemma 4, generalized to `τ ≠ 1`).
    ///
    /// ```
    /// use rvz_model::RobotAttributes;
    /// use rvz_trajectory::{PathBuilder, Trajectory};
    /// use rvz_geometry::Vec2;
    ///
    /// let algo = PathBuilder::at(Vec2::ZERO).line_to(Vec2::UNIT_X).build();
    /// let attrs = RobotAttributes::reference().with_speed(0.5);
    /// let robot = attrs.frame_warp(algo, Vec2::new(3.0, 0.0));
    /// // After the (local and global) unit of time it has moved 0.5 right.
    /// assert_eq!(robot.position(1.0), Vec2::new(3.5, 0.0));
    /// ```
    pub fn frame_warp<T>(&self, algorithm: T, start: Vec2) -> FrameWarp<T> {
        FrameWarp::new(algorithm, self.frame_linear(), start, self.time_unit)
    }

    /// The symmetry-breaking factor `µ = √(v² − 2v·cos φ + 1)` from
    /// Theorem 2 / Lemma 5.
    ///
    /// `µ` is the operator that scales the equivalent search trajectory
    /// when chiralities agree; `µ = 0` exactly when `v = 1 ∧ φ = 0`.
    pub fn mu(&self) -> f64 {
        let v = self.speed;
        (v * v - 2.0 * v * self.orientation.cos() + 1.0)
            .max(0.0)
            .sqrt()
    }
}

impl Default for RobotAttributes {
    fn default() -> Self {
        RobotAttributes::reference()
    }
}

impl fmt::Display for RobotAttributes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "v={}, τ={}, φ={:.4}, χ={}",
            self.speed, self.time_unit, self.orientation, self.chirality
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;
    use rvz_trajectory::{PathBuilder, Trajectory};
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn reference_is_identity_frame() {
        let r = RobotAttributes::reference();
        assert!(r.is_reference());
        assert_eq!(r.lemma4_matrix(), Mat2::IDENTITY);
        assert_eq!(r.frame_linear(), Mat2::IDENTITY);
        assert_eq!(r.mu(), 0.0);
    }

    #[test]
    fn builder_methods_set_fields() {
        let a = RobotAttributes::new(0.5, 2.0, PI, Chirality::Mirrored);
        assert_eq!(a.speed(), 0.5);
        assert_eq!(a.time_unit(), 2.0);
        assert_eq!(a.orientation(), PI);
        assert_eq!(a.chirality(), Chirality::Mirrored);
        assert!(!a.is_reference());
    }

    #[test]
    fn orientation_is_normalized() {
        let a = RobotAttributes::reference().with_orientation(-FRAC_PI_2);
        assert_approx_eq!(a.orientation(), 3.0 * FRAC_PI_2);
        let b = RobotAttributes::reference().with_orientation(2.0 * PI);
        assert_eq!(b.orientation(), 0.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = RobotAttributes::reference().with_speed(0.0);
    }

    #[test]
    #[should_panic(expected = "time unit must be positive")]
    fn negative_time_unit_rejected() {
        let _ = RobotAttributes::reference().with_time_unit(-1.0);
    }

    #[test]
    fn lemma4_matrix_matches_paper_form() {
        // Paper, Lemma 4: S'(t) = [v cosφ, −vχ sinφ; v sinφ, vχ cosφ]·S(t).
        let v = 0.7;
        let phi = 1.3;
        for (chi, chi_sign) in [(Chirality::Consistent, 1.0), (Chirality::Mirrored, -1.0)] {
            let a = RobotAttributes::new(v, 1.0, phi, chi);
            let m = a.lemma4_matrix();
            let expected = Mat2::new(
                v * phi.cos(),
                -v * chi_sign * phi.sin(),
                v * phi.sin(),
                v * chi_sign * phi.cos(),
            );
            assert!((m - expected).frobenius_norm() < 1e-14);
        }
    }

    #[test]
    fn frame_linear_includes_distance_unit() {
        let a = RobotAttributes::new(0.5, 4.0, 0.0, Chirality::Consistent);
        assert_eq!(a.frame_linear(), Mat2::scaling(2.0));
    }

    #[test]
    fn mu_known_values() {
        // v = 1, φ = π: µ = √(1 + 2 + 1) = 2.
        let a = RobotAttributes::reference().with_orientation(PI);
        assert_approx_eq!(a.mu(), 2.0);
        // v = 1, φ = π/2: µ = √2.
        let b = RobotAttributes::reference().with_orientation(FRAC_PI_2);
        assert_approx_eq!(b.mu(), 2.0_f64.sqrt());
        // φ = 0: µ = |1 − v|.
        let c = RobotAttributes::reference().with_speed(0.25);
        assert_approx_eq!(c.mu(), 0.75);
    }

    #[test]
    fn frame_warp_respects_clock_and_speed() {
        // Unit-leg algorithm; v = 2, τ = 0.5: distance unit vτ = 1, so the
        // robot covers 1 global distance in 0.5 global time (speed 2).
        let algo = PathBuilder::at(Vec2::ZERO).line_to(Vec2::UNIT_X).build();
        let a = RobotAttributes::reference()
            .with_speed(2.0)
            .with_time_unit(0.5);
        let w = a.frame_warp(algo, Vec2::ZERO);
        assert_eq!(w.position(0.5), Vec2::UNIT_X);
        assert_approx_eq!(w.speed_bound(), 2.0);
        assert_eq!(w.duration(), Some(0.5));
    }

    #[test]
    fn mirrored_warp_reflects_y() {
        let algo = PathBuilder::at(Vec2::ZERO).line_to(Vec2::UNIT_Y).build();
        let a = RobotAttributes::reference().with_chirality(Chirality::Mirrored);
        let w = a.frame_warp(algo, Vec2::ZERO);
        assert!((w.position(1.0) + Vec2::UNIT_Y).norm() < 1e-15);
    }

    #[test]
    fn display_is_informative() {
        let a = RobotAttributes::new(0.5, 2.0, 1.0, Chirality::Mirrored);
        let s = a.to_string();
        assert!(s.contains("v=0.5") && s.contains("τ=2") && s.contains("χ=-1"));
    }
}
