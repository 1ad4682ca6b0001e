//! The omniscient Archimedean-spiral searcher.
//!
//! A searcher that *knows* the visibility radius `r` can sweep the plane
//! with an Archimedean spiral of pitch `2r`: successive windings are `2r`
//! apart, so every point within the swept disk comes within `r` of the
//! robot. Reaching a target at distance `d` costs approximately the arc
//! length of the spiral out to radius `d + r`,
//! `≈ π·d²/pitch = π·d²/(2r)` — the `Θ(d²/r)` yardstick without the
//! universal algorithm's `log` factor.

use rvz_geometry::Vec2;
use rvz_trajectory::monotone::{Cursor, MonotoneGuard, MonotoneTrajectory, Motion, Probe};
use rvz_trajectory::Trajectory;

/// A unit-speed Archimedean spiral `radius(θ) = (pitch/2π)·θ` starting at
/// the origin.
///
/// Implements [`Trajectory`] by inverting the arc-length function with a
/// Newton iteration (converges to machine precision in a handful of
/// steps; see `position`).
///
/// # Example
///
/// ```
/// use rvz_baselines::ArchimedeanSpiral;
/// use rvz_trajectory::Trajectory;
///
/// let s = ArchimedeanSpiral::with_pitch(0.5);
/// assert_eq!(s.position(0.0), rvz_geometry::Vec2::ZERO);
/// // Unit speed: after time t the robot has travelled arc length t.
/// let p = s.position(10.0);
/// assert!(p.norm() > 0.5); // well away from the origin by then
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchimedeanSpiral {
    /// Radial growth per radian, `b = pitch / 2π`.
    b: f64,
}

impl ArchimedeanSpiral {
    /// Spiral with the given distance between successive windings.
    ///
    /// # Panics
    ///
    /// Panics unless `pitch > 0` and finite.
    pub fn with_pitch(pitch: f64) -> Self {
        assert!(
            pitch > 0.0 && pitch.is_finite(),
            "pitch must be positive and finite, got {pitch}"
        );
        ArchimedeanSpiral {
            b: pitch / std::f64::consts::TAU,
        }
    }

    /// The spiral an informed searcher with visibility `r` would use:
    /// pitch `2r`.
    ///
    /// # Panics
    ///
    /// Panics unless `visibility > 0` and finite.
    pub fn for_visibility(visibility: f64) -> Self {
        ArchimedeanSpiral::with_pitch(2.0 * visibility)
    }

    /// Distance between successive windings.
    pub fn pitch(&self) -> f64 {
        self.b * std::f64::consts::TAU
    }

    /// Arc length from the origin to parameter angle `θ`:
    /// `s(θ) = (b/2)(θ√(1+θ²) + asinh θ)`.
    pub fn arc_length(&self, theta: f64) -> f64 {
        0.5 * self.b * (theta * (1.0 + theta * theta).sqrt() + theta.asinh())
    }

    /// The parameter angle after arc length `s`, by Newton iteration on
    /// the exact [`ArchimedeanSpiral::arc_length`].
    pub fn theta_at(&self, s: f64) -> f64 {
        debug_assert!(s >= 0.0 && !s.is_nan(), "arc length must be >= 0, got {s}");
        if s == 0.0 {
            return 0.0;
        }
        // For large θ, s ≈ bθ²/2 ⇒ θ ≈ √(2s/b); exact at 0. Newton with
        // s'(θ) = b√(1+θ²) then polishes quadratically.
        self.theta_at_from(s, (2.0 * s / self.b).sqrt())
    }

    /// [`ArchimedeanSpiral::theta_at`] seeded with an explicit initial
    /// guess — the spiral cursor passes its previously found angle, which
    /// cuts the Newton iteration to one or two steps for nearby queries.
    pub fn theta_at_from(&self, s: f64, guess: f64) -> f64 {
        let mut theta = guess;
        for _ in 0..60 {
            let f = self.arc_length(theta) - s;
            let df = self.b * (1.0 + theta * theta).sqrt();
            let step = f / df;
            theta -= step;
            if step.abs() <= 1e-15 * (1.0 + theta.abs()) {
                break;
            }
        }
        theta.max(0.0)
    }

    /// Estimated time to find a target at distance `d`:
    /// the arc length out to radius `d` (`≈ π·d²/pitch` for `d ≫ pitch`).
    pub fn search_time_estimate(&self, d: f64) -> f64 {
        self.arc_length(d / self.b)
    }
}

impl Trajectory for ArchimedeanSpiral {
    fn position(&self, t: f64) -> Vec2 {
        debug_assert!(t >= 0.0 && !t.is_nan(), "position requires t >= 0, got {t}");
        let theta = self.theta_at(t);
        Vec2::from_polar(self.b * theta, theta)
    }

    fn speed_bound(&self) -> f64 {
        1.0
    }
}

/// The [`MonotoneTrajectory`] cursor of the spiral: warm-starts each
/// Newton inversion from the previously found angle.
///
/// The arc-length function is strictly increasing, so for non-decreasing
/// queries the previous angle is always at or below the new root — a
/// near-perfect initial guess that typically converges in one or two
/// iterations instead of the cold start's handful.
#[derive(Debug, Clone)]
pub struct SpiralCursor<'a> {
    spiral: &'a ArchimedeanSpiral,
    theta: f64,
    guard: MonotoneGuard,
}

impl Cursor for SpiralCursor<'_> {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        self.theta = if t == 0.0 {
            0.0
        } else {
            self.spiral.theta_at_from(t, self.theta.max(1e-12))
        };
        Probe {
            position: Vec2::from_polar(self.spiral.b * self.theta, self.theta),
            piece_end: f64::INFINITY,
            motion: Motion::Curved,
        }
    }

    fn speed_bound(&self) -> f64 {
        1.0
    }
}

impl MonotoneTrajectory for ArchimedeanSpiral {
    type Cursor<'a> = SpiralCursor<'a>;

    fn cursor(&self) -> SpiralCursor<'_> {
        SpiralCursor {
            spiral: self,
            theta: 0.0,
            guard: MonotoneGuard::default(),
        }
    }
}

/// The spiral is transcendental — its cursor reports a single
/// [`Motion::Curved`] piece — so
/// [`compile`](rvz_trajectory::Compile::compile) fails with
/// [`CompileError::Curved`](rvz_trajectory::CompileError::Curved) and the
/// spiral keeps running on the cursor engines. It is the workspace's
/// canonical exercise of the compiled stack's refusal.
impl rvz_trajectory::Compile for ArchimedeanSpiral {}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;

    #[test]
    fn starts_at_origin() {
        let s = ArchimedeanSpiral::with_pitch(1.0);
        assert_eq!(s.position(0.0), Vec2::ZERO);
    }

    #[test]
    fn windings_are_pitch_apart() {
        let s = ArchimedeanSpiral::with_pitch(0.8);
        // At θ and θ + 2π the radius grows by exactly the pitch.
        let theta = 7.0;
        let r1 = s.b * theta;
        let r2 = s.b * (theta + std::f64::consts::TAU);
        assert_approx_eq!(r2 - r1, 0.8);
    }

    #[test]
    fn arc_length_inversion_roundtrips() {
        let s = ArchimedeanSpiral::with_pitch(0.3);
        for theta in [0.0, 0.1, 1.0, 10.0, 200.0] {
            let len = s.arc_length(theta);
            let back = s.theta_at(len);
            assert!((back - theta).abs() < 1e-9 * (1.0 + theta), "θ={theta}");
        }
    }

    #[test]
    fn unit_speed() {
        let s = ArchimedeanSpiral::with_pitch(0.5);
        let h = 1e-6;
        for t in [0.5, 3.0, 40.0, 500.0] {
            let v = s.position(t + h).distance(s.position(t)) / h;
            assert!((v - 1.0).abs() < 1e-4, "speed {v} at t={t}");
        }
    }

    #[test]
    fn for_visibility_sets_pitch_2r() {
        let s = ArchimedeanSpiral::for_visibility(0.25);
        assert_approx_eq!(s.pitch(), 0.5);
    }

    #[test]
    fn estimate_scales_quadratically() {
        let s = ArchimedeanSpiral::for_visibility(0.01);
        let t1 = s.search_time_estimate(1.0);
        let t2 = s.search_time_estimate(2.0);
        let ratio = t2 / t1;
        assert!((ratio - 4.0).abs() < 0.05, "ratio {ratio}");
        // And matches π·d²/pitch asymptotically.
        let expected = std::f64::consts::PI * 4.0 / 0.02;
        assert!((t2 - expected).abs() / expected < 0.02);
    }

    #[test]
    fn spiral_finds_targets_with_informed_pitch() {
        use rvz_sim::{first_contact, ContactOptions, Stationary};
        let r = 0.05;
        let s = ArchimedeanSpiral::for_visibility(r);
        for target in [
            Vec2::new(0.7, 0.2),
            Vec2::new(-0.4, -0.9),
            Vec2::new(0.0, 1.3),
        ] {
            let out = first_contact(
                &s,
                &Stationary::new(target),
                r,
                &ContactOptions::with_horizon(1e5),
            );
            let t = out
                .contact_time()
                .unwrap_or_else(|| panic!("missed {target}"));
            // Found no later than the arc length out to radius d + r, and
            // not absurdly early.
            let est = s.search_time_estimate(target.norm() + r);
            assert!(
                t <= est * 1.05 + 1.0,
                "target {target}: {t} vs estimate {est}"
            );
        }
    }

    #[test]
    fn cursor_matches_random_access() {
        use rvz_trajectory::monotone::{Cursor as _, MonotoneTrajectory as _};
        let s = ArchimedeanSpiral::with_pitch(0.4);
        let mut c = s.cursor();
        for i in 0..=2000 {
            let t = 500.0 * i as f64 / 2000.0;
            let p = c.probe(t);
            assert!(
                p.position.distance(s.position(t)) < 1e-9 * (1.0 + t),
                "mismatch at t={t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let _ = ArchimedeanSpiral::with_pitch(0.0);
    }

    #[test]
    fn lowering_refuses() {
        use rvz_trajectory::{Compile as _, CompileError, CompileOptions};
        let s = ArchimedeanSpiral::with_pitch(0.5);
        let err = s.compile(&CompileOptions::to_horizon(10.0)).unwrap_err();
        assert!(matches!(err, CompileError::Curved { .. }), "{err}");
    }
}
