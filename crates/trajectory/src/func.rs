//! Closure-backed trajectories.
//!
//! Closed-form motions that are awkward to decompose into line/arc
//! segments — the Archimedean-spiral baseline in `rvz-oracles`, ad-hoc
//! adversary motions in tests — implement [`Trajectory`]
//! through [`FnTrajectory`], which pairs a position closure with an
//! explicitly declared speed bound.

use crate::monotone::{Cursor, MonotoneGuard, MonotoneTrajectory, Motion, Probe};
use crate::Trajectory;
use rvz_geometry::Vec2;

/// A trajectory defined by an arbitrary `t ↦ position` closure.
///
/// The caller *declares* the speed bound; the conservative-advancement
/// simulator relies on it, so an understated bound will produce missed
/// contacts. The property tests in `rvz-sim` check declared bounds by
/// dense sampling.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{FnTrajectory, Trajectory};
/// use rvz_geometry::Vec2;
///
/// // Uniform motion to the right at speed 2.
/// let t = FnTrajectory::new(|t| Vec2::new(2.0 * t, 0.0), 2.0);
/// assert_eq!(t.position(3.0), Vec2::new(6.0, 0.0));
/// assert_eq!(t.speed_bound(), 2.0);
/// assert_eq!(t.duration(), None);
/// ```
#[derive(Clone)]
pub struct FnTrajectory<F> {
    f: F,
    speed_bound: f64,
    duration: Option<f64>,
}

impl<F: Fn(f64) -> Vec2> FnTrajectory<F> {
    /// Creates an infinite-duration trajectory from a closure and a speed
    /// bound.
    ///
    /// # Panics
    ///
    /// Panics if `speed_bound` is negative or non-finite.
    pub fn new(f: F, speed_bound: f64) -> Self {
        assert!(
            speed_bound >= 0.0 && speed_bound.is_finite(),
            "speed bound must be finite and >= 0, got {speed_bound}"
        );
        FnTrajectory {
            f,
            speed_bound,
            duration: None,
        }
    }

    /// Creates a finite-duration trajectory. For `t ≥ duration` the
    /// closure is evaluated at `duration` (the motion holds its end).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or NaN, or the speed bound is
    /// invalid.
    pub fn with_duration(f: F, speed_bound: f64, duration: f64) -> Self {
        assert!(
            duration >= 0.0 && !duration.is_nan(),
            "duration must be >= 0, got {duration}"
        );
        let mut t = FnTrajectory::new(f, speed_bound);
        t.duration = Some(duration);
        t
    }
}

impl<F: Fn(f64) -> Vec2> Trajectory for FnTrajectory<F> {
    fn position(&self, t: f64) -> Vec2 {
        assert!(t >= 0.0 && !t.is_nan(), "position requires t >= 0, got {t}");
        let t = match self.duration {
            Some(d) => t.min(d),
            None => t,
        };
        (self.f)(t)
    }

    fn speed_bound(&self) -> f64 {
        self.speed_bound
    }

    fn duration(&self) -> Option<f64> {
        self.duration
    }
}

/// Cursor over a closure-backed trajectory: the closure stays opaque
/// ([`Motion::Curved`]) while it runs, but the rest state after a finite
/// duration is reported as a permanent zero-velocity piece, so the
/// simulator can leap over it analytically.
#[derive(Debug, Clone)]
pub struct FnCursor<'a, F> {
    trajectory: &'a FnTrajectory<F>,
    guard: MonotoneGuard,
}

impl<F: Fn(f64) -> Vec2> Cursor for FnCursor<'_, F> {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        match self.trajectory.duration {
            Some(d) if t >= d => Probe::resting((self.trajectory.f)(d)),
            Some(d) => Probe {
                position: (self.trajectory.f)(t),
                piece_end: d,
                motion: Motion::Curved,
            },
            None => Probe {
                position: (self.trajectory.f)(t),
                piece_end: f64::INFINITY,
                motion: Motion::Curved,
            },
        }
    }

    fn speed_bound(&self) -> f64 {
        self.trajectory.speed_bound
    }
}

impl<F: Fn(f64) -> Vec2> MonotoneTrajectory for FnTrajectory<F> {
    type Cursor<'a>
        = FnCursor<'a, F>
    where
        F: 'a;

    fn cursor(&self) -> FnCursor<'_, F> {
        FnCursor {
            trajectory: self,
            guard: MonotoneGuard::default(),
        }
    }
}

/// Closure-backed trajectories are one curved piece, so lowering refuses
/// with [`crate::CompileError::Curved`]; the impl lets curved stacks
/// exercise that refusal through the compiled entry points.
impl<F: Fn(f64) -> Vec2> crate::Compile for FnTrajectory<F> {}

impl<F> std::fmt::Debug for FnTrajectory<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnTrajectory")
            .field("speed_bound", &self.speed_bound)
            .field("duration", &self.duration)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_closure_trajectory() {
        let t = FnTrajectory::new(|t| Vec2::new(t, t * t), 10.0);
        assert_eq!(t.position(2.0), Vec2::new(2.0, 4.0));
        assert_eq!(t.duration(), None);
    }

    #[test]
    fn finite_duration_clamps() {
        let t = FnTrajectory::with_duration(|t| Vec2::new(t, 0.0), 1.0, 3.0);
        assert_eq!(t.position(2.0), Vec2::new(2.0, 0.0));
        assert_eq!(t.position(5.0), Vec2::new(3.0, 0.0));
        assert_eq!(t.duration(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "speed bound must be finite")]
    fn invalid_speed_bound_panics() {
        let _ = FnTrajectory::new(|_| Vec2::ZERO, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "requires t >= 0")]
    fn negative_time_panics() {
        let t = FnTrajectory::new(|_| Vec2::ZERO, 1.0);
        let _ = t.position(-1.0);
    }

    #[test]
    fn cursor_matches_random_access_and_rests() {
        let t = FnTrajectory::with_duration(|t| Vec2::new(t, t * t), 10.0, 3.0);
        let mut c = t.cursor();
        for i in 0..50 {
            let time = i as f64 * 0.1;
            assert_eq!(c.probe(time).position, t.position(time));
        }
        let rest = c.probe(7.0);
        assert_eq!(rest.position, Vec2::new(3.0, 9.0));
        assert_eq!(rest.piece_end, f64::INFINITY);
        assert_eq!(
            rest.motion,
            Motion::Affine {
                velocity: Vec2::ZERO
            }
        );
    }

    #[test]
    fn debug_impl_mentions_fields() {
        let t = FnTrajectory::new(|_| Vec2::ZERO, 1.5);
        let s = format!("{t:?}");
        assert!(s.contains("speed_bound"));
        assert!(s.contains("1.5"));
    }
}
