//! A trajectory that never moves — the stationary search target.

use rvz_geometry::Vec2;
use rvz_trajectory::monotone::{Cursor, MonotoneTrajectory, Probe};
use rvz_trajectory::Trajectory;

/// A point that stays at `position` forever.
///
/// Used as the target of Section 2's search problem and as the "virtual
/// target" of the equivalent-search reduction.
///
/// # Example
///
/// ```
/// use rvz_sim::Stationary;
/// use rvz_trajectory::Trajectory;
/// use rvz_geometry::Vec2;
///
/// let t = Stationary::new(Vec2::new(1.0, 2.0));
/// assert_eq!(t.position(0.0), t.position(1e9));
/// assert_eq!(t.speed_bound(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stationary {
    position: Vec2,
}

impl Stationary {
    /// Creates a stationary point.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not finite.
    pub fn new(position: Vec2) -> Self {
        assert!(position.is_finite(), "position must be finite");
        Stationary { position }
    }
}

impl Trajectory for Stationary {
    fn position(&self, t: f64) -> Vec2 {
        debug_assert!(t >= 0.0 && !t.is_nan(), "position requires t >= 0, got {t}");
        self.position
    }

    fn speed_bound(&self) -> f64 {
        0.0
    }

    fn duration(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// The trivial cursor of a [`Stationary`] target: one permanent
/// zero-velocity piece, letting the engine treat searches for a fixed
/// target fully analytically whenever the searcher is on a line or wait.
#[derive(Debug, Clone, Copy)]
pub struct StationaryCursor {
    position: Vec2,
}

impl Cursor for StationaryCursor {
    fn probe(&mut self, _t: f64) -> Probe {
        Probe::resting(self.position)
    }

    fn speed_bound(&self) -> f64 {
        0.0
    }

    fn envelope(&mut self, _t0: f64, _t1: f64) -> rvz_geometry::Disk {
        // The tightest possible certificate: a point, for any interval.
        rvz_geometry::Disk::point(self.position)
    }
}

impl MonotoneTrajectory for Stationary {
    type Cursor<'a> = StationaryCursor;

    fn cursor(&self) -> StationaryCursor {
        StationaryCursor {
            position: self.position,
        }
    }
}

/// Lowers to a rest-only program (zero pieces): the cheapest possible
/// compiled partner for search-style queries.
impl rvz_trajectory::Compile for Stationary {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_moves() {
        let s = Stationary::new(Vec2::new(-2.0, 7.0));
        assert_eq!(s.position(0.0), Vec2::new(-2.0, 7.0));
        assert_eq!(s.position(12345.0), Vec2::new(-2.0, 7.0));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan() {
        let _ = Stationary::new(Vec2::new(f64::NAN, 0.0));
    }
}
