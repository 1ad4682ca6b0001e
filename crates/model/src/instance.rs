//! Concrete problem instances for search and rendezvous.
//!
//! An *instance* fixes the quantities the robots do **not** know: the
//! initial offset `d⃗`, the visibility radius `r`, and (for rendezvous)
//! the other robot's attributes. The simulator consumes instances; the
//! bound calculators in `rvz-core` consume the same instances so that
//! measured and predicted values always refer to identical parameters.

use crate::attributes::RobotAttributes;
use rvz_geometry::Vec2;
use std::fmt;

/// Validation failure for an instance.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// Visibility radius was zero, negative or non-finite.
    BadVisibility(f64),
    /// The offset/target vector was non-finite.
    BadOffset(Vec2),
    /// The robots (or robot and target) start at the same point, which the
    /// model excludes ("placed at different locations").
    CoincidentStart,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::BadVisibility(r) => {
                write!(f, "visibility radius must be positive and finite, got {r}")
            }
            InstanceError::BadOffset(d) => write!(f, "offset must be finite, got {d}"),
            InstanceError::CoincidentStart => {
                write!(f, "initial positions must differ (d > 0)")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A search problem: one robot at the origin, a stationary target at
/// `target`, visibility radius `visibility` (Section 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchInstance {
    target: Vec2,
    visibility: f64,
}

impl SearchInstance {
    /// Creates a validated search instance.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] when `visibility ≤ 0`, any value is
    /// non-finite, or the target coincides with the origin.
    pub fn new(target: Vec2, visibility: f64) -> Result<Self, InstanceError> {
        if !(visibility > 0.0 && visibility.is_finite()) {
            return Err(InstanceError::BadVisibility(visibility));
        }
        if !target.is_finite() {
            return Err(InstanceError::BadOffset(target));
        }
        if target == Vec2::ZERO {
            return Err(InstanceError::CoincidentStart);
        }
        Ok(SearchInstance { target, visibility })
    }

    /// The target position (the paper's `d⃗`).
    pub fn target(&self) -> Vec2 {
        self.target
    }

    /// The initial distance `d = |d⃗|`.
    pub fn distance(&self) -> f64 {
        self.target.norm()
    }

    /// The visibility radius `r`.
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// The difficulty ratio `d²/r` that governs all of the paper's bounds.
    pub fn difficulty(&self) -> f64 {
        let d = self.distance();
        d * d / self.visibility
    }
}

/// A rendezvous problem: the reference robot `R` at the origin, robot `R'`
/// with `attributes` at `offset`, both with visibility `visibility`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RendezvousInstance {
    offset: Vec2,
    visibility: f64,
    attributes: RobotAttributes,
}

impl RendezvousInstance {
    /// Creates a validated rendezvous instance.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] when `visibility ≤ 0`, any value is
    /// non-finite, or the robots start at the same point.
    pub fn new(
        offset: Vec2,
        visibility: f64,
        attributes: RobotAttributes,
    ) -> Result<Self, InstanceError> {
        if !(visibility > 0.0 && visibility.is_finite()) {
            return Err(InstanceError::BadVisibility(visibility));
        }
        if !offset.is_finite() {
            return Err(InstanceError::BadOffset(offset));
        }
        if offset == Vec2::ZERO {
            return Err(InstanceError::CoincidentStart);
        }
        Ok(RendezvousInstance {
            offset,
            visibility,
            attributes,
        })
    }

    /// The initial offset `d⃗` from `R` to `R'`.
    pub fn offset(&self) -> Vec2 {
        self.offset
    }

    /// The initial distance `d = |d⃗|`.
    pub fn distance(&self) -> f64 {
        self.offset.norm()
    }

    /// The visibility radius `r`.
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// The attributes of robot `R'` relative to `R`.
    pub fn attributes(&self) -> &RobotAttributes {
        &self.attributes
    }

    /// The difficulty ratio `d²/r`.
    pub fn difficulty(&self) -> f64 {
        let d = self.distance();
        d * d / self.visibility
    }

    /// `true` when the robots already see each other at time zero.
    pub fn solved_at_start(&self) -> bool {
        self.distance() <= self.visibility
    }

    /// The search instance a stationary `R'` would induce: `R` searching
    /// for a target at `offset` — the reduction used throughout Section 4.
    pub fn as_stationary_search(&self) -> SearchInstance {
        SearchInstance {
            target: self.offset,
            visibility: self.visibility,
        }
    }
}

impl fmt::Display for RendezvousInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d={:.4}, r={:.4}, {}",
            self.distance(),
            self.visibility,
            self.attributes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Chirality;

    #[test]
    fn valid_search_instance() {
        let s = SearchInstance::new(Vec2::new(3.0, 4.0), 0.5).unwrap();
        assert_eq!(s.distance(), 5.0);
        assert_eq!(s.visibility(), 0.5);
        assert_eq!(s.difficulty(), 50.0);
    }

    #[test]
    fn search_validation_errors() {
        assert_eq!(
            SearchInstance::new(Vec2::UNIT_X, 0.0),
            Err(InstanceError::BadVisibility(0.0))
        );
        assert!(matches!(
            SearchInstance::new(Vec2::UNIT_X, f64::NAN),
            Err(InstanceError::BadVisibility(r)) if r.is_nan()
        ));
        assert_eq!(
            SearchInstance::new(Vec2::new(f64::INFINITY, 0.0), 1.0),
            Err(InstanceError::BadOffset(Vec2::new(f64::INFINITY, 0.0)))
        );
        assert_eq!(
            SearchInstance::new(Vec2::ZERO, 1.0),
            Err(InstanceError::CoincidentStart)
        );
    }

    #[test]
    fn rendezvous_instance_accessors() {
        let attrs = RobotAttributes::new(0.5, 1.0, 0.0, Chirality::Consistent);
        let inst = RendezvousInstance::new(Vec2::new(0.0, 2.0), 0.25, attrs).unwrap();
        assert_eq!(inst.distance(), 2.0);
        assert_eq!(inst.difficulty(), 16.0);
        assert_eq!(inst.attributes().speed(), 0.5);
        assert!(!inst.solved_at_start());
    }

    #[test]
    fn rendezvous_validation_errors() {
        let attrs = RobotAttributes::reference();
        assert!(matches!(
            RendezvousInstance::new(Vec2::UNIT_X, -1.0, attrs),
            Err(InstanceError::BadVisibility(_))
        ));
        assert!(matches!(
            RendezvousInstance::new(Vec2::ZERO, 1.0, attrs),
            Err(InstanceError::CoincidentStart)
        ));
    }

    #[test]
    fn stationary_search_reduction_shares_parameters() {
        let attrs = RobotAttributes::reference().with_time_unit(0.5);
        let inst = RendezvousInstance::new(Vec2::new(1.0, 1.0), 0.1, attrs).unwrap();
        let search = inst.as_stationary_search();
        assert_eq!(search.target(), inst.offset());
        assert_eq!(search.visibility(), inst.visibility());
        assert_eq!(search.difficulty(), inst.difficulty());
    }

    #[test]
    fn error_display() {
        assert!(InstanceError::BadVisibility(0.0)
            .to_string()
            .contains("positive"));
        assert!(InstanceError::CoincidentStart
            .to_string()
            .contains("differ"));
    }
}
