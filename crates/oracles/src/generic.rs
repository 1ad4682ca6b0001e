//! The seed conservative-advancement loop over random-access
//! [`Trajectory::position`] probes.
//!
//! It reads nothing of a trajectory but its positions and its speed
//! bound, so it shares no code with the production engine's cursors,
//! certificate ladder, pruning or Lemma 4 shortcut: the reference the
//! engine is equivalence-tested against.

use rvz_trajectory::Trajectory;

/// Tuning for [`first_contact_generic`]: the production engine's
/// declaration tolerance, horizon and step cap, with no wall-clock
/// budget and no pruning switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenericOptions {
    /// Contact is declared when the distance falls to `radius + tolerance`.
    pub tolerance: f64,
    /// Simulated-time horizon; beyond it the loop reports
    /// [`GenericOutcome::Horizon`].
    pub horizon: f64,
    /// Hard cap on advancement steps.
    pub max_steps: u64,
}

impl GenericOptions {
    fn validate(&self) {
        assert!(
            self.tolerance > 0.0 && self.tolerance.is_finite(),
            "tolerance must be positive and finite, got {}",
            self.tolerance
        );
        assert!(
            self.horizon > 0.0 && self.horizon.is_finite(),
            "horizon must be positive and finite, got {}",
            self.horizon
        );
        assert!(self.max_steps > 0, "max_steps must be positive");
    }
}

/// The result of [`first_contact_generic`], shaped like the engine's
/// outcome so the two can be compared field by field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenericOutcome {
    /// The trajectories came within `radius + tolerance` of each other.
    Contact {
        /// Time of the declared contact.
        time: f64,
        /// The actual distance at that time.
        distance: f64,
        /// Advancement steps used.
        steps: u64,
    },
    /// No contact up to the horizon.
    Horizon {
        /// The smallest distance observed at any step.
        min_distance: f64,
        /// When that minimum was observed.
        min_distance_time: f64,
        /// Advancement steps used.
        steps: u64,
    },
    /// The step cap ran out before the horizon.
    StepBudget {
        /// Simulated time reached.
        time: f64,
        /// The smallest distance observed at any step.
        min_distance: f64,
        /// Advancement steps used (the configured cap).
        steps: u64,
    },
}

impl GenericOutcome {
    /// The contact time, if a contact occurred.
    pub fn contact_time(&self) -> Option<f64> {
        match self {
            GenericOutcome::Contact { time, .. } => Some(*time),
            _ => None,
        }
    }
}

/// The original conservative-advancement engine over random-access
/// [`Trajectory::position`] queries.
///
/// Soundness: with `s = a.speed_bound() + b.speed_bound()`, the distance
/// can decrease at rate at most `s`, so after observing gap `D − radius`
/// the loop may skip `(D − radius)/s` time units without a contact
/// being possible in between. The step also never falls below ~4 ulps of
/// the current time so the loop always makes progress; the extra skip
/// this introduces is below any physically meaningful scale.
///
/// # Panics
///
/// Panics on invalid options, a non-positive `radius`, or a trajectory
/// producing a non-finite position.
///
/// # Example
///
/// ```
/// use rvz_geometry::Vec2;
/// use rvz_oracles::{first_contact_generic, GenericOptions};
/// use rvz_trajectory::FnTrajectory;
///
/// let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
/// let b = FnTrajectory::new(|_| Vec2::new(10.0, 0.0), 0.0);
/// let opts = GenericOptions { tolerance: 1e-9, horizon: 20.0, max_steps: 1000 };
/// let t = first_contact_generic(&a, &b, 1.0, &opts).contact_time().unwrap();
/// assert!((t - 9.0).abs() < 1e-6);
/// ```
pub fn first_contact_generic<A, B>(
    a: &A,
    b: &B,
    radius: f64,
    opts: &GenericOptions,
) -> GenericOutcome
where
    A: Trajectory + ?Sized,
    B: Trajectory + ?Sized,
{
    opts.validate();
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive and finite, got {radius}"
    );
    advance(a, b, radius, opts, 0.0)
}

/// The conservative-advancement loop proper, from time `start` to
/// `opts.horizon`.
pub(crate) fn advance<A, B>(
    a: &A,
    b: &B,
    radius: f64,
    opts: &GenericOptions,
    start: f64,
) -> GenericOutcome
where
    A: Trajectory + ?Sized,
    B: Trajectory + ?Sized,
{
    let rel_speed = a.speed_bound() + b.speed_bound();
    assert!(
        rel_speed.is_finite(),
        "speed bounds must be finite, got {rel_speed}"
    );

    let mut t = start;
    let mut min_distance = f64::INFINITY;
    let mut min_distance_time = start;
    let mut steps = 0_u64;

    loop {
        let d = a.position(t).distance(b.position(t));
        assert!(
            d.is_finite(),
            "trajectory produced a non-finite position at t={t}"
        );
        if d < min_distance {
            min_distance = d;
            min_distance_time = t;
        }
        if d <= radius + opts.tolerance {
            return GenericOutcome::Contact {
                time: t,
                distance: d,
                steps,
            };
        }
        if t >= opts.horizon {
            return GenericOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            };
        }
        steps += 1;
        if steps > opts.max_steps {
            return GenericOutcome::StepBudget {
                time: t,
                min_distance,
                steps: opts.max_steps,
            };
        }
        let gap = d - radius;
        let step = if rel_speed > 0.0 {
            gap / rel_speed
        } else {
            // Both stationary: the distance can never change.
            return GenericOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            };
        };
        // Progress floor: a few ulps of the current time.
        let floor = 4.0 * f64::EPSILON * (1.0 + t.abs());
        t = (t + step.max(floor)).min(opts.horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::Vec2;
    use rvz_trajectory::FnTrajectory;

    fn opts(horizon: f64) -> GenericOptions {
        GenericOptions {
            tolerance: 1e-9,
            horizon,
            max_steps: 50_000_000,
        }
    }

    #[test]
    fn both_stationary_is_horizon_in_one_step() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let b = FnTrajectory::new(|_| Vec2::new(5.0, 0.0), 0.0);
        let out = first_contact_generic(&a, &b, 1.0, &opts(10.0));
        assert_eq!(
            out,
            GenericOutcome::Horizon {
                min_distance: 5.0,
                min_distance_time: 0.0,
                steps: 1
            }
        );
    }

    #[test]
    fn step_cap_is_reported() {
        let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
        let b = FnTrajectory::new(|t| Vec2::new(t, 5.0), 1.0);
        let out = first_contact_generic(
            &a,
            &b,
            1.0,
            &GenericOptions {
                max_steps: 3,
                ..opts(1e9)
            },
        );
        assert!(
            matches!(out, GenericOutcome::StepBudget { steps: 3, .. }),
            "{out:?}"
        );
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let _ = first_contact_generic(&a, &a, 0.0, &opts(1.0));
    }
}
