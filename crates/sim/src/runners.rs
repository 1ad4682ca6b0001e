//! High-level drivers: search and rendezvous simulations from model
//! instances.
//!
//! Both are one stationary-target search at heart: [`simulate_search`]
//! looks for the Section 2 target, and [`simulate_rendezvous`] (through
//! [`simulate_rendezvous_by_ref`]) looks, for `τ = 1`, for the target
//! `d⃗` of Lemma 4's relative robot `T∘·S(t)`.

use crate::batch::simulate_rendezvous_by_ref;
use crate::engine::{first_contact, ContactOptions, SimOutcome};
use crate::stationary::Stationary;
use rvz_model::{RendezvousInstance, SearchInstance};
use rvz_trajectory::MonotoneTrajectory;

/// Simulates the Section 2 search problem: a robot at the origin runs
/// `algorithm`; a stationary target sits at `instance.target()`.
///
/// # Example
///
/// ```
/// use rvz_sim::{simulate_search, ContactOptions};
/// use rvz_search::UniversalSearch;
/// use rvz_model::SearchInstance;
/// use rvz_geometry::Vec2;
///
/// let inst = SearchInstance::new(Vec2::new(0.6, 0.6), 0.05).unwrap();
/// let out = simulate_search(UniversalSearch, &inst, &ContactOptions::default());
/// assert!(out.is_contact());
/// ```
pub fn simulate_search<T: MonotoneTrajectory>(
    algorithm: T,
    instance: &SearchInstance,
    opts: &ContactOptions,
) -> SimOutcome {
    let target = Stationary::new(instance.target());
    first_contact(&algorithm, &target, instance.visibility(), opts)
}

/// Simulates the rendezvous problem: the reference robot runs
/// `algorithm` from the origin; robot `R'` runs the *same* algorithm
/// through its own frame (Lemma 4, generalized with the `v·τ` distance
/// unit) starting at `instance.offset()`.
///
/// Delegates to [`simulate_rendezvous_by_ref`], so both runners answer
/// identically: with `τ = 1` the query runs on the Lemma 4 relative
/// trajectory, otherwise on two cursors.
///
/// # Example
///
/// ```
/// use rvz_sim::{simulate_rendezvous, ContactOptions};
/// use rvz_search::UniversalSearch;
/// use rvz_model::{RendezvousInstance, RobotAttributes};
/// use rvz_geometry::Vec2;
///
/// // Different speeds break symmetry: Algorithm 4 rendezvous succeeds.
/// let attrs = RobotAttributes::reference().with_speed(0.5);
/// let inst = RendezvousInstance::new(Vec2::new(0.0, 0.7), 0.05, attrs).unwrap();
/// let out = simulate_rendezvous(UniversalSearch, &inst, &ContactOptions::default());
/// assert!(out.is_contact());
/// ```
pub fn simulate_rendezvous<T: MonotoneTrajectory>(
    algorithm: T,
    instance: &RendezvousInstance,
    opts: &ContactOptions,
) -> SimOutcome {
    simulate_rendezvous_by_ref(&algorithm, instance, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::Vec2;
    use rvz_model::{Chirality, RobotAttributes};
    use rvz_search::UniversalSearch;

    #[test]
    fn search_finds_visible_target_instantly() {
        let inst = SearchInstance::new(Vec2::new(0.01, 0.0), 1.0).unwrap();
        let out = simulate_search(UniversalSearch, &inst, &ContactOptions::default());
        assert_eq!(out.contact_time(), Some(0.0));
    }

    #[test]
    fn identical_twins_never_meet() {
        let twins = RobotAttributes::reference();
        let inst = RendezvousInstance::new(Vec2::new(0.0, 2.0), 0.1, twins).unwrap();
        let out = simulate_rendezvous(UniversalSearch, &inst, &ContactOptions::with_horizon(500.0));
        match out {
            SimOutcome::Horizon { min_distance, .. } => {
                // Twins keep the exact initial offset forever.
                assert!((min_distance - 2.0).abs() < 1e-9);
            }
            other => panic!("twins met: {other:?}"),
        }
    }

    #[test]
    fn different_speeds_meet_under_algorithm4() {
        let attrs = RobotAttributes::reference().with_speed(0.5);
        let inst = RendezvousInstance::new(Vec2::new(0.3, 0.6), 0.05, attrs).unwrap();
        let out = simulate_rendezvous(UniversalSearch, &inst, &ContactOptions::default());
        assert!(out.is_contact(), "{out}");
    }

    #[test]
    fn mirror_twins_worst_case_placement_never_meets() {
        // v = τ = 1, χ = −1: place R' along the invariant direction.
        let phi = 1.2;
        let attrs = RobotAttributes::reference()
            .with_chirality(Chirality::Mirrored)
            .with_orientation(phi);
        let dir = Vec2::from_polar(1.0, phi / 2.0);
        let inst = RendezvousInstance::new(dir * 2.0, 0.1, attrs).unwrap();
        let out = simulate_rendezvous(UniversalSearch, &inst, &ContactOptions::with_horizon(300.0));
        match out {
            SimOutcome::Horizon { min_distance, .. } => {
                // The relative motion is orthogonal to the offset: distance
                // never drops below d.
                assert!(min_distance >= 2.0 - 1e-6, "min {min_distance}");
            }
            other => panic!("mirror twins met: {other:?}"),
        }
    }
}
