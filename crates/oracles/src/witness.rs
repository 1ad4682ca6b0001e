//! The stationary-partner witness of Section 4: an upper bound on
//! Algorithm 7's rendezvous time under asymmetric clocks.
//!
//! Section 4's proof mechanism is: the reference robot `R` sees the
//! partner's *start point* during one of its `Search(k)` sweeps while the
//! partner `R'` (clock `τ < 1`) is sitting in an inactive phase. This
//! module finds the first such moment by running the conservative loop
//! of [`crate::generic`] over `R`'s own
//! [`Trajectory::position`](rvz_trajectory::Trajectory::position) against
//! the fixed start point, inside each of the partner's `τ`-scaled
//! inactive intervals. It reads no contact window of the search
//! schedule, so it shares no code with the production engine's
//! wait-window certificate.
//!
//! Compared to the engine this witness
//! * declares a contact only at distance `≤ r` (the loop aims at a
//!   radius `1e-9·r` smaller), so its time is never earlier than a true
//!   contact with the stationary partner,
//! * but deliberately ignores contacts where **both** robots are moving —
//!   it upper-bounds the true rendezvous time, exactly like the paper's
//!   argument does.

use crate::generic::{advance, GenericOptions, GenericOutcome};
use rvz_core::phases::{PhaseSchedule, MAX_PHASE_ROUND};
use rvz_core::WaitAndSearch;
use rvz_geometry::Vec2;
use rvz_trajectory::FnTrajectory;

/// Result of the stationary-contact search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationaryContact {
    /// Global time of the first stationary contact.
    pub time: f64,
    /// `R`'s Algorithm 7 round during which it happens.
    pub round: u32,
    /// The partner's inactive round providing the stillness.
    pub partner_round: u32,
}

/// Relative depth below `r` the loop aims at: it declares at distance
/// `r·(1 − WITNESS_SLACK) + r·WITNESS_SLACK = r`, and every step before
/// that is at least `r·WITNESS_SLACK` long.
const WITNESS_SLACK: f64 = 1e-9;

/// Step cap per inactive interval; exceeding it is a panic, never a
/// silent `None`.
const MAX_STEPS: u64 = 100_000_000;

/// First time the reference robot, running Algorithm 7, comes within `r`
/// of the point `offset` while the partner (same algorithm, clock
/// `τ ∈ (0,1)`, Section 4's `v = 1, φ = 0, χ = +1` setting) is inactive
/// at that point.
///
/// Returns `None` when no such contact exists within `max_round` rounds
/// of `R`'s schedule.
///
/// # Panics
///
/// Panics unless `τ ∈ (0,1)`, `r > 0`, `offset` is finite and non-zero,
/// and `max_round ≤ MAX_PHASE_ROUND`; or when one inactive interval
/// takes more than 10⁸ loop steps.
///
/// # Example
///
/// ```
/// use rvz_oracles::stationary_contact_time;
/// use rvz_geometry::Vec2;
///
/// let c = stationary_contact_time(0.6, Vec2::new(0.3, 0.8), 0.25, 12)
///     .expect("clock asymmetry guarantees a contact");
/// assert!(c.time > 0.0);
/// ```
pub fn stationary_contact_time(
    tau: f64,
    offset: Vec2,
    r: f64,
    max_round: u32,
) -> Option<StationaryContact> {
    assert!(
        tau > 0.0 && tau < 1.0,
        "oracle requires τ ∈ (0,1), got {tau}"
    );
    assert!(r > 0.0 && r.is_finite(), "visibility must be positive");
    assert!(
        offset.is_finite() && offset != Vec2::ZERO,
        "offset must be finite and non-zero"
    );
    assert!(
        (1..=MAX_PHASE_ROUND).contains(&max_round),
        "max_round must be in 1..={MAX_PHASE_ROUND}"
    );

    // If the partner is visible from the start, contact is at t = 0
    // (both robots begin inactive; round 1 starts with I(1) = 0 and a
    // wait of length 2S(1) > 0 for every τ > 0).
    if offset.norm() <= r {
        return Some(StationaryContact {
            time: 0.0,
            round: 1,
            partner_round: 1,
        });
    }

    let end = PhaseSchedule::round_end(max_round);
    let partner = FnTrajectory::new(move |_| offset, 0.0);
    let slack = r * WITNESS_SLACK;
    for m in 1..=MAX_PHASE_ROUND {
        let (start, stop) = PhaseSchedule::inactive_interval(m);
        let start = start * tau;
        if start >= end {
            break;
        }
        let opts = GenericOptions {
            tolerance: slack,
            horizon: (stop * tau).min(end),
            max_steps: MAX_STEPS,
        };
        match advance(&WaitAndSearch, &partner, r - slack, &opts, start) {
            GenericOutcome::Contact { time, .. } => {
                return Some(StationaryContact {
                    time,
                    round: PhaseSchedule::round_at(time),
                    partner_round: m,
                })
            }
            GenericOutcome::Horizon { .. } => {}
            GenericOutcome::StepBudget { time, .. } => panic!(
                "stationary witness: {MAX_STEPS} steps in the partner's inactive round {m} \
                 (reached t = {time})"
            ),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_core::lemma13_round_bound;
    use rvz_model::RobotAttributes;
    use rvz_trajectory::Trajectory;

    /// The reported time really is a contact with a stationary partner.
    #[test]
    fn reported_contact_is_genuine() {
        for (tau, offset, r) in [
            (0.6, Vec2::new(0.3, 0.8), 0.25),
            (0.51, Vec2::new(-0.5, 0.6), 0.1),
            (0.9, Vec2::new(0.2, 0.85), 0.25),
        ] {
            let c = stationary_contact_time(tau, offset, r, 14).expect("contact");
            // R's position at that time is within r of the offset...
            let reference = WaitAndSearch;
            let dist = reference.position(c.time).distance(offset);
            assert!(dist <= r, "τ={tau}: distance {dist} > {r}");
            // ...and the partner is exactly at its start point.
            let attrs = RobotAttributes::reference().with_time_unit(tau);
            let partner = attrs.frame_warp(WaitAndSearch, offset);
            assert!(
                partner.position(c.time).distance(offset) < 1e-12,
                "τ={tau}: partner moved"
            );
        }
    }

    /// Works in parameter cells where step simulation is prohibitive.
    #[test]
    fn reaches_deep_tau_cells() {
        // τ = 0.25 ⇒ a = 1 ⇒ k* = 16; the simulator would need ~1e8 time.
        let c = stationary_contact_time(0.25, Vec2::new(0.3, 0.8), 0.25, 20)
            .expect("deep cell still solvable");
        let k_star = lemma13_round_bound(0.25, 1);
        assert!(c.round <= k_star, "round {} vs k* {k_star}", c.round);
    }

    #[test]
    fn visible_at_start_is_time_zero() {
        let c = stationary_contact_time(0.5, Vec2::new(0.1, 0.0), 0.25, 4).unwrap();
        assert_eq!(c.time, 0.0);
    }

    #[test]
    fn none_when_round_budget_too_small() {
        // τ very close to 1 needs many rounds for enough overlap.
        let c = stationary_contact_time(0.97, Vec2::new(0.3, 0.8), 0.25, 2);
        assert!(c.is_none());
    }

    #[test]
    #[should_panic(expected = "requires τ ∈ (0,1)")]
    fn tau_one_rejected() {
        let _ = stationary_contact_time(1.0, Vec2::UNIT_Y, 0.1, 4);
    }
}
