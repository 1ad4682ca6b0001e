//! An exact (simulation-free) rendezvous oracle for asymmetric clocks.
//!
//! Section 4's proof mechanism is: the reference robot `R` sees the
//! partner's *start point* during one of its `Search(k)` sweeps while the
//! partner `R'` (clock `τ < 1`) is sitting in an inactive phase. This
//! module computes the first such moment **exactly**, by intersecting
//! the closed-form contact windows of each `Search(k)` block
//! ([`rvz_search::round_contact_windows`]) with the `τ`-scaled inactive
//! intervals of the partner's schedule.
//!
//! Compared to the conservative-advancement simulator this oracle
//! * is exact (no tolerance band) for the stationary-contact mechanism,
//! * costs time proportional to the number of *contact windows*, so it
//!   reaches parameter cells (`k* ≥ 16`) that step simulation cannot,
//! * but deliberately ignores contacts where **both** robots are moving —
//!   it upper-bounds the true rendezvous time, exactly like the paper's
//!   argument does.

use crate::phases::{PhaseSchedule, MAX_PHASE_ROUND};
use rvz_geometry::Vec2;
use rvz_search::{round_contact_windows, times};

/// Result of the analytic stationary-contact search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationaryContact {
    /// Global time of the first stationary contact.
    pub time: f64,
    /// `R`'s Algorithm 7 round during which it happens.
    pub round: u32,
    /// The `Search(k)` block index within the active phase.
    pub block: u32,
    /// The partner's inactive round providing the stillness.
    pub partner_round: u32,
}

/// Maximum contact windows examined per `Search(k)` block. When a block
/// has more (targets in very fine annuli at large `k`), later windows of
/// that block are skipped and the oracle may return a slightly later —
/// still valid — contact.
const WINDOW_LIMIT: usize = 20_000;

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
/// and `max_round ≤ MAX_PHASE_ROUND`.
///
/// # Example
///
/// ```
/// use rvz_core::analytic::stationary_contact_time;
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
            block: 0,
            partner_round: 1,
        });
    }

    for n in 1..=max_round {
        // Blocks in execution order: Search(1..n) then Search(n..1).
        for (block_idx, (k, block_start)) in PhaseSchedule::search_blocks(n).enumerate() {
            if let Some(contact) = scan_block(tau, offset, r, k, block_start) {
                return Some(StationaryContact {
                    time: contact.0,
                    round: n,
                    block: block_idx as u32,
                    partner_round: contact.1,
                });
            }
        }
    }
    None
}

/// Scans one `Search(k)` block starting at `block_start` for the first
/// contact window intersecting a partner-inactive interval.
fn scan_block(tau: f64, offset: Vec2, r: f64, k: u32, block_start: f64) -> Option<(f64, u32)> {
    let block_end = block_start + times::round_duration(k);

    // Collect partner-inactive intervals overlapping the block.
    let mut inactives: Vec<(f64, f64, u32)> = Vec::new();
    let local = block_start / tau;
    if local >= PhaseSchedule::inactive_start(MAX_PHASE_ROUND + 1) {
        return None; // beyond the partner's supported schedule horizon
    }
    let mut m = PhaseSchedule::round_at(local);
    while m <= MAX_PHASE_ROUND {
        let (s, e) = PhaseSchedule::inactive_interval(m);
        let (s, e) = (s * tau, e * tau);
        if s >= block_end {
            break;
        }
        if e > block_start {
            inactives.push((s.max(block_start), e.min(block_end), m));
        }
        m += 1;
    }
    if inactives.is_empty() {
        return None;
    }

    let windows = round_contact_windows(k, offset, r, WINDOW_LIMIT);
    for w in &windows {
        let ws = block_start + w.start;
        let we = block_start + w.end;
        for &(is, ie, m) in &inactives {
            let lo = ws.max(is);
            let hi = we.min(ie);
            if lo < hi {
                return Some((lo, m));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm7::WaitAndSearch;
    use crate::overlap::lemma13_round_bound;
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
            assert!(dist <= r + 1e-9, "τ={tau}: distance {dist} > {r}");
            // ...and the partner is exactly at its start point.
            let attrs = RobotAttributes::reference().with_time_unit(tau);
            let partner = attrs.frame_warp(WaitAndSearch, offset);
            assert!(
                partner.position(c.time).distance(offset) < 1e-12,
                "τ={tau}: partner moved"
            );
        }
    }

    /// Never earlier than the true first contact from the simulator, and
    /// never later than Lemma 13's completion time.
    #[test]
    fn bracketed_by_simulation_and_lemma13() {
        use rvz_model::RendezvousInstance;
        use rvz_sim::{simulate_rendezvous, ContactOptions};
        for tau in [0.6, 0.8] {
            let offset = Vec2::new(0.3, 0.8);
            let r = 0.25;
            let c = stationary_contact_time(tau, offset, r, 14).expect("contact");
            let attrs = RobotAttributes::reference().with_time_unit(tau);
            let inst = RendezvousInstance::new(offset, r, attrs).unwrap();
            let sim = simulate_rendezvous(
                WaitAndSearch,
                &inst,
                &ContactOptions::with_horizon(c.time + 1.0).tolerance(r * 1e-9),
            )
            .contact_time()
            .expect("simulation finds a contact no later than the oracle");
            assert!(
                sim <= c.time + 1e-6,
                "τ={tau}: sim {sim} later than oracle {}",
                c.time
            );

            let n = rvz_search::coverage::guaranteed_discovery_round(offset.norm(), r).unwrap();
            let k_star = lemma13_round_bound(tau, n);
            assert!(
                c.round <= k_star,
                "τ={tau}: oracle round {} beyond k* {k_star}",
                c.round
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
