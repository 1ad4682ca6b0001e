//! Seeded property checks for `rvz-search`: the dyadic schedule of
//! Algorithm 4 and its closed-form indexing, the search robot's
//! kinematics, and the analytic discovery oracle.
//!
//! Each property draws its cases from its own fixed-seed
//! [`SplitMix64`] stream, so every run checks the same cases. A debug
//! build checks 256 draws per property; a release build checks 10,000
//! (`cargo test --release --test search_properties`, which `ci.sh`
//! runs).

use plane_rendezvous::experiments::SplitMix64;
use plane_rendezvous::geometry::Vec2;
use plane_rendezvous::model::SearchInstance;
use plane_rendezvous::search::{first_discovery, times, RoundSchedule, SubRound, UniversalSearch};
use plane_rendezvous::trajectory::Trajectory;

/// Draws per property: a sample in debug, the full set in release.
fn cases() -> usize {
    if cfg!(debug_assertions) {
        256
    } else {
        10_000
    }
}

/// Runs `check` on `cases()` draws from the stream seeded with `seed`.
fn for_each_draw(seed: u64, mut check: impl FnMut(&mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..cases() {
        check(&mut rng);
    }
}

/// A round in `1..=max_k` and a sub-round index `j < 2k` within it.
fn subround(rng: &mut SplitMix64, max_k: u32) -> SubRound {
    let k = 1 + rng.next_below(max_k as usize) as u32;
    let j = rng.next_below(2 * k as usize) as u32;
    SubRound::new(k, j)
}

/// The dyadic invariant δ²/ρ = 2^{k+1} holds in every sub-round of every
/// supported round.
#[test]
fn granularity_invariant() {
    for k in 1..=times::MAX_ROUND {
        let expected = (f64::from(k) + 1.0).exp2();
        for j in 0..2 * k {
            let sub = SubRound::new(k, j);
            let ratio = sub.inner_radius() * sub.inner_radius() / sub.granularity();
            assert!(
                (ratio - expected).abs() <= 1e-9 * expected,
                "k = {k}, j = {j}: {ratio}"
            );
        }
    }
}

/// A sub-round's circles start at its inner radius, end exactly at its
/// outer radius, and are spaced exactly 2ρ apart.
#[test]
fn circle_radii_cover_annulus() {
    for_each_draw(0x5E_0001, |rng| {
        let sub = subround(rng, 10);
        let count = sub.circle_count();
        assert_eq!(sub.circle_radius(0), sub.inner_radius(), "{sub:?}");
        assert_eq!(sub.circle_radius(count - 1), sub.outer_radius(), "{sub:?}");
        let spacing = sub.circle_radius(1) - sub.circle_radius(0);
        assert!(
            (spacing - 2.0 * sub.granularity()).abs() < 1e-15,
            "{sub:?}: spacing {spacing}"
        );
    });
}

/// `circle_index_at` inverts `circle_start` at any time in the
/// sub-round.
#[test]
fn circle_index_inverts_start() {
    for_each_draw(0x5E_0002, |rng| {
        let sub = subround(rng, 12);
        let w = rng.next_f64() * sub.duration() * (1.0 - 1e-12);
        let i = sub.circle_index_at(w);
        assert!(sub.circle_start(i) <= w, "{sub:?}, w = {w}, i = {i}");
        assert!(w < sub.circle_start(i + 1), "{sub:?}, w = {w}, i = {i}");
    });
}

/// The closed-form segment lookup returns a segment that covers the
/// queried time and evaluates there.
#[test]
fn segment_lookup_is_consistent() {
    for_each_draw(0x5E_0003, |rng| {
        let k = 1 + rng.next_below(14) as u32;
        let round = RoundSchedule::new(k);
        let u = rng.next_f64() * round.duration() * (1.0 - 1e-12);
        let (start, seg) = round.segment_at(u);
        assert!(start <= u, "k = {k}, u = {u}: starts at {start}");
        assert!(
            u <= start + seg.duration() + 1e-9,
            "k = {k}, u = {u}: ends at {}",
            start + seg.duration()
        );
        assert!(seg.position_at(u - start).is_finite(), "k = {k}, u = {u}");
    });
}

/// The search robot never exceeds unit speed, deep into the schedule
/// too (times up to 10⁶, round ≤ 14).
#[test]
fn deep_positions_respect_speed() {
    for_each_draw(0x5E_0004, |rng| {
        let t0 = rng.next_range(0.0, 1e6);
        let dt = rng.next_range(1e-6, 10.0);
        let moved = UniversalSearch
            .position(t0)
            .distance(UniversalSearch.position(t0 + dt));
        assert!(
            moved <= dt * (1.0 + 1e-9) + 1e-9,
            "t0 = {t0}, dt = {dt}: moved {moved}"
        );
    });
}

/// At time t the robot is within the outer radius of the current round:
/// it never jumps outward.
#[test]
fn radial_reach_bounded_by_round() {
    for_each_draw(0x5E_0005, |rng| {
        let t = rng.next_range(0.0, 1e6);
        let k = UniversalSearch::round_at(t);
        let max_radius = times::outer_radius(k, 2 * k - 1);
        let reach = UniversalSearch.position(t).norm();
        assert!(reach <= max_radius + 1e-9, "t = {t}, round {k}: {reach}");
    });
}

/// A larger visibility radius never makes discovery later.
#[test]
fn discovery_monotone_in_visibility() {
    for_each_draw(0x5E_0006, |rng| {
        let p = Vec2::new(rng.next_range(-2.0, 2.0), rng.next_range(0.1, 2.0));
        let r_small = rng.next_range(0.001, 0.01);
        let r_big = (r_small * rng.next_range(1.5, 20.0)).min(p.norm() * 0.9);
        if r_big <= r_small {
            return;
        }
        let small = first_discovery(&SearchInstance::new(p, r_small).unwrap(), 20);
        let big = first_discovery(&SearchInstance::new(p, r_big).unwrap(), 20);
        if let (Some(s), Some(b)) = (small, big) {
            assert!(
                b.time <= s.time + 1e-9,
                "p = {p}, r = {r_small} → {r_big}: {} vs {}",
                b.time,
                s.time
            );
        }
    });
}

/// The discovery the oracle reports is a true contact on the
/// trajectory.
#[test]
fn discovery_is_a_true_contact() {
    let mut found = 0;
    for_each_draw(0x5E_0007, |rng| {
        let p = Vec2::new(rng.next_range(-2.0, 2.0), rng.next_range(-2.0, 2.0));
        if p.norm() <= 1e-2 {
            return;
        }
        let r = rng.next_range(-8.0, -3.0).exp2();
        if let Some(hit) = first_discovery(&SearchInstance::new(p, r).unwrap(), 16) {
            found += 1;
            let dist = UniversalSearch.position(hit.time).distance(p);
            assert!(dist <= r + 1e-9, "p = {p}, r = {r}: {dist} at {}", hit.time);
        }
    });
    assert!(found > cases() / 2, "only {found} discoveries");
}

/// Algorithm 4's round boundaries partition time.
#[test]
fn round_at_partition() {
    for_each_draw(0x5E_0008, |rng| {
        let k = 1 + rng.next_below(8) as u32;
        let start = UniversalSearch::round_start(k);
        let end = UniversalSearch::round_start(k + 1);
        let t = start + rng.next_f64() * (end - start) * (1.0 - 1e-12);
        assert_eq!(UniversalSearch::round_at(t), k, "t = {t}");
    });
}
