//! Seeded property checks for `rvz-model`: the Theorem 4 predicate's
//! case analysis and the attribute frame map.
//!
//! The predicate is checked against the theorem's formula (feasible ⟺
//! τ ≠ 1 ∨ v ≠ 1 ∨ (χ = +1 ∧ φ ≠ 0)) and its reported symmetry breaker
//! against the attributes; the frame map against the speed and duration
//! it must give a warped trajectory; instances against their
//! stationary-search reduction and their validation rules.
//!
//! Each property draws its cases from its own fixed-seed
//! [`SplitMix64`] stream, so every run checks the same cases. Draws
//! that must hit a boundary value exactly (v = 1, τ = 1, φ = 0, a
//! target at the origin, r = 0) take it half the time, so the
//! predicate's infeasible and orientation-offset branches are reached.
//! A debug build checks 256 draws per property; a release build checks
//! 10,000 (`cargo test --release --test model_properties`, which
//! `ci.sh` runs).

use plane_rendezvous::experiments::SplitMix64;
use plane_rendezvous::geometry::{Vec2, TAU};
use plane_rendezvous::model::{
    feasibility, Chirality, Feasibility, RendezvousInstance, RobotAttributes, SearchInstance,
    SymmetryBreaker,
};
use plane_rendezvous::trajectory::{PathBuilder, Trajectory};

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

/// `exact` half the time, otherwise a uniform draw in `[lo, hi)`.
fn boundary_or_range(rng: &mut SplitMix64, exact: f64, lo: f64, hi: f64) -> f64 {
    if rng.next_below(2) == 0 {
        exact
    } else {
        rng.next_range(lo, hi)
    }
}

fn chirality(rng: &mut SplitMix64) -> Chirality {
    if rng.next_below(2) == 0 {
        Chirality::Consistent
    } else {
        Chirality::Mirrored
    }
}

fn attributes(rng: &mut SplitMix64) -> RobotAttributes {
    let v = rng.next_range(0.1, 3.0);
    let tau = rng.next_range(0.1, 3.0);
    let phi = rng.next_range(0.0, TAU);
    RobotAttributes::new(v, tau, phi, chirality(rng))
}

/// Attributes that sit on each of Theorem 4's boundaries (v = 1, τ = 1,
/// φ = 0) half the time.
fn boundary_attributes(rng: &mut SplitMix64) -> RobotAttributes {
    let v = boundary_or_range(rng, 1.0, 0.1, 3.0);
    let tau = boundary_or_range(rng, 1.0, 0.1, 3.0);
    let phi = boundary_or_range(rng, 0.0, 0.0, TAU);
    RobotAttributes::new(v, tau, phi, chirality(rng))
}

/// Theorem 4 as a formula: feasible ⟺ τ ≠ 1 ∨ v ≠ 1 ∨ (χ = +1 ∧ φ ≠ 0).
#[test]
fn predicate_equals_formula() {
    let mut infeasible = 0;
    for_each_draw(0x7E04_0004, |rng| {
        let attrs = boundary_attributes(rng);
        let expected = attrs.time_unit() != 1.0
            || attrs.speed() != 1.0
            || (attrs.chirality() == Chirality::Consistent && attrs.orientation() != 0.0);
        assert_eq!(feasibility(&attrs).is_feasible(), expected, "{attrs}");
        infeasible += usize::from(!expected);
    });
    // Both sides of the formula are exercised, not just the generic one.
    assert!(infeasible * 16 >= cases(), "{infeasible} infeasible draws");
}

/// The reported symmetry breaker is truthful: the named attribute
/// really differs.
#[test]
fn breaker_is_truthful() {
    for_each_draw(0xB2EA_CE25, |rng| {
        let attrs = boundary_attributes(rng);
        match feasibility(&attrs) {
            Feasibility::Feasible(SymmetryBreaker::AsymmetricClocks) => {
                assert_ne!(attrs.time_unit(), 1.0, "{attrs}")
            }
            Feasibility::Feasible(SymmetryBreaker::DifferentSpeeds) => {
                assert_ne!(attrs.speed(), 1.0, "{attrs}")
            }
            Feasibility::Feasible(SymmetryBreaker::OrientationOffset) => {
                assert_ne!(attrs.orientation(), 0.0, "{attrs}");
                assert_eq!(attrs.chirality(), Chirality::Consistent, "{attrs}");
            }
            Feasibility::Infeasible(_) => {
                assert_eq!(attrs.speed(), 1.0, "{attrs}");
                assert_eq!(attrs.time_unit(), 1.0, "{attrs}");
            }
        }
    });
}

/// µ ∈ [|1 − v|, 1 + v].
#[test]
fn mu_bounds() {
    for_each_draw(0x00B0_0D55, |rng| {
        let v = rng.next_range(0.05, 3.0);
        let phi = rng.next_range(0.0, TAU);
        let mu = RobotAttributes::reference()
            .with_speed(v)
            .with_orientation(phi)
            .mu();
        assert!(mu >= (1.0 - v).abs() - 1e-12, "v {v}, φ {phi}: µ {mu}");
        assert!(mu <= 1.0 + v + 1e-12, "v {v}, φ {phi}: µ {mu}");
    });
}

/// The frame map's speed bound: a warped unit-speed trajectory moves at
/// speed exactly v (time dilation and distance unit cancel).
#[test]
fn frame_speed_is_v() {
    for_each_draw(0xF5A3_E5ED, |rng| {
        let attrs = attributes(rng);
        let v = attrs.speed();
        let leg = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(1.0, 0.0))
            .build();
        let warped = attrs.frame_warp(leg, Vec2::ZERO);
        assert!(
            (warped.speed_bound() - v).abs() <= 1e-9 * (1.0 + v),
            "{attrs}: bound {}",
            warped.speed_bound()
        );
        // Sampled speed matches the bound on the moving part.
        let total = warped.duration().unwrap();
        let h = total * 1e-6;
        let t = rng.next_range(0.0, 0.9) * total;
        let speed = warped.position(t + h).distance(warped.position(t)) / h;
        assert!(speed <= v * (1.0 + 1e-6), "{attrs}: speed {speed} at t {t}");
    });
}

/// The warped trajectory ends after τ·(local duration) global time.
#[test]
fn frame_duration_scales_by_tau() {
    for_each_draw(0xD0BA_7105, |rng| {
        let tau = rng.next_range(0.1, 3.0);
        let attrs = RobotAttributes::reference().with_time_unit(tau);
        let leg = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(2.0, 0.0))
            .build();
        let warped = attrs.frame_warp(leg, Vec2::ZERO);
        let duration = warped.duration().unwrap();
        assert!((duration - 2.0 * tau).abs() < 1e-9, "τ {tau}: {duration}");
    });
}

/// Instance difficulty d²/r is shared between a rendezvous instance and
/// its stationary-search reduction, whose target is the offset.
#[test]
fn reduction_preserves_difficulty() {
    for_each_draw(0x2ED0_C710, |rng| {
        let d = Vec2::new(rng.next_range(-5.0, 5.0), rng.next_range(-5.0, 5.0));
        let r = rng.next_range(0.001, 1.0);
        let inst = RendezvousInstance::new(d, r, attributes(rng)).unwrap();
        let search = inst.as_stationary_search();
        assert_eq!(search.difficulty(), inst.difficulty(), "d {d:?}, r {r}");
        assert_eq!(search.target(), inst.offset());
    });
}

/// Orientation is always normalized into [0, 2π).
#[test]
fn orientation_normalized() {
    for_each_draw(0x0A1E_4700, |rng| {
        let phi = rng.next_range(-100.0, 100.0);
        let a = RobotAttributes::reference().with_orientation(phi);
        assert!((0.0..TAU).contains(&a.orientation()), "{phi} -> {a}");
    });
}

/// Validation rejects exactly the bad inputs: a non-positive radius or
/// a target at the origin.
#[test]
fn instance_validation() {
    for_each_draw(0x5A11_DA7E, |rng| {
        let r = boundary_or_range(rng, 0.0, -1.0, 1.0);
        let target = Vec2::new(boundary_or_range(rng, 0.0, -1.0, 1.0), 0.0);
        let result = SearchInstance::new(target, r);
        let should_be_ok = r > 0.0 && target != Vec2::ZERO;
        assert_eq!(result.is_ok(), should_be_ok, "target {target:?}, r {r}");
    });
}
