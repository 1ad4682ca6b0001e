//! Integration test for E11/E12: the universal algorithm vs the
//! omniscient spiral, and the granularity-schedule ablation.

use plane_rendezvous::prelude::*;
use rvz_oracles::{ArchimedeanSpiral, PaperSchedule, SearchScheduleModel, UniformGranularity};

/// E11: the informed spiral beats the universal algorithm (that's the
/// price of knowing r), but only by roughly the log factor the paper
/// predicts — not asymptotically more.
#[test]
fn universal_overhead_over_spiral_is_logarithmic() {
    // Generic (non-dyadic) distance: on dyadic-aligned distances the
    // universal algorithm can get lucky and even beat the spiral, since
    // its circles pass exactly through the target radius.
    for rexp in [-5, -7, -9] {
        let r = (rexp as f64).exp2();
        let inst = SearchInstance::new(Vec2::from_polar(1.37, 2.0), r).unwrap();

        let universal = first_discovery(&inst, 31).unwrap().time;
        let spiral = ArchimedeanSpiral::for_visibility(r);
        let horizon = universal.max(spiral.search_time_estimate(inst.distance())) * 3.0 + 100.0;
        let spiral_time = first_contact(
            &spiral,
            &Stationary::new(inst.target()),
            r,
            &ContactOptions::with_horizon(horizon),
        )
        .contact_time()
        .expect("spiral finds the target");

        let overhead = universal / spiral_time;
        let difficulty = inst.difficulty();
        // Knowing r can only be emulated up to round quantization: the
        // universal time is never absurdly below the informed one ...
        assert!(
            overhead > 0.1,
            "r=2^{rexp}: universal ({universal}) suspiciously beat the spiral ({spiral_time})"
        );
        // ... and pays at most a constant times log(d²/r) on top.
        assert!(
            overhead < 40.0 * difficulty.log2(),
            "r=2^{rexp}: overhead {overhead} not logarithmic (log difficulty {})",
            difficulty.log2()
        );
    }
}

/// E12: replacing the paper's per-annulus granularity ladder with a
/// uniform per-round granularity is asymptotically worse.
#[test]
fn uniform_granularity_ablation_loses() {
    let paper = PaperSchedule;
    let uniform = UniformGranularity;
    for (d, rexp) in [(1.0, -6), (1.0, -10), (3.0, -8)] {
        let r = (rexp as f64).exp2();
        let p = paper.guaranteed_search(d, r, 31).unwrap();
        let u = uniform.guaranteed_search(d, r, 31).unwrap();
        assert!(
            u.time > p.time,
            "d={d}, r=2^{rexp}: uniform ({}) not worse than paper ({})",
            u.time,
            p.time
        );
    }
    // And the gap grows with difficulty.
    let easy = {
        let p = paper.guaranteed_search(1.0, (-6f64).exp2(), 31).unwrap();
        let u = uniform.guaranteed_search(1.0, (-6f64).exp2(), 31).unwrap();
        u.time / p.time
    };
    let hard = {
        let p = paper.guaranteed_search(1.0, (-12f64).exp2(), 31).unwrap();
        let u = uniform.guaranteed_search(1.0, (-12f64).exp2(), 31).unwrap();
        u.time / p.time
    };
    assert!(hard > 4.0 * easy, "gap did not grow: {easy} -> {hard}");
}

/// The spiral's closed-form estimate matches its simulated performance.
#[test]
fn spiral_estimate_matches_simulation() {
    let r = 0.02;
    let spiral = ArchimedeanSpiral::for_visibility(r);
    for d in [0.5, 1.0, 2.0] {
        let target = Vec2::from_polar(d, 2.1);
        let est = spiral.search_time_estimate(d);
        let t = first_contact(
            &spiral,
            &Stationary::new(target),
            r,
            &ContactOptions::with_horizon(est * 3.0 + 100.0),
        )
        .contact_time()
        .unwrap();
        // The simulated time is within ±(one winding + r slack) of the
        // estimate.
        let slack = spiral.search_time_estimate(d + 2.0 * r) - spiral.search_time_estimate(d)
            + 2.0 * std::f64::consts::TAU * (d + r);
        assert!(
            (t - est).abs() <= slack,
            "d={d}: sim {t} vs estimate {est} (slack {slack})"
        );
    }
}

/// The informed spiral finds targets no later than its arc length out
/// to `d + r` says.
#[test]
fn spiral_finds_targets_with_informed_pitch() {
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
