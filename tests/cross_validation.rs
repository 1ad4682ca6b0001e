//! Cross-validation of the three independent first-contact computations:
//!
//! 1. the conservative-advancement engine (`rvz-sim`),
//! 2. the closed-form analytic discovery oracle (`rvz-search`),
//! 3. dense brute-force sampling (`rvz-oracles`).
//!
//! Agreement of (1) and (2) on the search problem is the strongest
//! correctness evidence in the workspace: they share no code beyond the
//! schedule formulas. Two exact reductions carry (2) over to the
//! rendezvous queries the production call `simulate_rendezvous_by_ref`
//! answers: at `τ = 1, χ = +1` Algorithm 4's relative motion is search
//! under a similarity, and at `τ ≠ 1` Section 4's stationary-partner
//! contact bounds Algorithm 7's first contact from above.
//!
//! The random properties draw their cases from a fixed-seed
//! [`SplitMix64`] stream, so every run checks the same cases. A debug
//! build checks 48 draws per property; a release build checks 10,000
//! (`cargo test --release --test cross_validation`, which `ci.sh` runs;
//! about 3 s on 2 vCPUs).

use plane_rendezvous::experiments::SplitMix64;
use plane_rendezvous::prelude::*;
use plane_rendezvous::sim::simulate_rendezvous_by_ref;
use rvz_oracles::{first_contact_brute, stationary_contact_time};
use std::f64::consts::TAU;

/// Draws per random property: a sample in debug, the full set in
/// release.
fn cases() -> usize {
    if cfg!(debug_assertions) {
        48
    } else {
        10_000
    }
}

/// The engine's search contact against the analytic discovery time:
/// declared at distance ≤ r + tol, so it can be early by at most
/// tol / speed; it can never be late. The engine runs to
/// `horizon_factor` times the analytic time plus 10.
fn assert_engine_matches_analytic(p: Vec2, r: f64, horizon_factor: f64) {
    let inst = SearchInstance::new(p, r).unwrap();
    let analytic = first_discovery(&inst, 16).expect("analytic finds target");
    let horizon = analytic.time * horizon_factor + 10.0;
    let opts = ContactOptions::with_horizon(horizon).tolerance(r * 1e-9);
    let out = simulate_search(UniversalSearch, &inst, &opts);
    let simulated = out
        .contact_time()
        .unwrap_or_else(|| panic!("engine missed contact for p={p}, r={r}: {out}"));
    assert!(
        simulated <= analytic.time + 1e-6,
        "p={p} r={r}: engine late ({simulated} vs {})",
        analytic.time
    );
    assert!(
        analytic.time - simulated <= 1e-3 * (1.0 + analytic.time),
        "p={p} r={r}: engine too early ({simulated} vs {})",
        analytic.time
    );
}

#[test]
fn engine_matches_analytic_discovery_on_fixed_grid() {
    let targets = [
        Vec2::new(0.0, 0.8),
        Vec2::new(-0.5, 0.5),
        Vec2::new(0.7, 0.1),
        Vec2::new(-1.4, -0.9),
        Vec2::new(0.2, -1.9),
        Vec2::new(0.52, 0.0),
    ];
    for p in targets {
        for r in [0.2, 0.05, 0.01] {
            assert_engine_matches_analytic(p, r, 2.0);
        }
    }
}

/// Random targets in `[-2, 2)²` with radius `2^[-7, -2)`: analytic and
/// engine agree.
#[test]
fn engine_matches_analytic_discovery_random() {
    let mut rng = SplitMix64::new(0x5EA2_C4A1);
    let mut checked = 0;
    for _ in 0..cases() {
        let p = Vec2::new(rng.next_range(-2.0, 2.0), rng.next_range(-2.0, 2.0));
        let r = rng.next_range(-7.0, -2.0).exp2();
        if p.norm() <= 1e-3 || p.norm() <= r {
            continue;
        }
        assert_engine_matches_analytic(p, r, 1.0);
        checked += 1;
    }
    assert!(
        checked * 10 >= cases() * 9,
        "only {checked} targets checked"
    );
}

/// The engine is never later than brute-force sampling on random
/// piecewise paths (soundness property of conservative advancement).
///
/// `a` runs two random legs from the origin. `b`'s one leg crosses a
/// random point of `a`'s path within half a time unit of when `a` is
/// there, from a random direction, so most draws come within the
/// visibility radius and are checked; draws that never do are skipped.
#[test]
fn engine_never_later_than_brute_force() {
    let mut rng = SplitMix64::new(0xB2_07E);
    let mut checked = 0;
    for _ in 0..cases() {
        let (a1, a2) = (
            Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0)),
            Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0)),
        );
        let radius = rng.next_range(0.05, 0.8);
        let a = PathBuilder::at(Vec2::ZERO).line_to(a1).line_to(a2).build();
        let at = rng.next_range(0.0, a.duration());
        let crossing = a.position(at);
        let heading = Vec2::from_polar(1.0, rng.next_range(0.0, std::f64::consts::TAU));
        let lead = (at + rng.next_range(-0.5, 0.5)).max(0.0);
        let (b0, b1) = (
            crossing - heading * lead,
            crossing + heading * rng.next_range(0.5, 3.0),
        );
        let b = PathBuilder::at(b0).line_to(b1).build();
        let horizon = a.duration().max(b.duration().max(1.0)) + 1.0;
        let Some(brute) = first_contact_brute(&a, &b, radius, horizon, 1e-3) else {
            continue;
        };
        // The engine must find a contact, no later than brute force.
        match first_contact(&a, &b, radius, &ContactOptions::with_horizon(horizon)) {
            SimOutcome::Contact { time, .. } => assert!(
                time <= brute + 1e-9,
                "engine late: {time} vs brute {brute} (a → {a1}, {a2}; b {b0} → {b1}; r {radius})"
            ),
            other => panic!(
                "brute found {brute} but engine reported {other} (a → {a1}, {a2}; b {b0} → {b1}; r {radius})"
            ),
        }
        checked += 1;
    }
    // A generator that stopped producing contacts would check nothing.
    assert!(checked * 2 >= cases(), "only {checked} contacts checked");
}

/// `τ = 1, χ = +1`: the relative robot of Lemma 4 is `d⃗ − M·S(t)` with
/// `M = I − v·Rot(φ)`, a similarity `c·Rot(θ)` with `c = √det M`. So
/// Algorithm 4's robots meet within `r` exactly when the search robot
/// `S` comes within `r/c` of `M⁻¹d⃗`, and the production engine's
/// contact time must equal `first_discovery`'s on that target.
#[test]
fn consistent_equal_clock_rendezvous_is_search_under_a_similarity() {
    let opts = SweepOptions::default().contact;
    let mut rng = SplitMix64::new(9);
    let r = 0.1;
    for _ in 0..cases() {
        let v = rng.next_range(0.3, 0.99);
        let phi = rng.next_range(0.0, TAU);
        let offset = Vec2::from_polar(rng.next_range(0.3, 3.0), rng.next_range(0.0, TAU));
        let attrs = RobotAttributes::new(v, 1.0, phi, Chirality::Consistent);
        let m = Mat2::IDENTITY - attrs.frame_linear();
        let c = m.det().sqrt();
        let target = m.inverse().expect("v < 1 keeps M invertible") * offset;
        let search = SearchInstance::new(target, r / c).unwrap();
        let oracle = first_discovery(&search, times::MAX_ROUND).map(|d| d.time);
        let inst = RendezvousInstance::new(offset, r, attrs).unwrap();
        let engine = simulate_rendezvous_by_ref(&UniversalSearch, &inst, &opts).contact_time();
        match (engine, oracle.filter(|&t| t <= opts.horizon)) {
            (Some(e), Some(o)) => assert!(
                (e - o).abs() <= 1e-6 * o,
                "v={v} φ={phi} d⃗={offset}: engine {e} vs search {o}"
            ),
            (e, o) => panic!("v={v} φ={phi} d⃗={offset}: engine {e:?} vs search {o:?}"),
        }
    }
}

/// `τ ≠ 1`: while Algorithm 7's partner is inactive it sits at its start
/// `d⃗`, whatever its speed, compass or chirality, so the reference
/// robot's first pass within `r` of `d⃗` during such a window
/// (`stationary_contact_time`, Section 4) is a contact. The production
/// engine's first contact can only come earlier.
#[test]
fn algorithm7_first_contact_never_later_than_the_stationary_partner_witness() {
    let opts = SweepOptions::default().contact;
    let mut rng = SplitMix64::new(31);
    for _ in 0..cases() {
        let tau = rng.next_range(0.4, 0.95);
        let v = rng.next_range(0.3, 1.5);
        let chi = if rng.next_u64() & 1 == 0 {
            Chirality::Consistent
        } else {
            Chirality::Mirrored
        };
        let phi = rng.next_range(0.0, TAU);
        let offset = Vec2::from_polar(rng.next_range(0.3, 3.0), rng.next_range(0.0, TAU));
        let r = rng.next_range(0.05, 0.3);
        let case = format!("τ={tau} v={v} {chi:?} φ={phi} d⃗={offset} r={r}");
        let witness = stationary_contact_time(tau, offset, r, 9)
            .unwrap_or_else(|| panic!("{case}: no stationary contact"))
            .time;
        let inst =
            RendezvousInstance::new(offset, r, RobotAttributes::new(v, tau, phi, chi)).unwrap();
        let engine = simulate_rendezvous_by_ref(&WaitAndSearch, &inst, &opts)
            .contact_time()
            .unwrap_or_else(|| panic!("{case}: engine found no contact"));
        assert!(
            engine <= witness + 1e-9 * (1.0 + witness),
            "{case}: engine {engine} later than the witness {witness}"
        );
    }
}

/// The stationary witness against the simulator and Lemma 13: never
/// earlier than the engine's first contact, and its round never later
/// than Lemma 13's `k*`.
#[test]
fn stationary_witness_bracketed_by_simulation_and_lemma13() {
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
        .expect("simulation finds a contact no later than the witness");
        assert!(
            sim <= c.time + 1e-6,
            "τ={tau}: sim {sim} later than the witness {}",
            c.time
        );

        let n = coverage::guaranteed_discovery_round(offset.norm(), r).unwrap();
        let k_star = lemma13_round_bound(tau, n);
        assert!(
            c.round <= k_star,
            "τ={tau}: witness round {} beyond k* {k_star}",
            c.round
        );
    }
}
