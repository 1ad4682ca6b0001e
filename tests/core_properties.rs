//! Seeded property checks for `rvz-core`: the equivalent-search algebra
//! of Lemmas 4–5, the τ decomposition, the Lemma 9–13 overlap machinery
//! and Algorithm 7's phase schedule.
//!
//! Each property draws its cases from its own fixed-seed
//! [`SplitMix64`] stream, so every run checks the same cases. Where a
//! lemma's hypothesis filters the draws, the property also requires
//! that enough draws satisfied it, so a filter cannot quietly make the
//! check vacuous. A debug build checks 256 draws per property; a
//! release build checks 10,000 (`cargo test --release --test
//! core_properties`, which `ci.sh` runs).

use plane_rendezvous::core::overlap::{lemma10_tau_range, lemma9_tau_range};
use plane_rendezvous::core::{
    completion_time, first_sufficient_overlap_round, lemma13_round_bound, overlap_lemma10,
    overlap_lemma9, tau_decomposition, EquivalentSearch, OverlapReport, PhaseSchedule,
    WaitAndSearch,
};
use plane_rendezvous::experiments::SplitMix64;
use plane_rendezvous::geometry::{Mat2, Vec2, TAU};
use plane_rendezvous::model::{Chirality, RobotAttributes};
use plane_rendezvous::search::UniversalSearch;
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

fn chirality(rng: &mut SplitMix64) -> Chirality {
    if rng.next_below(2) == 0 {
        Chirality::Consistent
    } else {
        Chirality::Mirrored
    }
}

/// τ = 1 attributes with `v ∈ [v_lo, v_hi)`, any orientation and
/// chirality.
fn twin_clock_attributes(rng: &mut SplitMix64, v_lo: f64, v_hi: f64) -> RobotAttributes {
    let v = rng.next_range(v_lo, v_hi);
    let phi = rng.next_range(0.0, TAU);
    RobotAttributes::new(v, 1.0, phi, chirality(rng))
}

/// Lemma 5: the closed-form upper-triangular factor equals the numeric
/// QR's for every non-degenerate attribute combination.
#[test]
fn lemma5_closed_form_matches_qr() {
    let mut checked = 0;
    for_each_draw(0xC0_0001, |rng| {
        let attrs = twin_clock_attributes(rng, 0.05, 0.999);
        let eq = EquivalentSearch::new(&attrs);
        if eq.mu() <= 1e-6 {
            return;
        }
        checked += 1;
        let qr = eq.qr().r;
        let cf = eq.upper_triangular_closed_form();
        assert!(
            (qr - cf).frobenius_norm() <= 1e-8 * (1.0 + cf.frobenius_norm()),
            "{attrs:?}: {qr} vs {cf}"
        );
    });
    assert!(
        checked > cases() * 9 / 10,
        "only {checked} non-degenerate draws"
    );
}

/// `det T∘` in closed form: µ² for χ = +1 and 1 − v² for χ = −1.
#[test]
fn determinant_closed_forms() {
    for_each_draw(0xC0_0002, |rng| {
        let v = rng.next_range(0.05, 2.0);
        let phi = rng.next_range(0.0, TAU);
        let cons = EquivalentSearch::new(&RobotAttributes::new(v, 1.0, phi, Chirality::Consistent));
        let mu2 = cons.mu() * cons.mu();
        assert!(
            (cons.determinant() - mu2).abs() <= 1e-9 * (1.0 + mu2),
            "χ = +1, v = {v}, φ = {phi}"
        );
        let mirr = EquivalentSearch::new(&RobotAttributes::new(v, 1.0, phi, Chirality::Mirrored));
        assert!(
            (mirr.determinant() - (1.0 - v * v)).abs() <= 1e-9 * (1.0 + v * v),
            "χ = −1, v = {v}, φ = {phi}"
        );
    });
}

/// `T∘` is the identity minus the Lemma 4 frame matrix, entry by entry.
#[test]
fn t_circ_entrywise() {
    for_each_draw(0xC0_0003, |rng| {
        let attrs = twin_clock_attributes(rng, 0.05, 2.0);
        let (v, phi) = (attrs.speed(), attrs.orientation());
        let chi = attrs.chirality().sign();
        let expected = Mat2::new(
            1.0 - v * phi.cos(),
            v * chi * phi.sin(),
            -v * phi.sin(),
            1.0 - v * chi * phi.cos(),
        );
        let eq = EquivalentSearch::new(&attrs);
        assert!(
            (eq.matrix() - expected).frobenius_norm() <= 1e-12,
            "{attrs:?}: {} vs {expected}",
            eq.matrix()
        );
    });
}

/// Lemma 4's frame map: at τ = 1 the robots' relative position is
/// `T∘·S(t) − d⃗` at any time.
#[test]
fn lemma4_relative_motion_identity() {
    for_each_draw(0xC0_0004, |rng| {
        let attrs = twin_clock_attributes(rng, 0.1, 0.999);
        let t = rng.next_range(0.0, 5e4);
        let d = Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0));
        let algo = UniversalSearch;
        let partner = attrs.frame_warp(algo, d);
        let eq = EquivalentSearch::new(&attrs);
        let relative = algo.position(t) - partner.position(t);
        let predicted = eq.matrix() * algo.position(t) - d;
        assert!(
            relative.distance(predicted) <= 1e-7 * (1.0 + relative.norm()),
            "{attrs:?}, t = {t}, d = {d}: {relative} vs {predicted}"
        );
    });
}

/// The τ decomposition: τ = t·2^{−a} with t ∈ [1/2, 1).
#[test]
fn tau_decomposition_contract() {
    for_each_draw(0xC0_0005, |rng| {
        let tau = rng.next_range(1e-6, 0.999_999);
        let d = tau_decomposition(tau);
        assert!((0.5..1.0).contains(&d.t), "τ = {tau}: t = {}", d.t);
        let back = d.t * (-f64::from(d.a)).exp2();
        assert!((back - tau).abs() <= 1e-12 * tau, "τ = {tau}: {back}");
    });
}

/// Lemma 13's k* is monotone in n: a farther or blinder partner can only
/// push the guaranteed rendezvous round later.
#[test]
fn lemma13_monotone_in_n() {
    for_each_draw(0xC0_0006, |rng| {
        let tau = rng.next_range(0.01, 0.99);
        let n = 1 + rng.next_below(12) as u32;
        assert!(
            lemma13_round_bound(tau, n) <= lemma13_round_bound(tau, n + 1),
            "τ = {tau}, n = {n}"
        );
    });
}

/// Inside a lemma's hypothesis region the computed overlap equals the
/// claim capped at the full active length. Returns whether the draw
/// satisfied the hypothesis.
fn cap_identity_holds(rep: &OverlapReport, what: &str) -> bool {
    if !rep.hypothesis_holds {
        return false;
    }
    let active = rep.reference_interval.1 - rep.reference_interval.0;
    let expected = rep.claimed.min(active);
    assert!(
        (rep.computed - expected).abs() <= 1e-6 * (1.0 + expected),
        "{what}: computed {} vs expected {expected} ({rep:?})",
        rep.computed
    );
    true
}

/// Lemma 9: draws `(k, a)` with `k ≥ 2(a + 1)` and τ across the
/// hypothesis range.
#[test]
fn lemma9_cap_identity() {
    let mut held = 0;
    for_each_draw(0xC0_0007, |rng| {
        let a = rng.next_below(3) as u32;
        let k = 2 * (a + 1) + rng.next_below(13) as u32;
        if k + 1 + a > 31 {
            return;
        }
        let (lo, hi) = lemma9_tau_range(k, a);
        let tau = rng.next_range(lo, hi);
        held += usize::from(cap_identity_holds(
            &overlap_lemma9(tau, k, a),
            &format!("Lemma 9, τ = {tau}, k = {k}, a = {a}"),
        ));
    });
    assert!(held > cases() / 2, "hypothesis held on only {held} draws");
}

/// Lemma 10, as Lemma 9.
#[test]
fn lemma10_cap_identity() {
    let mut held = 0;
    for_each_draw(0xC0_0008, |rng| {
        let a = rng.next_below(3) as u32;
        let k = (2 * (a + 1) + rng.next_below(13) as u32).max(2);
        if k + a > 31 {
            return;
        }
        let (lo, hi) = lemma10_tau_range(k, a);
        let tau = rng.next_range(lo, hi);
        held += usize::from(cap_identity_holds(
            &overlap_lemma10(tau, k, a),
            &format!("Lemma 10, τ = {tau}, k = {k}, a = {a}"),
        ));
    });
    assert!(held > cases() / 2, "hypothesis held on only {held} draws");
}

/// The first round whose overlap suffices comes no later than Lemma 13's
/// bound, wherever the bound is within the supported horizon.
#[test]
fn sufficient_round_bounded_by_lemma13() {
    let mut checked = 0;
    for_each_draw(0xC0_0009, |rng| {
        let tau = rng.next_range(0.05, 0.95);
        let n = 1 + rng.next_below(4) as u32;
        let k_star = lemma13_round_bound(tau, n);
        if k_star > 28 {
            return;
        }
        checked += 1;
        let measured = first_sufficient_overlap_round(tau, n)
            .unwrap_or_else(|| panic!("no sufficient round for τ = {tau}, n = {n}"));
        assert!(
            measured <= k_star,
            "τ = {tau}, n = {n}: {measured} > {k_star}"
        );
    });
    assert!(
        checked > cases() / 2,
        "only {checked} draws within the horizon"
    );
}

/// Algorithm 7 sits at the origin throughout every inactive phase.
#[test]
fn inactive_means_origin() {
    for_each_draw(0xC0_000A, |rng| {
        let n = 1 + rng.next_below(12) as u32;
        let (i0, i1) = PhaseSchedule::inactive_interval(n);
        let t = rng.next_range(i0, i0 + 0.999 * (i1 - i0));
        assert_eq!(WaitAndSearch.position(t), Vec2::ZERO, "n = {n}, t = {t}");
    });
}

/// `completion_time` is strictly increasing over every supported round.
#[test]
fn completion_time_increasing() {
    for k in 1..=30 {
        assert!(completion_time(k) < completion_time(k + 1), "k = {k}");
    }
}
