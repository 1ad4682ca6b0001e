//! Lemmas 9–13: the phase-overlap algebra behind Theorem 3.
//!
//! With asymmetric clocks, robot `R'` traverses Algorithm 7's schedule at
//! `τ` times the reference rate, so its phase boundaries sit at
//! `τ·I(n)`, `τ·A(n)`. The proof of Theorem 3 shows that for every
//! `τ < 1` the active phases of `R` eventually overlap the inactive
//! phases of `R'` by more than `S(n)` — long enough for `R` to run the
//! complete sweep `Search(1..n)` (forward case, Figure 3a / Lemma 9) or
//! `Search(n..1)` (reverse case, Figure 3b / Lemma 10) while `R'` sits
//! still at its start point.
//!
//! This module reproduces that argument **analytically**: the lemmas'
//! claimed overlap amounts are checked against direct interval
//! intersections of the Lemma 8 closed forms, the round bound of
//! Lemma 13 (via Lambert W, Lemma 12) is computed exactly, and
//! [`first_sufficient_overlap_round`] independently finds the first round
//! whose overlap really suffices — the analytic counterpart of a
//! simulation measurement.

use crate::phases::{PhaseSchedule, MAX_PHASE_ROUND};
use rvz_numerics::dyadic::{floor_log2, pow2i};

/// Length of the intersection of two half-open intervals.
fn interval_overlap(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.1.min(b.1) - a.0.max(b.0)).max(0.0)
}

fn scale(interval: (f64, f64), tau: f64) -> (f64, f64) {
    (interval.0 * tau, interval.1 * tau)
}

/// The comparison of a lemma's claimed overlap against the directly
/// computed interval intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapReport {
    /// The amount the lemma claims (`τ·A(k+1+a) − A(k)` for Lemma 9,
    /// `I(k) − τ·I(k+a)` for Lemma 10).
    pub claimed: f64,
    /// The true intersection length of the two phase intervals.
    pub computed: f64,
    /// Whether `(τ, k, a)` satisfies the lemma's hypothesis.
    pub hypothesis_holds: bool,
    /// The reference robot's phase interval used.
    pub reference_interval: (f64, f64),
    /// The `τ`-scaled partner phase interval used.
    pub partner_interval: (f64, f64),
}

/// The hypothesis range of Lemma 9 for `(k, a)`:
/// `τ ∈ [k/((k+1+a)·2^{a+1}), (3/2)·k/((k+1+a)·2^{a+1})]`.
pub fn lemma9_tau_range(k: u32, a: u32) -> (f64, f64) {
    let lo = (k as f64 / (k + 1 + a) as f64) * pow2i(-i64::from(a) - 1);
    (lo, 1.5 * lo)
}

/// Lemma 9 (Figure 3a): `R`'s `k`-th active phase vs. `R'`'s
/// `(k+1+a)`-th inactive phase.
///
/// Under the hypothesis, `R`'s active phase *begins* inside the partner's
/// inactive window, and the claimed amount `τ·A(k+1+a) − A(k)` equals the
/// true overlap capped at the full active length `2S(k)` (the cap binds
/// near the top of the `τ` range; the lemma's downstream use only needs
/// the overlap to exceed `S(n)`, which the cap preserves).
///
/// # Panics
///
/// Panics when `τ ∉ (0, 1)` or `k + 1 + a > MAX_PHASE_ROUND`.
pub fn overlap_lemma9(tau: f64, k: u32, a: u32) -> OverlapReport {
    assert!(
        tau > 0.0 && tau < 1.0,
        "Lemma 9 requires τ ∈ (0,1), got {tau}"
    );
    let m = k + 1 + a;
    assert!(m <= MAX_PHASE_ROUND, "k+1+a = {m} exceeds supported rounds");
    let reference = PhaseSchedule::active_interval(k);
    let partner = scale(PhaseSchedule::inactive_interval(m), tau);
    let (lo, hi) = lemma9_tau_range(k, a);
    OverlapReport {
        claimed: tau * PhaseSchedule::active_start(m) - PhaseSchedule::active_start(k),
        computed: interval_overlap(reference, partner),
        hypothesis_holds: k >= 2 * (a + 1) && (lo..=hi).contains(&tau),
        reference_interval: reference,
        partner_interval: partner,
    }
}

/// The hypothesis range of Lemma 10 for `(k, a)`:
/// `τ ∈ [(2/3)·k/((k+a)·2^a), k/((k+1+a)·2^a)]`.
pub fn lemma10_tau_range(k: u32, a: u32) -> (f64, f64) {
    let p = pow2i(-i64::from(a));
    (
        (2.0 / 3.0) * (k as f64 / (k + a) as f64) * p,
        (k as f64 / (k + 1 + a) as f64) * p,
    )
}

/// Lemma 10 (Figure 3b): `R`'s `(k−1)`-st active phase vs. `R'`'s
/// `(k+a)`-th inactive phase.
///
/// Under the hypothesis the partner's inactive window covers the *end* of
/// `R`'s active phase, and the claimed amount `I(k) − τ·I(k+a)` equals
/// the true overlap capped at `2S(k−1)`.
///
/// # Panics
///
/// Panics when `τ ∉ (0, 1)`, `k < 2`, or `k + a > MAX_PHASE_ROUND`.
pub fn overlap_lemma10(tau: f64, k: u32, a: u32) -> OverlapReport {
    assert!(
        tau > 0.0 && tau < 1.0,
        "Lemma 10 requires τ ∈ (0,1), got {tau}"
    );
    assert!(
        k >= 2,
        "Lemma 10 concerns the (k−1)-st active phase; k must be ≥ 2"
    );
    let m = k + a;
    assert!(m <= MAX_PHASE_ROUND, "k+a = {m} exceeds supported rounds");
    let reference = PhaseSchedule::active_interval(k - 1);
    let partner = scale(PhaseSchedule::inactive_interval(m), tau);
    let (lo, hi) = lemma10_tau_range(k, a);
    OverlapReport {
        claimed: PhaseSchedule::inactive_start(k) - tau * PhaseSchedule::inactive_start(m),
        computed: interval_overlap(reference, partner),
        hypothesis_holds: k >= 2 * (a + 1) && (lo..=hi).contains(&tau),
        reference_interval: reference,
        partner_interval: partner,
    }
}

/// Lemma 13's canonical decomposition `τ = t·2^{−a}` with `a ≥ 0` integer
/// and `t ∈ [1/2, 1)` (`t = 1/2` exactly when `τ` is a power of two).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauDecomposition {
    /// The dyadic exponent `a`.
    pub a: u32,
    /// The mantissa `t ∈ [1/2, 1)`.
    pub t: f64,
}

/// Decomposes `τ ∈ (0, 1)` as `t·2^{−a}` (see [`TauDecomposition`]).
///
/// # Panics
///
/// Panics unless `0 < τ < 1`.
///
/// # Example
///
/// ```
/// use rvz_core::tau_decomposition;
///
/// let d = tau_decomposition(0.3);
/// assert_eq!(d.a, 1);
/// assert!((d.t - 0.6).abs() < 1e-12);
/// let p = tau_decomposition(0.25); // power of two ⇒ t = 1/2
/// assert_eq!((p.a, p.t), (1, 0.5));
/// ```
pub fn tau_decomposition(tau: f64) -> TauDecomposition {
    assert!(
        tau > 0.0 && tau < 1.0,
        "decomposition requires τ ∈ (0,1), got {tau}"
    );
    // τ ∈ [2^e, 2^{e+1}) with e = ⌊log₂ τ⌋ < 0; then a = −e − 1 puts
    // t = τ·2^a in [1/2, 1).
    let e = floor_log2(tau);
    let a = (-e - 1) as u32;
    let t = tau * pow2i(i64::from(a));
    TauDecomposition { a, t }
}

/// Ceiling with a relative tolerance, so that values a few ulps above an
/// integer (e.g. `0.9/(1−0.9) = 9.000000000000002`) round to that integer
/// instead of the next one.
fn ceil_tol(x: f64) -> f64 {
    (x - 1e-9 * (1.0 + x.abs())).ceil()
}

fn ceil_log2_pos(x: f64) -> i64 {
    // ⌈log₂ x⌉ for x > 0, as the paper's ⌈log(·)⌉ (may be ≤ 0).
    ceil_tol(x.log2()) as i64
}

/// Lemma 11's rendezvous round: `n + ⌈log(n/(a+1))⌉` (valid once
/// `k ≥ k₀ = 8(a+1)` in the `t ∈ [1/2, 2/3]` regime).
pub fn lemma11_round_bound(n: u32, a: u32) -> u32 {
    let extra = ceil_log2_pos(n as f64 / (a + 1) as f64);
    add_round_offset(n, extra)
}

/// Lemma 12's rendezvous round: `n + ⌈log n + log(1 + k₀/(a+1))⌉`.
pub fn lemma12_round_bound(n: u32, a: u32, k0: u32) -> u32 {
    let extra = ceil_log2_pos(n as f64 * (1.0 + k0 as f64 / (a + 1) as f64));
    add_round_offset(n, extra)
}

fn add_round_offset(n: u32, extra: i64) -> u32 {
    let v = n as i64 + extra.max(0);
    v as u32
}

/// Lemma 13: an explicit upper bound `k*` on the Algorithm 7 round by
/// which two robots with clock ratio `τ = t·2^{−a}` rendezvous, assuming
/// a stationary partner would be found on round `n`.
///
/// * `t ∈ [1/2, 2/3]`: `k* = max{8(a+1), n + ⌈log(n/(a+1))⌉}`;
/// * `t ∈ (2/3, 1)`:  `k* = max{⌈(a+1)·t/(1−t)⌉, n + ⌈log(n/(1−t))⌉}`.
///
/// # Panics
///
/// Panics unless `0 < τ < 1` and `n ≥ 1`.
///
/// # Example
///
/// ```
/// use rvz_core::lemma13_round_bound;
///
/// // τ = 0.5 (a = 0, t = 1/2), stationary find on round 3:
/// // k* = max(8, 3 + ⌈log 3⌉) = 8.
/// assert_eq!(lemma13_round_bound(0.5, 3), 8);
/// ```
pub fn lemma13_round_bound(tau: f64, n: u32) -> u32 {
    assert!(n >= 1, "stationary-find round n must be ≥ 1");
    let TauDecomposition { a, t } = tau_decomposition(tau);
    if t <= 2.0 / 3.0 {
        let k0 = 8 * (a + 1);
        k0.max(lemma11_round_bound(n, a))
    } else {
        let k0 = ceil_tol((a + 1) as f64 * t / (1.0 - t)) as u32;
        let extra = ceil_log2_pos(n as f64 / (1.0 - t));
        k0.max(add_round_offset(n, extra))
    }
}

/// The paper's Lemma 14 time expression for completing `k*` rounds,
/// `24(π+1)[(2k*−4)·2^{k*} + 4]` — literally `I(k*)`.
///
/// Note: `I(k*)` is the *start* of round `k*`; the conservative
/// completion time is [`completion_time`] (`= I(k*+1)`). Both are
/// reported by the benches; see `EXPERIMENTS.md` (E9) for the discussion
/// of this off-by-one in the paper's prose.
pub fn lemma14_time_expression(k_star: u32) -> f64 {
    PhaseSchedule::inactive_start(k_star)
}

/// Time by which round `k*` is fully complete: `I(k* + 1)`.
pub fn completion_time(k_star: u32) -> f64 {
    PhaseSchedule::round_end(k_star)
}

/// The first Algorithm 7 round `k` whose active phase overlaps one of the
/// partner's (`τ`-scaled) inactive phases for long enough to run a
/// complete `Search(1..=n)` — forward at the start of the active phase,
/// or reverse at its end.
///
/// This is the *analytic measurement* that Lemma 13's `k*` upper-bounds:
/// `first_sufficient_overlap_round(τ, n) ≤ lemma13_round_bound(τ, n)`
/// whenever both are defined (property-tested and reproduced in the E9
/// bench).
///
/// Returns `None` if no round up to `MAX_PHASE_ROUND` suffices.
///
/// # Panics
///
/// Panics unless `0 < τ < 1` and `1 ≤ n ≤ MAX_PHASE_ROUND`.
pub fn first_sufficient_overlap_round(tau: f64, n: u32) -> Option<u32> {
    assert!(tau > 0.0 && tau < 1.0, "requires τ ∈ (0,1), got {tau}");
    assert!(
        (1..=MAX_PHASE_ROUND).contains(&n),
        "n must be in 1..={MAX_PHASE_ROUND}, got {n}"
    );
    let f_n = PhaseSchedule::search_all_duration(n);
    for k in n..=MAX_PHASE_ROUND {
        let (a_k, end_k) = PhaseSchedule::active_interval(k);
        // Forward window: the first n blocks of SearchAll(k).
        if window_inside_scaled_inactive((a_k, a_k + f_n), tau) {
            return Some(k);
        }
        // Reverse window: the last n blocks of SearchAllRev(k).
        if window_inside_scaled_inactive((end_k - f_n, end_k), tau) {
            return Some(k);
        }
    }
    None
}

/// Does `[w0, w1]` lie entirely inside some `τ`-scaled inactive phase?
fn window_inside_scaled_inactive(window: (f64, f64), tau: f64) -> bool {
    // The candidate partner round is the one whose (scaled) round
    // interval contains w0. Check it and its successor.
    let local = window.0 / tau;
    if local >= PhaseSchedule::inactive_start(MAX_PHASE_ROUND + 1) {
        return false;
    }
    let m0 = PhaseSchedule::round_at(local);
    for m in [m0, m0 + 1] {
        if m > MAX_PHASE_ROUND {
            continue;
        }
        let (s, e) = scale(PhaseSchedule::inactive_interval(m), tau);
        if s <= window.0 && window.1 <= e {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lemma 9 across its hypothesis region: the active phase starts
    /// inside the partner window and the claimed amount matches the true
    /// overlap up to the 2S(k) cap.
    #[test]
    fn lemma9_claim_matches_interval_intersection() {
        for a in 0..3u32 {
            for k in (2 * (a + 1)).max(2)..=20 {
                if k + 1 + a > MAX_PHASE_ROUND {
                    continue;
                }
                let (lo, hi) = lemma9_tau_range(k, a);
                for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    let tau = lo + frac * (hi - lo);
                    let rep = overlap_lemma9(tau, k, a);
                    assert!(rep.hypothesis_holds, "k={k} a={a} τ={tau}");
                    // Alignment: A(k) inside the partner inactive window.
                    let (ps, pe) = rep.partner_interval;
                    let (as_, _) = rep.reference_interval;
                    assert!(
                        ps <= as_ + 1e-6 && as_ <= pe + 1e-6,
                        "k={k} a={a} τ={tau}: A(k) not inside partner window"
                    );
                    // Claim vs. computed (capped at the full active phase).
                    let active_len = rep.reference_interval.1 - rep.reference_interval.0;
                    let expected = rep.claimed.min(active_len);
                    assert!(
                        (rep.computed - expected).abs() <= 1e-6 * (1.0 + expected.abs()),
                        "k={k} a={a} τ={tau}: computed {} vs expected {}",
                        rep.computed,
                        expected
                    );
                    assert!(rep.computed > 0.0);
                }
            }
        }
    }

    /// Lemma 10 across its hypothesis region (mirror of the above).
    #[test]
    fn lemma10_claim_matches_interval_intersection() {
        for a in 0..3u32 {
            for k in (2 * (a + 1)).max(2)..=20 {
                if k + a > MAX_PHASE_ROUND {
                    continue;
                }
                let (lo, hi) = lemma10_tau_range(k, a);
                for frac in [0.0, 0.5, 1.0] {
                    let tau = lo + frac * (hi - lo);
                    let rep = overlap_lemma10(tau, k, a);
                    assert!(rep.hypothesis_holds, "k={k} a={a} τ={tau}");
                    // Alignment: I(k) (the end of the active phase) inside
                    // the partner window.
                    let (ps, pe) = rep.partner_interval;
                    let end = rep.reference_interval.1;
                    assert!(
                        ps <= end + 1e-6 && end <= pe + 1e-6,
                        "k={k} a={a} τ={tau}: I(k) not inside partner window"
                    );
                    let active_len = rep.reference_interval.1 - rep.reference_interval.0;
                    let expected = rep.claimed.min(active_len);
                    assert!(
                        (rep.computed - expected).abs() <= 1e-6 * (1.0 + expected.abs()),
                        "k={k} a={a} τ={tau}: computed {} vs expected {}",
                        rep.computed,
                        expected
                    );
                }
            }
        }
    }

    /// Outside the hypothesis the report says so.
    #[test]
    fn hypothesis_flag_is_accurate() {
        // τ far above the Lemma 9 range.
        let rep = overlap_lemma9(0.9, 8, 0);
        assert!(!rep.hypothesis_holds);
        // k below 2(a+1).
        let (lo, _) = lemma9_tau_range(3, 1);
        let rep = overlap_lemma9(lo, 3, 1);
        assert!(!rep.hypothesis_holds);
    }

    #[test]
    fn tau_decomposition_roundtrips() {
        for tau in [0.9, 0.7, 0.51, 0.5, 0.3, 0.25, 0.13, 0.0625, 0.011] {
            let d = tau_decomposition(tau);
            assert!((0.5..1.0).contains(&d.t), "τ={tau}: t={} out of range", d.t);
            let back = d.t * (-(d.a as f64)).exp2();
            assert!((back - tau).abs() < 1e-15, "τ={tau} reconstructed {back}");
        }
    }

    #[test]
    #[should_panic(expected = "requires τ ∈ (0,1)")]
    fn tau_one_rejected() {
        let _ = tau_decomposition(1.0);
    }

    #[test]
    fn lemma13_known_values() {
        // τ = 0.5: a = 0, t = 1/2 ⇒ max(8, n + ⌈log n⌉).
        assert_eq!(lemma13_round_bound(0.5, 3), 8);
        assert_eq!(lemma13_round_bound(0.5, 10), 14);
        // τ = 0.25: a = 1 ⇒ k₀ = 16 dominates for small n.
        assert_eq!(lemma13_round_bound(0.25, 3), 16);
        // τ = 0.9: t = 0.9 > 2/3 ⇒ max(⌈0.9/0.1⌉, n + ⌈log(10n)⌉).
        assert_eq!(lemma13_round_bound(0.9, 3), 9); // max(⌈0.9/0.1⌉, 3+⌈log 30⌉) = max(9, 8)
    }

    #[test]
    fn lemma13_explodes_as_t_approaches_one() {
        let k_mid = lemma13_round_bound(0.75, 2);
        let k_close = lemma13_round_bound(0.99, 2);
        assert!(k_close > 3 * k_mid, "{k_close} vs {k_mid}");
    }

    /// The analytic measurement is never later than Lemma 13's bound
    /// (when the bound is within the supported horizon).
    #[test]
    fn sufficient_round_within_lemma13_bound() {
        for tau in [0.5, 0.55, 0.6, 0.3, 0.25, 0.7, 0.8, 0.52, 0.9] {
            for n in 1..=4u32 {
                let k_star = lemma13_round_bound(tau, n);
                if k_star > MAX_PHASE_ROUND {
                    continue;
                }
                let measured = first_sufficient_overlap_round(tau, n)
                    .unwrap_or_else(|| panic!("no sufficient round for τ={tau}, n={n}"));
                assert!(
                    measured <= k_star,
                    "τ={tau} n={n}: measured {measured} > bound {k_star}"
                );
            }
        }
    }

    /// Lemma 11's inequality chain: at k = k*, the claimed overlap
    /// exceeds S(n) when τ sits in the eq-(2) window.
    #[test]
    fn lemma11_overlap_exceeds_s_n() {
        for a in 0..2u32 {
            let k0 = 8 * (a + 1);
            // eq (2): τ ∈ [2^{−a−1}, (3/4)·k0/(k0+1+a)·2^{−a}].
            let lo = (-(a as f64) - 1.0).exp2();
            let hi = 0.75 * (k0 as f64 / (k0 + 1 + a) as f64) * (-(a as f64)).exp2();
            let tau = 0.5 * (lo + hi);
            for n in 1..=3u32 {
                let k_star = lemma13_round_bound(tau, n).max(k0);
                if k_star + 1 + a > MAX_PHASE_ROUND {
                    continue;
                }
                let rep = overlap_lemma9(tau, k_star, a);
                let s_n = PhaseSchedule::search_all_duration(n);
                assert!(
                    rep.computed >= s_n,
                    "a={a} τ={tau} n={n}: overlap {} < S(n) {s_n}",
                    rep.computed
                );
            }
        }
    }

    #[test]
    fn lemma12_round_bound_monotone_in_k0() {
        assert!(lemma12_round_bound(4, 0, 16) >= lemma12_round_bound(4, 0, 8));
        assert!(lemma12_round_bound(4, 1, 8) >= lemma11_round_bound(4, 1));
    }

    #[test]
    fn completion_time_brackets_lemma14_expression() {
        for k in 2..=10u32 {
            assert!(lemma14_time_expression(k) < completion_time(k));
            assert_eq!(completion_time(k), PhaseSchedule::inactive_start(k + 1));
        }
    }
}
