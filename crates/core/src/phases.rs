//! Lemma 8: the phase schedule of Algorithm 7.
//!
//! Each round `n` of Algorithm 7 consists of an **inactive** phase (wait
//! at the start point for `2S(n)`) followed by an **active** phase
//! (`SearchAll(n)` then `SearchAllRev(n)`, also `2S(n)`), where
//! `S(n) = 12(π+1)·n·2ⁿ` is the duration of `SearchAll(n)`. Lemma 8
//! gives the closed forms
//!
//! ```text
//! I(n) = 24(π+1)[(2n−4)·2ⁿ + 4]   (inactive phase begins)
//! A(n) = 24(π+1)[(3n−4)·2ⁿ + 4]   (active phase begins)
//! ```
//!
//! These are **global-time** boundaries for the reference robot; a robot
//! with clock `τ` hits them at `τ·I(n)` and `τ·A(n)` — the mismatch that
//! Section 4's overlap argument exploits.

use rvz_numerics::pow2i;
use rvz_search::times;

/// Closed-form accessors for Algorithm 7's phase boundaries.
///
/// A zero-sized value; the schedule has no parameters.
///
/// # Example
///
/// ```
/// use rvz_core::PhaseSchedule;
///
/// // Round 1 is the very start: I(1) = 0.
/// assert_eq!(PhaseSchedule::inactive_start(1), 0.0);
/// // Each round lasts 4·S(n).
/// let len = PhaseSchedule::inactive_start(2) - PhaseSchedule::inactive_start(1);
/// assert!((len - 4.0 * PhaseSchedule::search_all_duration(1)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PhaseSchedule;

/// Largest supported Algorithm 7 round, bounded by the underlying search
/// schedule's [`times::MAX_ROUND`].
pub const MAX_PHASE_ROUND: u32 = times::MAX_ROUND;

fn check_phase_round(n: u32) {
    assert!(
        (1..=MAX_PHASE_ROUND).contains(&n),
        "phase round must be in 1..={MAX_PHASE_ROUND}, got {n}"
    );
}

impl PhaseSchedule {
    /// `S(n) = 12(π+1)·n·2ⁿ`: the duration of `SearchAll(n)` (equation (1)
    /// of the paper) — identical to the first `n` rounds of Algorithm 4.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ MAX_PHASE_ROUND`.
    pub fn search_all_duration(n: u32) -> f64 {
        check_phase_round(n);
        times::rounds_total(n)
    }

    /// `I(n) = 24(π+1)[(2n−4)·2ⁿ + 4]`: global start of round `n`'s
    /// inactive phase (Lemma 8). `n = MAX_PHASE_ROUND + 1` is allowed as a
    /// horizon sentinel (the end of the last supported round).
    pub fn inactive_start(n: u32) -> f64 {
        assert!(
            (1..=MAX_PHASE_ROUND + 1).contains(&n),
            "phase round must be in 1..={} for I(n), got {n}",
            MAX_PHASE_ROUND + 1
        );
        let nf = n as f64;
        24.0 * times::PI_PLUS_1 * ((2.0 * nf - 4.0) * pow2i(i64::from(n)) + 4.0)
    }

    /// `A(n) = 24(π+1)[(3n−4)·2ⁿ + 4]`: global start of round `n`'s active
    /// phase (Lemma 8). Equals `I(n) + 2S(n)`.
    pub fn active_start(n: u32) -> f64 {
        check_phase_round(n);
        let nf = n as f64;
        24.0 * times::PI_PLUS_1 * ((3.0 * nf - 4.0) * pow2i(i64::from(n)) + 4.0)
    }

    /// The end of round `n` (= `I(n+1)`).
    pub fn round_end(n: u32) -> f64 {
        check_phase_round(n);
        Self::inactive_start(n + 1)
    }

    /// Total duration of round `n`: `4·S(n)`.
    pub fn round_duration(n: u32) -> f64 {
        4.0 * Self::search_all_duration(n)
    }

    /// The round active at global time `t ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics for negative/NaN `t` or beyond the supported horizon.
    pub fn round_at(t: f64) -> u32 {
        assert!(t >= 0.0 && !t.is_nan(), "time must be >= 0, got {t}");
        for n in 1..=MAX_PHASE_ROUND {
            if t < Self::inactive_start(n + 1) {
                return n;
            }
        }
        panic!(
            "time {t} beyond the supported horizon {}",
            Self::inactive_start(MAX_PHASE_ROUND + 1)
        );
    }

    /// The interval `[I(n), A(n))` in which the robot is inactive, as a
    /// `(start, end)` pair.
    pub fn inactive_interval(n: u32) -> (f64, f64) {
        (Self::inactive_start(n), Self::active_start(n))
    }

    /// The interval `[A(n), I(n+1))` in which the robot is active.
    pub fn active_interval(n: u32) -> (f64, f64) {
        (Self::active_start(n), Self::round_end(n))
    }

    /// The `Search(k)` blocks of round `n`'s active phase in execution
    /// order, each as `(k, global start)`: `SearchAll(n)`'s block `k` at
    /// `A(n) + F(k−1)`, then `SearchAllRev(n)`'s in reverse order, block
    /// `k` at `A(n) + S(n) + (S(n) − F(k))`, where `F(k)` is the
    /// duration of rounds `1..=k`.
    pub fn search_blocks(n: u32) -> impl Iterator<Item = (u32, f64)> {
        let a_n = Self::active_start(n);
        let s_n = Self::search_all_duration(n);
        let forward = (1..=n).map(move |k| (k, a_n + times::rounds_total(k - 1)));
        let reverse = (1..=n)
            .rev()
            .map(move |k| (k, a_n + s_n + (s_n - times::rounds_total(k))));
        forward.chain(reverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;

    #[test]
    fn round1_boundaries() {
        assert_eq!(PhaseSchedule::inactive_start(1), 0.0);
        // A(1) = 2S(1) = 24(π+1)·2.
        assert_approx_eq!(
            PhaseSchedule::active_start(1),
            2.0 * PhaseSchedule::search_all_duration(1),
            1e-12
        );
    }

    /// Lemma 8's derivation: I(n) = 4·Σ_{k<n} S(k).
    #[test]
    fn inactive_start_telescopes_over_rounds() {
        let mut acc = 0.0;
        for n in 1..=12 {
            assert_approx_eq!(PhaseSchedule::inactive_start(n), acc, 1e-9);
            acc += 4.0 * PhaseSchedule::search_all_duration(n);
        }
    }

    /// A(n) = I(n) + 2S(n) and I(n+1) = A(n) + 2S(n).
    #[test]
    fn phase_lengths_are_2s() {
        for n in 1..=12 {
            let s = PhaseSchedule::search_all_duration(n);
            assert_approx_eq!(
                PhaseSchedule::active_start(n),
                PhaseSchedule::inactive_start(n) + 2.0 * s,
                1e-9
            );
            assert_approx_eq!(
                PhaseSchedule::inactive_start(n + 1),
                PhaseSchedule::active_start(n) + 2.0 * s,
                1e-9
            );
        }
    }

    #[test]
    fn round_lookup() {
        assert_eq!(PhaseSchedule::round_at(0.0), 1);
        for n in 1..=8 {
            let mid = 0.5 * (PhaseSchedule::inactive_start(n) + PhaseSchedule::round_end(n));
            assert_eq!(PhaseSchedule::round_at(mid), n);
            // Exactly at the boundary the next round begins.
            assert_eq!(PhaseSchedule::round_at(PhaseSchedule::round_end(n)), n + 1);
        }
    }

    #[test]
    fn intervals_partition_rounds() {
        for n in 1..=10 {
            let (i0, i1) = PhaseSchedule::inactive_interval(n);
            let (a0, a1) = PhaseSchedule::active_interval(n);
            assert_eq!(i1, a0);
            assert_approx_eq!(a1 - i0, PhaseSchedule::round_duration(n), 1e-9);
            // Inactive and active halves are equal length.
            assert_approx_eq!(i1 - i0, a1 - a0, 1e-9);
        }
    }

    #[test]
    fn s_n_matches_paper_equation_1() {
        for n in 1..=10 {
            let expected = 12.0 * times::PI_PLUS_1 * n as f64 * (n as f64).exp2();
            assert_approx_eq!(PhaseSchedule::search_all_duration(n), expected, 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "phase round must be in")]
    fn round_zero_rejected() {
        let _ = PhaseSchedule::active_start(0);
    }

    #[test]
    #[should_panic(expected = "beyond the supported horizon")]
    fn horizon_is_enforced() {
        let _ = PhaseSchedule::round_at(f64::MAX);
    }
}
