//! Analytic ablation models for the dyadic granularity schedule.
//!
//! Design decision ◆4 (`DESIGN.md`): the paper sets the sub-round
//! granularity `ρ_{j,k} = δ²_{j,k}/2^{k+1}`, coarse on outer annuli and
//! fine on inner ones, so a round costs only `3(π+1)(k+1)·2^{k+1}` time
//! while still guaranteeing discovery once `2^{k+1} ≥ d²/r`. These
//! models compute — in closed form, no simulation — the *guaranteed*
//! search time of schedule variants, letting the E12 bench show the
//! asymptotic gap.

use rvz_search::{coverage, times};

/// The guaranteed-performance summary of a search schedule on `(d, r)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuaranteedSearch {
    /// First round whose sweep provably reaches any target at distance `d`.
    pub round: u32,
    /// Total time to complete all rounds through that one.
    pub time: f64,
}

/// A doubling-round search schedule whose per-round cost and discovery
/// guarantee have closed forms.
///
/// This trait is deliberately *analytic*: implementations answer "by
/// what round is discovery guaranteed, and how much time has elapsed by
/// then", which is the quantity Theorem 1 bounds.
pub trait SearchScheduleModel {
    /// Short display name for benches and tables.
    fn name(&self) -> &'static str;

    /// Duration of round `k` under this schedule.
    fn round_time(&self, k: u32) -> f64;

    /// First round that guarantees discovery for `(d, r)`, if any round
    /// up to `max_round` does.
    fn guaranteed_round(&self, d: f64, r: f64, max_round: u32) -> Option<u32>;

    /// Guaranteed search time: the sum of round times through the
    /// guaranteed round.
    fn guaranteed_search(&self, d: f64, r: f64, max_round: u32) -> Option<GuaranteedSearch> {
        let round = self.guaranteed_round(d, r, max_round)?;
        let time = (1..=round).map(|k| self.round_time(k)).sum();
        Some(GuaranteedSearch { round, time })
    }
}

/// The paper's schedule (Algorithm 3/4), delegating to the exact
/// implementations in `rvz-search`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PaperSchedule;

impl SearchScheduleModel for PaperSchedule {
    fn name(&self) -> &'static str {
        "paper (ρ = δ²/2^{k+1})"
    }

    fn round_time(&self, k: u32) -> f64 {
        times::round_duration(k)
    }

    fn guaranteed_round(&self, d: f64, r: f64, max_round: u32) -> Option<u32> {
        coverage::guaranteed_discovery_round(d, r).filter(|&k| k <= max_round)
    }
}

/// Ablation: round `k` sweeps the disk of radius `2^k` with a *uniform*
/// granularity `ρ = 2^{−k}` (circles every `2^{1−k}` from `2^{−k}` out to
/// `2^k`).
///
/// Discovery is guaranteed once `2^{−k} ≤ r` and `2^k ≥ d`, i.e. at
/// round `max(⌈log 1/r⌉, ⌈log d⌉)` — but the round time is
/// `Θ(2^{3k})` instead of the paper's `Θ(k·2^k)`, because outer annuli
/// are swept needlessly finely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniformGranularity;

impl UniformGranularity {
    /// Number of circles in round `k`: radii `2^{−k}, 2^{−k}+2ρ, …, 2^k`
    /// with `ρ = 2^{−k}`.
    fn circle_count(k: u32) -> u64 {
        // (2^k − 2^{−k}) / 2^{1−k} + 1 = (2^{2k} − 1)/2 + 1.
        (((1_u128 << (2 * k)) - 1) / 2 + 1) as u64
    }
}

impl SearchScheduleModel for UniformGranularity {
    fn name(&self) -> &'static str {
        "uniform (ρ = 2^{-k})"
    }

    fn round_time(&self, k: u32) -> f64 {
        assert!(
            (1..=times::MAX_ROUND).contains(&k),
            "round {k} out of range"
        );
        // Σᵢ 2(π+1)·δᵢ over circles δᵢ = 2^{−k} + 2i·2^{−k}: arithmetic
        // series with n = circle_count terms, first 2^{−k}, last 2^k.
        let n = Self::circle_count(k) as f64;
        let first = 2f64.powi(-(k as i32));
        let last = 2f64.powi(k as i32);
        2.0 * times::PI_PLUS_1 * n * 0.5 * (first + last)
    }

    fn guaranteed_round(&self, d: f64, r: f64, max_round: u32) -> Option<u32> {
        assert!(d > 0.0 && r > 0.0, "d and r must be positive");
        if d <= r {
            return Some(1);
        }
        (1..=max_round.min(times::MAX_ROUND)).find(|&k| {
            let rho = 2f64.powi(-(k as i32));
            let reach = 2f64.powi(k as i32);
            rho <= r && reach >= d
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_delegates_to_exact_schedule() {
        let m = PaperSchedule;
        assert_eq!(m.round_time(3), times::round_duration(3));
        let g = m.guaranteed_search(0.9, 1e-3, 31).unwrap();
        assert_eq!(
            Some(g.round),
            coverage::guaranteed_discovery_round(0.9, 1e-3)
        );
        assert!((g.time - times::rounds_total(g.round)).abs() < 1e-9);
    }

    #[test]
    fn uniform_circle_count_small_cases() {
        // k = 1: radii 1/2, 3/2, ... up to 2: circles at 1/2, 3/2 — wait,
        // spacing 2ρ = 1: 1/2, 3/2 then cap 2 ⇒ count = (4−1)/2 + 1 = 2.
        assert_eq!(UniformGranularity::circle_count(1), 2);
        // k = 2: (16−1)/2 + 1 = 8.
        assert_eq!(UniformGranularity::circle_count(2), 8);
    }

    #[test]
    fn uniform_round_time_grows_cubically() {
        let m = UniformGranularity;
        // Θ(2^{3k}): ratio between consecutive rounds tends to 8.
        let ratio = m.round_time(10) / m.round_time(9);
        assert!((ratio - 8.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn paper_round_time_grows_like_k_2k() {
        let m = PaperSchedule;
        let ratio = m.round_time(10) / m.round_time(9);
        // (k+1)2^{k+1} growth: ratio ≈ 2·(11/10).
        assert!((ratio - 2.2).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn uniform_guarantee_rounds() {
        let m = UniformGranularity;
        // d = 0.9, r = 2^{-5}: needs ρ ≤ r (k ≥ 5) and 2^k ≥ 0.9 (k ≥ 0).
        assert_eq!(m.guaranteed_round(0.9, 0.03125, 31), Some(5));
        // Visible at start.
        assert_eq!(m.guaranteed_round(0.5, 1.0, 31), Some(1));
        // Out of budget.
        assert_eq!(m.guaranteed_round(0.9, 1e-12, 10), None);
    }

    #[test]
    fn ablation_gap_widens_with_difficulty() {
        let paper = PaperSchedule;
        let uniform = UniformGranularity;
        let mut last_ratio = 0.0;
        for rexp in [-4, -6, -8, -10] {
            let r = (rexp as f64).exp2();
            let p = paper.guaranteed_search(1.0, r, 31).unwrap();
            let u = uniform.guaranteed_search(1.0, r, 31).unwrap();
            let ratio = u.time / p.time;
            assert!(
                ratio > last_ratio,
                "gap should widen: r=2^{rexp}: {ratio} vs {last_ratio}"
            );
            last_ratio = ratio;
        }
        // The final gap is substantial.
        assert!(last_ratio > 50.0, "final ratio {last_ratio}");
    }
}
