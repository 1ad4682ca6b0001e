//! # rvz-search
//!
//! Section 2 of the paper: the search algorithms that underlie every
//! rendezvous strategy.
//!
//! A single robot with visibility radius `r` must find a stationary target
//! at unknown distance `d`. The paper solves this with a hierarchy of four
//! procedures, all reproduced here:
//!
//! | paper | this crate |
//! |---|---|
//! | Algorithm 1, `SearchCircle(δ)` | [`search_circle`] |
//! | Algorithm 2, `SearchAnnulus(δ₁, δ₂, ρ)` | [`search_annulus`] |
//! | Algorithm 3, `Search(k)` | [`search_round`] / [`schedule::RoundSchedule`] |
//! | Algorithm 4 (repeat `Search(k)` forever) | [`UniversalSearch`] |
//!
//! Two representations are provided for each level:
//!
//! * **segment streams / [`Path`]s** — explicit
//!   geometry, used by tests and small simulations; round `k` has
//!   `Θ(4^k)` segments, so this form does not scale;
//! * **closed-form indexing** — every radius, circle count, and phase
//!   start time follows the paper's exact dyadic formulas
//!   ([`times`], [`schedule`]), giving `O(log)` random access to the
//!   segment active at any time `t` ([`UniversalSearch::segment_at`]).
//!   This is what lets the conservative-advancement simulator in
//!   `rvz-sim` take large time steps over millions of segments.
//!
//! The [`discovery`] module computes the *exact* first time Algorithm 4
//! sees a given target, analytically — an independent oracle used to
//! cross-check the simulator and to reproduce Theorem 1 at scales the
//! step-based simulator cannot reach.
//!
//! ## Example
//!
//! ```
//! use rvz_search::{UniversalSearch, discovery, coverage};
//! use rvz_model::SearchInstance;
//! use rvz_geometry::Vec2;
//!
//! let inst = SearchInstance::new(Vec2::new(0.7, 0.9), 1e-3).unwrap();
//! let found = discovery::first_discovery(&inst, 20).expect("target is found");
//! let bound = coverage::theorem1_bound(inst.distance(), inst.visibility());
//! assert!(found.time < bound, "Theorem 1 holds");
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod coverage;
pub mod discovery;
pub mod schedule;
pub mod times;
pub mod universal;
pub mod windows;

pub use discovery::{first_discovery, Discovery, DiscoveryEvent};
pub use schedule::{RoundCursor, RoundSchedule, SubRound};
pub use universal::UniversalSearch;
pub use windows::{first_visit_in_round, round_contact_windows, ContactWindow, RoundWindows};

use rvz_geometry::Vec2;
use rvz_trajectory::{Path, PathBuilder};

/// Algorithm 1, `SearchCircle(δ)`: move along the x-axis to radius `δ`,
/// traverse the circle of radius `δ`, and return to the start.
///
/// The returned path starts and ends at the origin and takes time
/// `2(π+1)·δ` (Lemma 2).
///
/// # Panics
///
/// Panics unless `δ > 0` and finite.
///
/// # Example
///
/// ```
/// use rvz_search::search_circle;
/// let p = search_circle(2.0);
/// assert!((p.duration() - 4.0 * (std::f64::consts::PI + 1.0)).abs() < 1e-12);
/// ```
pub fn search_circle(delta: f64) -> Path {
    assert!(
        delta > 0.0 && delta.is_finite(),
        "SearchCircle requires δ > 0, got {delta}"
    );
    PathBuilder::at(Vec2::ZERO)
        .line_to(Vec2::new(delta, 0.0))
        .full_circle(Vec2::ZERO)
        .line_to(Vec2::ZERO)
        .build()
}

/// Algorithm 2, `SearchAnnulus(δ₁, δ₂, ρ)`: `SearchCircle(δ₁ + 2iρ)` for
/// `i = 0, …, ⌈(δ₂−δ₁)/(2ρ)⌉`.
///
/// After the sweep, every point of the annulus with radii `[δ₁, δ₂]` has
/// been within distance `ρ` of the robot.
///
/// # Panics
///
/// Panics unless `0 < δ₁ < δ₂` and `ρ > 0`, or if the explicit segment
/// list would be unreasonably large (> 2²⁴ circles) — use the closed-form
/// [`schedule`] API at that scale instead.
pub fn search_annulus(delta1: f64, delta2: f64, rho: f64) -> Path {
    assert!(
        delta1 > 0.0 && delta2 > delta1 && rho > 0.0,
        "SearchAnnulus requires 0 < δ₁ < δ₂ and ρ > 0, got ({delta1}, {delta2}, {rho})"
    );
    let m = times::annulus_steps(delta1, delta2, rho);
    assert!(
        m <= (1 << 24),
        "explicit annulus with {m} circles is too large; use the schedule API"
    );
    let mut b = PathBuilder::at(Vec2::ZERO);
    for i in 0..=m {
        let radius = delta1 + 2.0 * (i as f64) * rho;
        b = b
            .line_to(Vec2::new(radius, 0.0))
            .full_circle(Vec2::ZERO)
            .line_to(Vec2::ZERO);
    }
    b.build()
}

/// Algorithm 3, `Search(k)`: sweep the `2k` dyadic annuli
/// `[2^{j−k}, 2^{j−k+1}]` with granularity `2^{2j−3k−1}` for
/// `j = 0, …, 2k−1`, then wait `3(π+1)(2^k + 2^{−k})` at the start point.
///
/// The explicit path has `Θ(4^k)` segments; this constructor refuses
/// `k > 10` (≈ 4 million segments). Use [`UniversalSearch`] /
/// [`schedule::RoundSchedule`] for closed-form access at any `k`.
///
/// # Panics
///
/// Panics when `k == 0` or `k > 10`.
pub fn search_round(k: u32) -> Path {
    assert!(k >= 1, "Search(k) requires k >= 1");
    assert!(
        k <= 10,
        "explicit Search({k}) would have ~4^{k} segments; use the schedule API"
    );
    let mut b = PathBuilder::at(Vec2::ZERO);
    for j in 0..2 * k {
        let sub = SubRound::new(k, j);
        for i in 0..sub.circle_count() {
            let radius = sub.circle_radius(i);
            b = b
                .line_to(Vec2::new(radius, 0.0))
                .full_circle(Vec2::ZERO)
                .line_to(Vec2::ZERO);
        }
    }
    b.wait(times::round_wait(k)).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;
    use rvz_trajectory::Trajectory;

    #[test]
    fn search_circle_shape() {
        let p = search_circle(1.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.start_position(), Vec2::ZERO);
        assert_eq!(p.end_position(), Vec2::ZERO);
        assert_approx_eq!(p.duration(), times::search_circle_duration(1.0));
        // Mid-arc: the robot is on the circle.
        let mid = p.position(1.0 + std::f64::consts::PI);
        assert_approx_eq!(mid.norm(), 1.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "requires δ > 0")]
    fn search_circle_rejects_zero() {
        let _ = search_circle(0.0);
    }

    #[test]
    fn search_annulus_duration_matches_lemma2() {
        let (d1, d2, rho) = (0.5, 1.0, 0.0625);
        let p = search_annulus(d1, d2, rho);
        assert_approx_eq!(p.duration(), times::search_annulus_duration(d1, d2, rho));
        // m + 1 circles, 3 segments each.
        let m = times::annulus_steps(d1, d2, rho);
        assert_eq!(p.len() as u64, 3 * (m + 1));
    }

    #[test]
    #[should_panic(expected = "SearchAnnulus requires")]
    fn search_annulus_rejects_inverted_radii() {
        let _ = search_annulus(1.0, 0.5, 0.1);
    }

    #[test]
    fn search_round_duration_matches_lemma2() {
        for k in 1..=4 {
            let p = search_round(k);
            assert_approx_eq!(p.duration(), times::round_duration(k), 1e-9);
            assert_eq!(p.end_position(), Vec2::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "requires k >= 1")]
    fn search_round_rejects_zero() {
        let _ = search_round(0);
    }
}
