//! Algorithms 5, 6 and 7: `SearchAll`, `SearchAllRev`, and the universal
//! wait-and-search rendezvous trajectory.
//!
//! Algorithm 7 proceeds in rounds `n = 1, 2, …`:
//!
//! 1. **inactive** — wait at the start point for `2S(n)`;
//! 2. **active** — perform `SearchAll(n)` (rounds `Search(1)…Search(n)` in
//!    order, Algorithm 5) then `SearchAllRev(n)` (the same rounds in
//!    reverse order `Search(n)…Search(1)`, Algorithm 6).
//!
//! Running both the forward and the reversed sweep is what makes the
//! overlap argument of Lemmas 9/10 work in *both* alignment cases
//! (Figure 3): whichever end of the active phase falls inside the other
//! robot's inactive window contains a complete prefix `Search(1..=n*)`
//! (forward) or suffix `Search(n*..=1)` (reverse) — either way the full
//! low-round sweep that finds a stationary robot runs while the other
//! robot actually is stationary.
//!
//! Like Algorithm 4, the trajectory is infinite with Θ(4ⁿ) segments per
//! round, so [`WaitAndSearch`] provides `O(log)` closed-form random
//! access plus an explicit segment stream for cross-checks.

use crate::phases::{PhaseSchedule, MAX_PHASE_ROUND};
use rvz_geometry::Vec2;
use rvz_numerics::pow2i;
use rvz_search::{times, RoundCursor, RoundSchedule};
use rvz_trajectory::monotone::{segment_motion, Cursor, MonotoneGuard, MonotoneTrajectory, Probe};
use rvz_trajectory::{Segment, Trajectory};

/// The Algorithm 7 trajectory (a ZST — the algorithm is parameter-free).
///
/// By Theorem 4 this is the paper's **universal** rendezvous algorithm:
/// it succeeds whenever `τ ≠ 1`, or `v ≠ 1`, or `χ = +1 ∧ φ ≠ 0`,
/// without knowing which.
///
/// # Example
///
/// ```
/// use rvz_core::{WaitAndSearch, PhaseSchedule};
/// use rvz_trajectory::Trajectory;
/// use rvz_geometry::Vec2;
///
/// let algo = WaitAndSearch;
/// // During round 1's inactive phase the robot sits at the origin.
/// assert_eq!(algo.position(0.5 * PhaseSchedule::active_start(1)), Vec2::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WaitAndSearch;

/// Introspection of Algorithm 7 at a time instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm7Phase {
    /// Waiting at the start point (round `n`'s inactive phase).
    Inactive {
        /// The Algorithm 7 round `n`.
        n: u32,
    },
    /// Inside `SearchAll(n)`, currently executing `Search(k)`.
    Forward {
        /// The Algorithm 7 round `n`.
        n: u32,
        /// The `Search(k)` block being executed (`1 ≤ k ≤ n`).
        k: u32,
    },
    /// Inside `SearchAllRev(n)`, currently executing `Search(k)`.
    Reverse {
        /// The Algorithm 7 round `n`.
        n: u32,
        /// The `Search(k)` block being executed (`n ≥ k ≥ 1`).
        k: u32,
    },
}

impl WaitAndSearch {
    /// The `Search(k)` block index inside a `SearchAll(n)` at local time
    /// `u ∈ [0, S(n))`, together with the block's local start time.
    fn forward_block(n: u32, u: f64) -> (u32, f64) {
        debug_assert!(u >= 0.0 && u < PhaseSchedule::search_all_duration(n));
        for k in 1..=n {
            if u < times::rounds_total(k) {
                return (k, times::rounds_total(k - 1));
            }
        }
        // Float drift at the upper edge: clamp to the final block.
        (n, times::rounds_total(n - 1))
    }

    /// The `Search(k)` block inside a `SearchAllRev(n)` at local time
    /// `u ∈ [0, S(n))`: block `k` occupies `[S(n)−F(k), S(n)−F(k−1))`.
    fn reverse_block(n: u32, u: f64) -> (u32, f64) {
        let s_n = PhaseSchedule::search_all_duration(n);
        debug_assert!(u >= 0.0 && u < s_n);
        let remaining = s_n - u;
        for k in 1..=n {
            if times::rounds_total(k) >= remaining {
                return (k, s_n - times::rounds_total(k));
            }
        }
        (n, 0.0)
    }

    /// The segment active at global time `t`, with its global start time.
    ///
    /// Exactly matches the explicit [`WaitAndSearch::segments`] stream
    /// (property-tested) but costs `O(log)` regardless of `t`.
    pub fn segment_at(t: f64) -> (f64, Segment) {
        let n = PhaseSchedule::round_at(t);
        let i_n = PhaseSchedule::inactive_start(n);
        let a_n = PhaseSchedule::active_start(n);
        let s_n = PhaseSchedule::search_all_duration(n);
        if t < a_n {
            return (i_n, Segment::wait(Vec2::ZERO, 2.0 * s_n));
        }
        if t < a_n + s_n {
            // SearchAll(n).
            let u = t - a_n;
            let (k, block_start) = Self::forward_block(n, u);
            let (local_start, seg) = RoundSchedule::new(k).segment_at(u - block_start);
            (a_n + block_start + local_start, seg)
        } else {
            // SearchAllRev(n).
            let rev_start = a_n + s_n;
            let u = t - rev_start;
            let (k, block_start) = Self::reverse_block(n, u);
            let (local_start, seg) = RoundSchedule::new(k).segment_at(u - block_start);
            (rev_start + block_start + local_start, seg)
        }
    }

    /// Which phase and `Search(k)` block is active at global time `t`.
    pub fn locate(t: f64) -> Algorithm7Phase {
        let n = PhaseSchedule::round_at(t);
        let a_n = PhaseSchedule::active_start(n);
        let s_n = PhaseSchedule::search_all_duration(n);
        if t < a_n {
            Algorithm7Phase::Inactive { n }
        } else if t < a_n + s_n {
            let (k, _) = Self::forward_block(n, t - a_n);
            Algorithm7Phase::Forward { n, k }
        } else {
            let (k, _) = Self::reverse_block(n, t - (a_n + s_n));
            Algorithm7Phase::Reverse { n, k }
        }
    }

    /// An upper bound on the robot's distance from its start point
    /// anywhere in the global interval `[t0, t1]` — the closed-form
    /// certificate behind [`WaitAndSearchCursor`]'s swept envelope.
    ///
    /// The bound follows the phase structure top-down. Inactive spans
    /// are exactly `0`. Within `SearchAll(n)` the `Search(k)` blocks
    /// sweep non-decreasing radii, so an interval ending in block `k₁`
    /// is bounded by that block's [`RoundSchedule::reach`] (plus
    /// `2^{k₁−1}` when the interval starts in an earlier block). Within
    /// `SearchAllRev(n)` the blocks *shrink*, so an interval starting in
    /// block `k₀` is bounded by `2^{k₀}`. Intervals spanning the
    /// forward/reverse boundary contain a complete `Search(n)` and are
    /// bounded by `2ⁿ`; intervals spanning rounds add `2^{n₁−1}` for the
    /// completed rounds. Beyond the supported horizon the global
    /// maximum `2^{MAX_PHASE_ROUND}` applies instead of a panic.
    pub fn reach_between(t0: f64, t1: f64) -> f64 {
        let t1 = t1.max(t0);
        if t1 >= PhaseSchedule::inactive_start(MAX_PHASE_ROUND + 1) {
            return pow2i(i64::from(MAX_PHASE_ROUND));
        }
        let n1 = PhaseSchedule::round_at(t1);
        let start1 = PhaseSchedule::inactive_start(n1);
        if t0 >= start1 {
            Self::round_reach_between(n1, t0, t1)
        } else {
            // Rounds before n₁ (n₁ ≥ 2 here) reach at most 2^{n₁−1}.
            Self::round_reach_between(n1, start1, t1).max(pow2i(i64::from(n1) - 1))
        }
    }

    /// [`WaitAndSearch::reach_between`] restricted to one Algorithm 7
    /// round: both times must lie in round `n`.
    fn round_reach_between(n: u32, t0: f64, t1: f64) -> f64 {
        let a_n = PhaseSchedule::active_start(n);
        let s_n = PhaseSchedule::search_all_duration(n);
        if t1 < a_n {
            // Entirely inside the inactive wait: pinned to the start.
            return 0.0;
        }
        let mid = a_n + s_n;
        if t1 < mid {
            // Ends inside SearchAll(n), in forward block k₁.
            let u1 = t1 - a_n;
            let (k1, f_km1) = Self::forward_block(n, u1);
            let block_reach = RoundSchedule::new(k1).reach(u1 - f_km1);
            let same_block = t0 >= a_n && {
                let (k0, _) = Self::forward_block(n, (t0 - a_n).min(u1));
                k0 == k1
            };
            if same_block || k1 == 1 {
                block_reach
            } else {
                block_reach.max(pow2i(i64::from(k1) - 1))
            }
        } else {
            // Ends inside SearchAllRev(n), in reverse block k₁.
            let u1 = t1 - mid;
            let (k1, block_start) = Self::reverse_block(n, u1);
            if t0 < mid {
                // The interval contains the forward/reverse boundary and
                // with it a complete Search(n).
                return pow2i(i64::from(n));
            }
            let u0 = (t0 - mid).min(u1);
            let (k0, _) = Self::reverse_block(n, u0);
            if k0 == k1 {
                RoundSchedule::new(k1).reach(u1 - block_start)
            } else {
                // Block k₀ runs to completion inside the interval and
                // dominates every later (smaller) block.
                pow2i(i64::from(k0))
            }
        }
    }

    /// Explicit segment stream for rounds `1..=max_n` (Θ(4ⁿ) items per
    /// round — tests and small demos only).
    ///
    /// # Panics
    ///
    /// Panics when `max_n` exceeds [`MAX_PHASE_ROUND`].
    pub fn segments(max_n: u32) -> impl Iterator<Item = Segment> {
        assert!(max_n <= MAX_PHASE_ROUND, "max_n {max_n} too large");
        (1..=max_n).flat_map(|n| {
            let wait = std::iter::once(Segment::wait(
                Vec2::ZERO,
                2.0 * PhaseSchedule::search_all_duration(n),
            ));
            let forward =
                (1..=n).flat_map(|k| RoundSchedule::new(k).segments().collect::<Vec<_>>());
            let reverse = (1..=n)
                .rev()
                .flat_map(|k| RoundSchedule::new(k).segments().collect::<Vec<_>>());
            wait.chain(forward).chain(reverse)
        })
    }
}

impl Trajectory for WaitAndSearch {
    fn position(&self, t: f64) -> Vec2 {
        let (start, seg) = Self::segment_at(t);
        seg.position_at(t - start)
    }

    fn speed_bound(&self) -> f64 {
        1.0
    }
}

/// The phase-block a [`WaitAndSearchCursor`] is currently inside, with
/// the data needed to index segments within it without re-deriving the
/// round decomposition.
#[derive(Debug, Clone, Copy)]
enum CursorBlock {
    /// Round `n`'s inactive wait, `[I(n), A(n))`.
    Inactive,
    /// `Search(k)` inside `SearchAll(n)`: local times
    /// `[F(k−1), F(k))` relative to `A(n)`.
    Forward { k: u32, f_km1: f64, f_k: f64 },
    /// `Search(k)` inside `SearchAllRev(n)`: local times
    /// `[S(n)−F(k), S(n)−F(k−1))` relative to `A(n)+S(n)`.
    Reverse { k: u32, f_km1: f64, f_k: f64 },
}

/// The [`MonotoneTrajectory`] cursor of [`WaitAndSearch`].
///
/// Caches three nested levels — the Algorithm 7 round `n`, the active
/// `(n, k)` `Search(k)` block with its [`RoundSchedule`], and the active
/// segment with its global span — and refreshes only the levels a query
/// actually crosses. A probe inside the cached segment is O(1); the
/// linear `round_at`/`forward_block` scans of the random-access path run
/// only on block transitions.
#[derive(Debug, Clone)]
pub struct WaitAndSearchCursor {
    /// Algorithm 7 round `n ≥ 1`.
    n: u32,
    /// `A(n)` — global start of round `n`'s active phase.
    active_start: f64,
    /// `S(n)` — duration of `SearchAll(n)`.
    search_all: f64,
    /// `I(n+1)` — global end of round `n`.
    round_end: f64,
    block: CursorBlock,
    /// Sequential pointer into the active `Search(k)` block, keyed by
    /// `(n, phase, k)` so any block change rebuilds it; blocks are
    /// visited in order, so within a block every segment transition is
    /// an O(1) hop instead of two binary searches.
    block_cursor: Option<(u64, RoundCursor)>,
    /// Active segment with its global span.
    segment: Segment,
    segment_start: f64,
    segment_end: f64,
    guard: MonotoneGuard,
}

/// Cache key for the sequential block pointer.
fn block_key(n: u32, phase: u8, k: u32) -> u64 {
    ((n as u64) << 16) | ((phase as u64) << 8) | k as u64
}

impl WaitAndSearchCursor {
    fn new() -> Self {
        let mut cursor = WaitAndSearchCursor {
            n: 1,
            active_start: 0.0,
            search_all: 0.0,
            round_end: 0.0,
            block: CursorBlock::Inactive,
            block_cursor: None,
            segment: Segment::wait(Vec2::ZERO, 0.0),
            segment_start: 0.0,
            // Sentinel forcing a refresh on the first probe.
            segment_end: -1.0,
            guard: MonotoneGuard::default(),
        };
        cursor.enter_round(1);
        cursor.segment_end = -1.0;
        cursor
    }

    fn enter_round(&mut self, n: u32) {
        self.n = n;
        self.active_start = PhaseSchedule::active_start(n);
        self.search_all = PhaseSchedule::search_all_duration(n);
        self.round_end = PhaseSchedule::round_end(n);
        self.block = CursorBlock::Inactive;
        self.segment = Segment::wait(Vec2::ZERO, 2.0 * self.search_all);
        self.segment_start = PhaseSchedule::inactive_start(n);
        self.segment_end = self.active_start;
    }

    /// Re-derives block and segment caches so the query time `t` lies in
    /// `[segment_start, segment_end)` (modulo ulp slack at phase edges,
    /// where evaluation still clamps correctly).
    fn refresh(&mut self, t: f64) {
        // Advance rounds incrementally; equivalent to `round_at` because
        // queries are non-decreasing.
        while t >= self.round_end {
            assert!(
                self.n < MAX_PHASE_ROUND,
                "time {t} beyond the supported horizon {}",
                PhaseSchedule::inactive_start(MAX_PHASE_ROUND + 1)
            );
            self.enter_round(self.n + 1);
        }
        if t < self.active_start {
            // Round n's inactive wait (`enter_round` cached it already,
            // but a fresh query can also re-enter here after a sentinel).
            self.block = CursorBlock::Inactive;
            self.segment = Segment::wait(Vec2::ZERO, 2.0 * self.search_all);
            self.segment_start = PhaseSchedule::inactive_start(self.n);
            self.segment_end = self.active_start;
            return;
        }
        // Same block decomposition (and, crucially, the same floating-
        // point expressions) as `WaitAndSearch::segment_at`, cached.
        let (k, phase, w, block_global_start, block_global_end) =
            if t < self.active_start + self.search_all {
                let u = t - self.active_start;
                let (k, f_km1) = WaitAndSearch::forward_block(self.n, u);
                let f_k = times::rounds_total(k);
                self.block = CursorBlock::Forward { k, f_km1, f_k };
                (
                    k,
                    1,
                    u - f_km1,
                    self.active_start + f_km1,
                    self.active_start + f_k,
                )
            } else {
                let rev_start = self.active_start + self.search_all;
                let u = t - rev_start;
                let (k, block_start) = WaitAndSearch::reverse_block(self.n, u);
                let f_km1 = times::rounds_total(k - 1);
                let f_k = times::rounds_total(k);
                self.block = CursorBlock::Reverse { k, f_km1, f_k };
                (
                    k,
                    2,
                    u - block_start,
                    rev_start + block_start,
                    rev_start + (self.search_all - f_km1),
                )
            };
        // Independently rounded closed forms can disagree by an ulp at a
        // block edge; clamp strictly inside the round (the edge time sits
        // in the terminal wait, whose position the clamp preserves).
        let w = w.clamp(0.0, times::round_duration(k) * (1.0 - f64::EPSILON));
        let (local_start, seg) = self.block_segment_at(phase, k, w);
        self.segment = seg;
        self.segment_start = block_global_start + local_start;
        self.segment_end = (self.segment_start + seg.duration()).min(block_global_end);
    }

    /// Looks up a segment within the active `Search(k)` block through the
    /// sequential pointer, rebuilding it when the block changed.
    fn block_segment_at(&mut self, phase: u8, k: u32, w: f64) -> (f64, Segment) {
        let key = block_key(self.n, phase, k);
        match &mut self.block_cursor {
            Some((cached, rc)) if *cached == key => rc.segment_at(w),
            slot => {
                *slot = Some((key, RoundCursor::new(k)));
                slot.as_mut().expect("just installed").1.segment_at(w)
            }
        }
    }

    /// Refreshes only the segment when the query stays inside the cached
    /// `(n, k)` block, avoiding the block scans.
    fn refresh_segment_within_block(&mut self, t: f64) -> bool {
        if t >= self.round_end {
            return false;
        }
        let (k, phase, block_global_start, block_global_end) = match self.block {
            CursorBlock::Inactive => return false,
            CursorBlock::Forward { k, f_km1, f_k } => {
                let u = t - self.active_start;
                if !(u >= f_km1 && u < f_k && t < self.active_start + self.search_all) {
                    return false;
                }
                (k, 1, self.active_start + f_km1, self.active_start + f_k)
            }
            CursorBlock::Reverse { k, f_km1, f_k } => {
                let rev_start = self.active_start + self.search_all;
                let u = t - rev_start;
                if !(u >= 0.0 && u >= self.search_all - f_k && u < self.search_all - f_km1) {
                    return false;
                }
                (
                    k,
                    2,
                    rev_start + (self.search_all - f_k),
                    rev_start + (self.search_all - f_km1),
                )
            }
        };
        let local = (t - block_global_start).max(0.0);
        if local >= times::round_duration(k) {
            return false;
        }
        let (local_start, seg) = self.block_segment_at(phase, k, local);
        self.segment = seg;
        self.segment_start = block_global_start + local_start;
        self.segment_end = (self.segment_start + seg.duration()).min(block_global_end);
        true
    }
}

impl Cursor for WaitAndSearchCursor {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        if t >= self.segment_end && !self.refresh_segment_within_block(t) {
            self.refresh(t);
        }
        let u = t - self.segment_start;
        Probe {
            position: self.segment.position_at(u),
            piece_end: self.segment_end,
            motion: segment_motion(&self.segment, u),
        }
    }

    fn speed_bound(&self) -> f64 {
        1.0
    }

    /// Two tiers, mirroring [`crate::WaitAndSearch::segment_at`]'s
    /// decomposition: inside the cached segment the exact chunk disk,
    /// otherwise the origin-centered phase-hierarchy bound
    /// [`WaitAndSearch::reach_between`] (inactive phases collapse to a
    /// point, whole `Search(k)` blocks to their sweep radius).
    fn envelope(&mut self, t0: f64, t1: f64) -> rvz_geometry::Disk {
        if t0 >= self.segment_start && t1 <= self.segment_end {
            return self
                .segment
                .chunk_disk(t0 - self.segment_start, t1 - self.segment_start);
        }
        rvz_geometry::Disk::new(Vec2::ZERO, WaitAndSearch::reach_between(t0, t1))
    }

    /// The closed-form clearance. The robot's `Search(k)` blocks are
    /// strung along the phase schedule ([`PhaseSchedule::search_blocks`],
    /// as [`crate::analytic::stationary_contact_time`] strings them),
    /// each answered by [`rvz_search::first_visit_in_round`]. The
    /// inactive waits sit at the origin, so a disk holding the origin
    /// answers `t0`, as does a query past the supported horizon.
    /// Stateless.
    fn first_visit(&mut self, t0: f64, t1: f64, center: Vec2, radius: f64) -> f64 {
        let horizon = PhaseSchedule::inactive_start(MAX_PHASE_ROUND + 1);
        if t1.is_nan() || t1 <= t0 || t0 >= horizon || center.norm() <= radius {
            return t0;
        }
        let reach = center.norm() - radius;
        for n in PhaseSchedule::round_at(t0)..=MAX_PHASE_ROUND {
            if PhaseSchedule::inactive_start(n) >= t1 {
                return t1;
            }
            for (k, start) in PhaseSchedule::search_blocks(n) {
                if start >= t1 {
                    return t1;
                }
                // Blocks already over, and blocks whose sweep cannot
                // reach the disk, are skipped without enumeration.
                if t0 - start >= times::round_duration(k) || reach > pow2i(i64::from(k)) {
                    continue;
                }
                if let Some(s) = rvz_search::first_visit_in_round(k, start, center, radius, t0) {
                    return s.min(t1);
                }
            }
        }
        t0
    }
}

impl MonotoneTrajectory for WaitAndSearch {
    type Cursor<'a> = WaitAndSearchCursor;

    fn cursor(&self) -> WaitAndSearchCursor {
        WaitAndSearchCursor::new()
    }
}

impl rvz_trajectory::Compile for WaitAndSearch {
    /// Phase edges and `Search(k)` block starts — the Algorithm 7
    /// hierarchy the compiled engine seeds its pruning windows with.
    fn round_marks(&self, horizon: f64) -> Vec<f64> {
        let mut marks = Vec::new();
        for n in 1..=MAX_PHASE_ROUND {
            let i_n = PhaseSchedule::inactive_start(n);
            if i_n > horizon {
                break;
            }
            marks.push(i_n);
            let a_n = PhaseSchedule::active_start(n);
            if a_n > horizon {
                continue;
            }
            let s_n = PhaseSchedule::search_all_duration(n);
            for k in 1..=n {
                // Forward block Search(k) starts at A(n) + F(k−1); its
                // reverse twin starts at A(n) + S(n) + (S(n) − F(k)).
                marks.push(a_n + times::rounds_total(k - 1));
                marks.push(a_n + s_n + (s_n - times::rounds_total(k)));
            }
            marks.push(a_n + s_n);
        }
        marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;
    use rvz_trajectory::StreamCursor;

    #[test]
    fn inactive_phase_is_at_origin() {
        let algo = WaitAndSearch;
        // All of [0, A(1)) is waiting.
        let a1 = PhaseSchedule::active_start(1);
        for f in [0.0, 0.3, 0.9] {
            assert_eq!(algo.position(f * a1), Vec2::ZERO);
        }
        assert_eq!(
            WaitAndSearch::locate(0.5 * a1),
            Algorithm7Phase::Inactive { n: 1 }
        );
    }

    #[test]
    fn forward_blocks_run_in_increasing_order() {
        // In round 3's SearchAll the blocks are Search(1), Search(2), Search(3).
        let a3 = PhaseSchedule::active_start(3);
        let mut seen = Vec::new();
        for k in 1..=3u32 {
            let t = a3 + times::rounds_total(k - 1) + 1.0;
            match WaitAndSearch::locate(t) {
                Algorithm7Phase::Forward { n: 3, k: found } => seen.push(found),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn reverse_blocks_run_in_decreasing_order() {
        let n = 3u32;
        let rev_start = PhaseSchedule::active_start(n) + PhaseSchedule::search_all_duration(n);
        let s_n = PhaseSchedule::search_all_duration(n);
        let mut seen = Vec::new();
        for k in (1..=n).rev() {
            // Block k occupies [S(n)−F(k), S(n)−F(k−1)); sample just inside.
            let u = s_n - times::rounds_total(k) + 1.0;
            match WaitAndSearch::locate(rev_start + u) {
                Algorithm7Phase::Reverse { n: 3, k: found } => seen.push(found),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![3, 2, 1]);
    }

    #[test]
    fn reverse_phase_ends_exactly_at_round_end() {
        // The last reverse block (Search(1)) must finish at I(n+1).
        let n = 2u32;
        let end = PhaseSchedule::round_end(n);
        let algo = WaitAndSearch;
        // Just before the end the robot is finishing Search(1)'s wait at origin.
        let p = algo.position(end * (1.0 - 1e-12));
        assert!(p.norm() < 1e-6);
        // Exactly at the end, round n+1's inactive phase begins (origin too).
        assert_eq!(algo.position(end), Vec2::ZERO);
    }

    /// The closed-form random access agrees with the explicit stream for
    /// the first three rounds — validating the forward/reverse indexing.
    #[test]
    fn random_access_matches_stream() {
        let algo = WaitAndSearch;
        let horizon = PhaseSchedule::round_end(3);
        let mut cursor = StreamCursor::new(WaitAndSearch::segments(3));
        let n = 3000;
        for i in 0..n {
            let t = horizon * (i as f64) / (n as f64);
            let direct = algo.position(t);
            let streamed = cursor.position(t);
            assert!(
                direct.distance(streamed) < 1e-6,
                "mismatch at t={t}: {direct} vs {streamed}"
            );
        }
    }

    /// The cursor must agree with the closed-form random access over a
    /// dense grid spanning rounds 1–3, including every phase transition.
    #[test]
    fn cursor_matches_random_access() {
        use rvz_trajectory::monotone::{Cursor as _, MonotoneTrajectory as _};
        let algo = WaitAndSearch;
        let mut cursor = algo.cursor();
        let horizon = PhaseSchedule::round_end(3);
        let n = 6000;
        for i in 0..=n {
            let t = horizon * (i as f64) / (n as f64);
            let p = cursor.probe(t);
            let direct = algo.position(t);
            assert!(
                p.position.distance(direct) < 1e-9,
                "mismatch at t={t}: {} vs {direct}",
                p.position
            );
            assert!(p.piece_end > t, "stale piece end at t={t}");
        }
    }

    /// Queries pinned inside one `Search(k)` block must reuse the cached
    /// block (exercised implicitly: correctness across many queries that
    /// alternate short and long strides).
    #[test]
    fn cursor_survives_irregular_strides() {
        use rvz_trajectory::monotone::{Cursor as _, MonotoneTrajectory as _};
        let algo = WaitAndSearch;
        let mut cursor = algo.cursor();
        let mut t = 0.0;
        let horizon = PhaseSchedule::round_end(2);
        let mut stride = 0.013;
        while t < horizon {
            let p = cursor.probe(t);
            let direct = algo.position(t);
            assert!(p.position.distance(direct) < 1e-9, "mismatch at t={t}");
            // Alternate tiny and large strides to hit both cache paths.
            stride = if stride < 1.0 { stride * 17.0 } else { 0.013 };
            t += stride;
        }
    }

    #[test]
    fn stream_duration_matches_schedule() {
        for max_n in 1..=3u32 {
            let total: f64 = WaitAndSearch::segments(max_n).map(|s| s.duration()).sum();
            assert_approx_eq!(total, PhaseSchedule::round_end(max_n), 1e-9);
        }
    }

    #[test]
    fn active_phase_midpoint_symmetry() {
        // SearchAll(n) and SearchAllRev(n) have equal durations, so the
        // active phase midpoint is the forward/reverse boundary.
        let n = 2u32;
        let a = PhaseSchedule::active_start(n);
        let s = PhaseSchedule::search_all_duration(n);
        match WaitAndSearch::locate(a + s - 1.0) {
            Algorithm7Phase::Forward { k, .. } => assert_eq!(k, n),
            other => panic!("unexpected {other:?}"),
        }
        match WaitAndSearch::locate(a + s + 1.0) {
            Algorithm7Phase::Reverse { k, .. } => assert_eq!(k, n),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reach_between_bounds_dense_samples() {
        let algo = WaitAndSearch;
        let horizon = PhaseSchedule::round_end(3);
        let mut state = 0xD1B54A32D192ED03_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1_u64 << 53) as f64
        };
        for _ in 0..300 {
            let a = next() * horizon;
            let b = next() * horizon;
            let (t0, t1) = if a <= b { (a, b) } else { (b, a) };
            let bound = WaitAndSearch::reach_between(t0, t1);
            for i in 0..=40 {
                let t = t0 + (t1 - t0) * i as f64 / 40.0;
                let r = algo.position(t).norm();
                assert!(
                    r <= bound + 1e-9,
                    "|pos({t})| = {r} > bound {bound} for [{t0}, {t1}]"
                );
            }
        }
    }

    #[test]
    fn reach_between_is_tight_on_structure() {
        // Entirely inside an inactive wait: a point certificate.
        let n = 3;
        let (i_n, a_n) = PhaseSchedule::inactive_interval(n);
        assert_eq!(
            WaitAndSearch::reach_between(i_n + 1.0, a_n - 1.0),
            0.0,
            "inactive phase must have zero reach"
        );
        // An interval inside the first forward block of SearchAll(3)
        // must be bounded by Search(1)'s sweep, not the round's.
        let bound = WaitAndSearch::reach_between(a_n, a_n + 1.0);
        assert!(bound <= 2.0, "early forward block bound {bound}");
        // Crossing the forward/reverse midpoint costs the full 2^n.
        let mid = a_n + PhaseSchedule::search_all_duration(n);
        assert_eq!(WaitAndSearch::reach_between(mid - 1.0, mid + 1.0), 8.0);
    }

    #[test]
    fn cursor_envelope_contains_positions() {
        use rvz_trajectory::monotone::{Cursor as _, MonotoneTrajectory as _};
        let algo = WaitAndSearch;
        let mut cursor = algo.cursor();
        let horizon = PhaseSchedule::round_end(2);
        let mut t0 = 0.0;
        while t0 < horizon {
            let t1 = (t0 + 13.7).min(horizon);
            let disk = cursor.envelope(t0, t1);
            for i in 0..=20 {
                let t = t0 + (t1 - t0) * i as f64 / 20.0;
                assert!(
                    disk.contains(algo.position(t), 1e-9),
                    "envelope [{t0}, {t1}] misses t={t}"
                );
            }
            t0 += 29.3;
        }
    }

    #[test]
    fn unit_speed_over_phase_boundaries() {
        let algo = WaitAndSearch;
        let dt = 0.05;
        // Sample across the round-1 → round-2 boundary region.
        let start = PhaseSchedule::active_start(1);
        let mut prev = algo.position(start);
        let mut t = start;
        while t < PhaseSchedule::active_start(2) + 50.0 {
            t += dt;
            let cur = algo.position(t);
            assert!(prev.distance(cur) <= dt + 1e-9, "speed violated at t={t}");
            prev = cur;
        }
    }
}
