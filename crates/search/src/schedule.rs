//! Closed-form indexing into the dyadic search schedule.
//!
//! `Search(k)` (Algorithm 3) traverses, for each sub-round `j < 2k`, the
//! circles of radius `δ_{j,k} + 2iρ_{j,k}` for `i = 0…2^{2k−j}` — about
//! `4^k` segments per round. [`SubRound`] and [`RoundSchedule`] expose
//! that structure *without materializing it*: every circle radius, start
//! time and index is an exact closed form, and the segment active at any
//! local time is found by binary search over those closed forms.

use crate::times;
use rvz_geometry::Vec2;

use rvz_trajectory::Segment;

/// One annulus sweep: sub-round `j` of `Search(k)`.
///
/// # Example
///
/// ```
/// use rvz_search::SubRound;
///
/// let sub = SubRound::new(3, 2); // k = 3, j = 2
/// assert_eq!(sub.inner_radius(), 0.5);
/// assert_eq!(sub.outer_radius(), 1.0);
/// assert_eq!(sub.circle_count(), 17); // 2^{2·3−2} + 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubRound {
    k: u32,
    j: u32,
}

impl SubRound {
    /// Creates the sub-round `j` of round `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ MAX_ROUND` and `j < 2k`.
    pub fn new(k: u32, j: u32) -> Self {
        // Validation is delegated to the times module.
        let _ = times::inner_radius(k, j);
        SubRound { k, j }
    }

    /// The round index `k`.
    pub fn round(&self) -> u32 {
        self.k
    }

    /// The sub-round index `j`.
    pub fn index(&self) -> u32 {
        self.j
    }

    /// Inner radius `δ_{j,k} = 2^{j−k}`.
    pub fn inner_radius(&self) -> f64 {
        times::inner_radius(self.k, self.j)
    }

    /// Outer radius `δ_{j+1,k} = 2^{j−k+1}`.
    pub fn outer_radius(&self) -> f64 {
        times::outer_radius(self.k, self.j)
    }

    /// Granularity `ρ_{j,k} = 2^{2j−3k−1}`.
    pub fn granularity(&self) -> f64 {
        times::granularity(self.k, self.j)
    }

    /// Number of circles traversed: `m + 1` with `m = 2^{2k−j}` (the
    /// dyadic parameters make the paper's ceiling exact).
    pub fn circle_count(&self) -> u64 {
        (1_u64 << (2 * self.k - self.j)) + 1
    }

    /// Radius of circle `i`: `δ_{j,k} + 2iρ_{j,k}`.
    ///
    /// # Panics
    ///
    /// Panics when `i ≥ circle_count()`.
    pub fn circle_radius(&self, i: u64) -> f64 {
        assert!(i < self.circle_count(), "circle index {i} out of range");
        self.inner_radius() + 2.0 * i as f64 * self.granularity()
    }

    /// Local start time of circle `i` within this sub-round:
    /// `Σ_{l<i} 2(π+1)·radius(l) = 2(π+1)(i·δ + i(i−1)ρ)`.
    ///
    /// `i = circle_count()` is allowed and yields the sub-round duration.
    pub fn circle_start(&self, i: u64) -> f64 {
        assert!(i <= self.circle_count(), "circle index {i} out of range");
        let i = i as f64;
        2.0 * times::PI_PLUS_1 * (i * self.inner_radius() + i * (i - 1.0) * self.granularity())
    }

    /// Duration of this sub-round, `3(π+1)(2^{j−k} + 2^k)`.
    pub fn duration(&self) -> f64 {
        times::subround_duration(self.k, self.j)
    }

    /// Local start time of this sub-round within its round.
    pub fn start_within_round(&self) -> f64 {
        times::subround_start(self.k, self.j)
    }

    /// The circle being traversed at local sub-round time `w`, by binary
    /// search over the closed-form [`SubRound::circle_start`] times.
    ///
    /// # Panics
    ///
    /// Panics when `w` is negative or at/after the sub-round's end.
    pub fn circle_index_at(&self, w: f64) -> u64 {
        assert!(
            w >= 0.0 && w < self.duration(),
            "local time {w} outside sub-round of duration {}",
            self.duration()
        );
        let mut lo = 0_u64;
        let mut hi = self.circle_count() - 1;
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.circle_start(mid) <= w {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// The full `Search(k)` schedule: `2k` sub-rounds followed by a wait.
///
/// # Example
///
/// ```
/// use rvz_search::RoundSchedule;
/// use rvz_trajectory::Segment;
///
/// let round = RoundSchedule::new(2);
/// // At local time 0 the robot is heading out to the innermost circle.
/// let (start, seg) = round.segment_at(0.0);
/// assert_eq!(start, 0.0);
/// assert!(matches!(seg, Segment::Line { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundSchedule {
    k: u32,
}

/// Which leg of a `SearchCircle` traversal is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircleLeg {
    /// Moving from the origin out to `(δ, 0)`.
    Outbound,
    /// Traversing the circle counter-clockwise.
    Sweep,
    /// Returning from `(δ, 0)` to the origin.
    Inbound,
}

/// Introspective position within a round (see [`RoundSchedule::locate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundPhase {
    /// Inside sub-round `j`, circle `i`, on the given leg.
    SubRound {
        /// Sub-round index `j < 2k`.
        j: u32,
        /// Circle index within the sub-round.
        circle: u64,
        /// Radius of that circle.
        radius: f64,
        /// Which third of the SearchCircle traversal.
        leg: CircleLeg,
    },
    /// The terminal wait at the origin.
    Wait,
}

impl RoundSchedule {
    /// Creates the schedule for `Search(k)`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ MAX_ROUND`.
    pub fn new(k: u32) -> Self {
        let _ = times::round_duration(k);
        RoundSchedule { k }
    }

    /// The round index `k`.
    pub fn round(&self) -> u32 {
        self.k
    }

    /// Total round duration `3(π+1)(k+1)·2^{k+1}`.
    pub fn duration(&self) -> f64 {
        times::round_duration(self.k)
    }

    /// Start of the terminal wait (= total duration of the `2k` sub-rounds).
    pub fn wait_start(&self) -> f64 {
        times::subround_start(self.k, 2 * self.k)
    }

    /// The sub-round active at local round time `u`, or `None` during the
    /// terminal wait.
    ///
    /// # Panics
    ///
    /// Panics when `u` is negative or at/after the round's end.
    pub fn subround_index_at(&self, u: f64) -> Option<u32> {
        assert!(
            u >= 0.0 && u < self.duration(),
            "local time {u} outside round of duration {}",
            self.duration()
        );
        if u >= self.wait_start() {
            return None;
        }
        // Binary search over the closed-form sub-round start times.
        let mut lo = 0_u32;
        let mut hi = 2 * self.k - 1;
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if times::subround_start(self.k, mid) <= u {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// The segment active at local round time `u ∈ [0, duration)`, with
    /// its local start time. The segment geometry is identical to what the
    /// explicit stream ([`RoundSchedule::segments`]) produces at that
    /// time, but found in `O(log)` instead of by enumeration.
    pub fn segment_at(&self, u: f64) -> (f64, Segment) {
        match self.subround_index_at(u) {
            None => {
                let start = self.wait_start();
                (start, Segment::wait(Vec2::ZERO, times::round_wait(self.k)))
            }
            Some(j) => {
                let sub = SubRound::new(self.k, j);
                let sub_start = sub.start_within_round();
                let w = u - sub_start;
                let i = sub.circle_index_at(w);
                let circle_start = sub_start + sub.circle_start(i);
                let radius = sub.circle_radius(i);
                let x = u - circle_start;
                let tau = std::f64::consts::TAU;
                if x < radius {
                    (
                        circle_start,
                        Segment::line(Vec2::ZERO, Vec2::new(radius, 0.0)),
                    )
                } else if x < radius + radius * tau {
                    (
                        circle_start + radius,
                        Segment::full_circle(Vec2::ZERO, radius, 0.0),
                    )
                } else {
                    (
                        circle_start + radius + radius * tau,
                        Segment::line(Vec2::new(radius, 0.0), Vec2::ZERO),
                    )
                }
            }
        }
    }

    /// The largest radius swept anywhere in this round:
    /// `δ_{2k,k} = 2^k` (the outer radius of the last sub-round).
    pub fn max_radius(&self) -> f64 {
        times::outer_radius(self.k, 2 * self.k - 1)
    }

    /// An upper bound on the robot's distance from the origin over the
    /// whole local interval `[0, u]` — the round level of the
    /// swept-envelope hierarchy.
    ///
    /// Exactness comes from the schedule's monotone structure: circle
    /// radii are non-decreasing within a sub-round, and each sub-round's
    /// first circle equals the previous sub-round's outer radius, so the
    /// radius of the circle active at `u` bounds everything before it
    /// (legs and waits stay inside it: every `SearchCircle(δ)` traversal
    /// is contained in the disk of radius `δ` around the origin).
    ///
    /// `u` is clamped to the round; at/after the terminal wait this is
    /// [`RoundSchedule::max_radius`]. Cost: the two closed-form binary
    /// searches of [`RoundSchedule::segment_at`], no enumeration.
    pub fn reach(&self, u: f64) -> f64 {
        if u < 0.0 {
            return 0.0;
        }
        let u = u.min(self.duration() * (1.0 - f64::EPSILON));
        match self.subround_index_at(u) {
            None => self.max_radius(),
            Some(j) => {
                let sub = SubRound::new(self.k, j);
                sub.circle_radius(sub.circle_index_at(u - sub.start_within_round()))
            }
        }
    }

    /// Rich introspection of the phase active at local time `u`.
    pub fn locate(&self, u: f64) -> RoundPhase {
        match self.subround_index_at(u) {
            None => RoundPhase::Wait,
            Some(j) => {
                let sub = SubRound::new(self.k, j);
                let w = u - sub.start_within_round();
                let i = sub.circle_index_at(w);
                let radius = sub.circle_radius(i);
                let x = w - sub.circle_start(i);
                let leg = if x < radius {
                    CircleLeg::Outbound
                } else if x < radius * (1.0 + std::f64::consts::TAU) {
                    CircleLeg::Sweep
                } else {
                    CircleLeg::Inbound
                };
                RoundPhase::SubRound {
                    j,
                    circle: i,
                    radius,
                    leg,
                }
            }
        }
    }

    /// Explicit segment stream for this round (3 segments per circle plus
    /// the terminal wait). Θ(4^k) items — intended for tests and small `k`.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let k = self.k;
        (0..2 * k)
            .flat_map(move |j| {
                let sub = SubRound::new(k, j);
                (0..sub.circle_count()).flat_map(move |i| {
                    let radius = sub.circle_radius(i);
                    [
                        Segment::line(Vec2::ZERO, Vec2::new(radius, 0.0)),
                        Segment::full_circle(Vec2::ZERO, radius, 0.0),
                        Segment::line(Vec2::new(radius, 0.0), Vec2::ZERO),
                    ]
                })
            })
            .chain(std::iter::once(Segment::wait(
                Vec2::ZERO,
                times::round_wait(k),
            )))
    }
}

/// A forward-only pointer into one round's segment sequence.
///
/// The engine's cursors visit a round's segments *in order* (piece after
/// piece), yet [`RoundSchedule::segment_at`] re-runs its two binary
/// searches from scratch on every transition. `RoundCursor` caches the
/// `(sub-round, circle, leg)` coordinates of the active segment and hops
/// to the next leg/circle/sub-round in O(1) closed-form arithmetic,
/// falling back to the binary search only when a query leaps past
/// several segments at once. Every boundary it produces comes from the
/// same closed forms as `segment_at`, so the two agree bit-for-bit.
#[derive(Debug, Clone)]
pub struct RoundCursor {
    schedule: RoundSchedule,
    segment: Segment,
    /// Local [start, end) of the cached segment.
    start: f64,
    end: f64,
    /// Sub-round of the cached segment; `== 2k` once in the final wait.
    j: u32,
    /// Circle within the sub-round.
    i: u64,
    /// 0 = outbound leg, 1 = circle sweep, 2 = inbound leg.
    leg: u8,
    /// Local start of circle `i` (sub-round start + circle offset).
    circle_base: f64,
    radius: f64,
}

/// Sequential hops attempted before falling back to binary search.
const MAX_HOPS: u32 = 8;

impl RoundCursor {
    /// A cursor over `Search(k)`, positioned before the first segment.
    pub fn new(k: u32) -> Self {
        let mut cursor = RoundCursor {
            schedule: RoundSchedule::new(k),
            segment: Segment::wait(Vec2::ZERO, 0.0),
            start: 0.0,
            // Sentinel: the first query always refreshes.
            end: -1.0,
            j: 0,
            i: 0,
            leg: 0,
            circle_base: 0.0,
            radius: 0.0,
        };
        cursor.seek(0.0);
        cursor
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &RoundSchedule {
        &self.schedule
    }

    /// The segment active at local time `u ∈ [0, duration)` with its
    /// local start time — the forward-friendly [`RoundSchedule::segment_at`].
    ///
    /// Queries may move forward arbitrarily (backward queries within the
    /// cached segment are also fine); cost is O(1) per segment visited
    /// in order.
    pub fn segment_at(&mut self, u: f64) -> (f64, Segment) {
        if u >= self.end {
            let mut hops = 0;
            loop {
                if hops >= MAX_HOPS {
                    self.seek(u);
                    break;
                }
                self.hop();
                hops += 1;
                if u < self.end {
                    break;
                }
            }
        }
        (self.start, self.segment)
    }

    /// Rebuilds the cached coordinates via the binary searches.
    fn seek(&mut self, u: f64) {
        let k = self.schedule.round();
        match self.schedule.subround_index_at(u) {
            None => {
                self.j = 2 * k;
                self.set_wait();
            }
            Some(j) => {
                let sub = SubRound::new(k, j);
                let sub_start = sub.start_within_round();
                let i = sub.circle_index_at(u - sub_start);
                self.j = j;
                self.i = i;
                self.circle_base = sub_start + sub.circle_start(i);
                self.radius = sub.circle_radius(i);
                // The same floating-point boundary expressions as
                // `segment_at` (`r` then `r + r*tau`), so seek and the
                // binary search never disagree, even by an ulp.
                let x = u - self.circle_base;
                let tau = std::f64::consts::TAU;
                self.leg = if x < self.radius {
                    0
                } else if x < self.radius + self.radius * tau {
                    1
                } else {
                    2
                };
                self.set_leg();
            }
        }
    }

    /// Advances to the next segment in schedule order.
    fn hop(&mut self) {
        let k = self.schedule.round();
        if self.j >= 2 * k {
            // Already in (or past) the terminal wait: stay there.
            self.set_wait();
            return;
        }
        if self.leg < 2 {
            self.leg += 1;
            self.set_leg();
            return;
        }
        // Finished a circle: next circle, next sub-round, or the wait.
        let sub = SubRound::new(k, self.j);
        if self.i + 1 < sub.circle_count() {
            self.i += 1;
            self.circle_base = sub.start_within_round() + sub.circle_start(self.i);
            self.radius = sub.circle_radius(self.i);
        } else if self.j + 1 < 2 * k {
            self.j += 1;
            let next = SubRound::new(k, self.j);
            self.i = 0;
            self.circle_base = next.start_within_round();
            self.radius = next.circle_radius(0);
        } else {
            self.j = 2 * k;
            self.set_wait();
            return;
        }
        self.leg = 0;
        self.set_leg();
    }

    /// Installs the cached circle's current leg as the active segment.
    ///
    /// Start times use the *same floating-point expressions* as
    /// [`RoundSchedule::segment_at`] (left-associated sums off the
    /// circle base), so sequential hops agree with the binary search
    /// bit-for-bit.
    fn set_leg(&mut self) {
        let r = self.radius;
        let tau = std::f64::consts::TAU;
        let (start, duration, segment) = match self.leg {
            0 => (
                self.circle_base,
                r,
                Segment::line(Vec2::ZERO, Vec2::new(r, 0.0)),
            ),
            1 => (
                self.circle_base + r,
                r * tau,
                Segment::full_circle(Vec2::ZERO, r, 0.0),
            ),
            _ => (
                self.circle_base + r + r * tau,
                r,
                Segment::line(Vec2::new(r, 0.0), Vec2::ZERO),
            ),
        };
        self.segment = segment;
        self.start = start;
        self.end = start + duration;
    }

    /// Installs the terminal wait as the active segment.
    fn set_wait(&mut self) {
        let k = self.schedule.round();
        self.segment = Segment::wait(Vec2::ZERO, times::round_wait(k));
        self.start = self.schedule.wait_start();
        self.end = f64::INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;

    #[test]
    fn subround_radii_match_times_module() {
        let sub = SubRound::new(4, 5);
        assert_eq!(sub.inner_radius(), times::inner_radius(4, 5));
        assert_eq!(sub.outer_radius(), times::outer_radius(4, 5));
        assert_eq!(sub.granularity(), times::granularity(4, 5));
        assert_eq!(sub.round(), 4);
        assert_eq!(sub.index(), 5);
    }

    #[test]
    fn circle_count_is_dyadic() {
        // m = 2^{2k−j} extra circles.
        assert_eq!(SubRound::new(1, 0).circle_count(), 5); // 2^2 + 1
        assert_eq!(SubRound::new(1, 1).circle_count(), 3); // 2^1 + 1
        assert_eq!(SubRound::new(3, 0).circle_count(), 65); // 2^6 + 1
    }

    #[test]
    fn last_circle_reaches_outer_radius() {
        for k in 1..=6 {
            for j in 0..2 * k {
                let sub = SubRound::new(k, j);
                let last = sub.circle_radius(sub.circle_count() - 1);
                // δ + 2mρ = δ + δ = 2δ = outer radius exactly.
                assert_eq!(last, sub.outer_radius(), "k={k} j={j}");
            }
        }
    }

    #[test]
    fn circle_starts_telescope() {
        let sub = SubRound::new(2, 1);
        let mut acc = 0.0;
        for i in 0..sub.circle_count() {
            assert_approx_eq!(sub.circle_start(i), acc, 1e-10);
            acc += times::search_circle_duration(sub.circle_radius(i));
        }
        assert_approx_eq!(sub.circle_start(sub.circle_count()), sub.duration(), 1e-10);
        assert_approx_eq!(acc, sub.duration(), 1e-10);
    }

    #[test]
    fn circle_index_binary_search_agrees_with_linear() {
        let sub = SubRound::new(3, 1);
        let dur = sub.duration();
        let mut w = 0.0;
        while w < dur {
            let fast = sub.circle_index_at(w);
            // Linear reference.
            let mut slow = 0;
            for i in 0..sub.circle_count() {
                if sub.circle_start(i) <= w {
                    slow = i;
                } else {
                    break;
                }
            }
            assert_eq!(fast, slow, "at w={w}");
            w += dur / 97.0;
        }
    }

    #[test]
    fn round_segment_at_matches_stream() {
        // The closed-form lookup must reproduce the explicit stream exactly.
        for k in 1..=3u32 {
            let round = RoundSchedule::new(k);
            let mut start = 0.0;
            for seg in round.segments() {
                // Query in the middle of each segment (skip zero-duration).
                if seg.duration() > 0.0 {
                    let mid = start + seg.duration() / 2.0;
                    let (found_start, found_seg) = round.segment_at(mid);
                    assert!(
                        (found_start - start).abs() < 1e-7,
                        "k={k}: start {found_start} vs {start}"
                    );
                    assert_eq!(found_seg, seg, "k={k} at t={mid}");
                }
                start += seg.duration();
            }
            assert_approx_eq!(start, round.duration(), 1e-9);
        }
    }

    #[test]
    fn wait_phase_is_reported() {
        let round = RoundSchedule::new(2);
        let in_wait = round.wait_start() + 1.0;
        assert_eq!(round.subround_index_at(in_wait), None);
        assert_eq!(round.locate(in_wait), RoundPhase::Wait);
        let (_, seg) = round.segment_at(in_wait);
        assert!(matches!(seg, Segment::Wait { .. }));
    }

    #[test]
    fn locate_reports_legs_in_order() {
        let round = RoundSchedule::new(1);
        let sub = SubRound::new(1, 0);
        let r0 = sub.circle_radius(0);
        // Outbound at time r0/2, sweep just after r0, inbound near the end.
        match round.locate(r0 / 2.0) {
            RoundPhase::SubRound { leg, circle, .. } => {
                assert_eq!(leg, CircleLeg::Outbound);
                assert_eq!(circle, 0);
            }
            other => panic!("unexpected phase {other:?}"),
        }
        match round.locate(r0 * 1.5) {
            RoundPhase::SubRound { leg, .. } => assert_eq!(leg, CircleLeg::Sweep),
            other => panic!("unexpected phase {other:?}"),
        }
        let end_of_first = sub.circle_start(1);
        match round.locate(end_of_first - r0 * 0.5) {
            RoundPhase::SubRound { leg, circle, .. } => {
                assert_eq!(leg, CircleLeg::Inbound);
                assert_eq!(circle, 0);
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside round")]
    fn segment_at_rejects_out_of_range() {
        let round = RoundSchedule::new(1);
        let _ = round.segment_at(round.duration());
    }

    /// The sequential pointer must reproduce `segment_at` exactly — same
    /// segments, same closed-form start times — across every access
    /// pattern the engine produces (piece-by-piece, short hops, leaps).
    #[test]
    fn round_cursor_matches_segment_at() {
        for k in 1..=4u32 {
            let round = RoundSchedule::new(k);
            for stride_mul in [0.001, 0.37, 2.9, 41.0] {
                let mut cursor = RoundCursor::new(k);
                let mut u = 0.0;
                let stride = stride_mul * k as f64;
                while u < round.duration() {
                    let (fast_start, fast_seg) = cursor.segment_at(u);
                    let (slow_start, slow_seg) = round.segment_at(u);
                    assert_eq!(fast_start.to_bits(), slow_start.to_bits(), "k={k} u={u}");
                    assert_eq!(fast_seg, slow_seg, "k={k} u={u}");
                    u += stride;
                }
            }
        }
    }

    #[test]
    fn max_radius_is_last_outer_radius() {
        for k in 1..=6 {
            let round = RoundSchedule::new(k);
            assert_eq!(round.max_radius(), times::outer_radius(k, 2 * k - 1));
            assert_eq!(round.max_radius(), (k as f64).exp2());
        }
    }

    #[test]
    fn reach_is_monotone_and_bounds_the_walk() {
        // Walk round 2's explicit stream, tracking the true running
        // maximum distance from the origin; `reach` must dominate it at
        // every sampled time while never exceeding the round maximum.
        let round = RoundSchedule::new(2);
        let mut cursor = rvz_trajectory::StreamCursor::new(round.segments());
        let mut true_max = 0.0_f64;
        let mut prev_reach = 0.0_f64;
        let n = 4000;
        for i in 0..n {
            let u = round.duration() * i as f64 / n as f64;
            true_max = true_max.max(cursor.position(u).norm());
            let reach = round.reach(u);
            assert!(
                reach >= true_max - 1e-9,
                "reach {reach} below true max {true_max} at u={u}"
            );
            assert!(reach >= prev_reach, "reach not monotone at u={u}");
            assert!(reach <= round.max_radius());
            prev_reach = reach;
        }
        // At/after the terminal wait the reach is the full sweep radius.
        assert_eq!(round.reach(round.wait_start()), round.max_radius());
        assert_eq!(round.reach(round.duration() + 5.0), round.max_radius());
        assert_eq!(round.reach(-1.0), 0.0);
    }
}
