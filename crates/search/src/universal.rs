//! Algorithm 4: the universal search trajectory.
//!
//! `repeat Search(k) for k = 1, 2, 3, …` — an infinite, parameter-free
//! trajectory that finds any target at any distance `d` with any
//! visibility `r` in time `O(log(d²/r)·d²/r)` (Theorem 1). It is also,
//! reinterpreted through the equivalent-search reduction of Section 3,
//! the paper's rendezvous algorithm for robots with symmetric clocks.

use crate::schedule::{RoundCursor, RoundPhase, RoundSchedule};
use crate::times;
use rvz_geometry::Vec2;
use rvz_trajectory::monotone::{segment_motion, Cursor, MonotoneGuard, MonotoneTrajectory, Probe};
use rvz_trajectory::{Segment, Trajectory};

/// The Algorithm 4 trajectory.
///
/// A zero-sized value: the algorithm has no parameters (that is the
/// point — the robots know nothing). Implements [`Trajectory`] with
/// `O(log)` random access via the closed-form schedule, and exposes an
/// explicit segment stream for cross-checking.
///
/// # Example
///
/// ```
/// use rvz_search::UniversalSearch;
/// use rvz_trajectory::Trajectory;
///
/// let s = UniversalSearch;
/// assert_eq!(s.position(0.0), rvz_geometry::Vec2::ZERO);
/// assert_eq!(s.speed_bound(), 1.0);
/// assert_eq!(s.duration(), None); // runs forever
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UniversalSearch;

/// Introspection result of [`UniversalSearch::locate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Location {
    /// Round index `k ≥ 1`.
    pub round: u32,
    /// Global time at which round `k` began (`= rounds_total(k−1)`).
    pub round_start: f64,
    /// Phase within the round.
    pub phase: RoundPhase,
}

impl UniversalSearch {
    /// Global start time of round `k` (`k ≥ 1`): `F(k−1) = 3(π+1)(k−1)2^{k+1}`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0` or `k − 1 > MAX_ROUND`.
    pub fn round_start(k: u32) -> f64 {
        assert!(k >= 1, "rounds are numbered from 1");
        times::rounds_total(k - 1)
    }

    /// The round index active at global time `t`.
    ///
    /// # Panics
    ///
    /// Panics for negative/NaN `t` or `t` beyond the supported horizon
    /// (`rounds_total(MAX_ROUND)`).
    pub fn round_at(t: f64) -> u32 {
        assert!(t >= 0.0 && !t.is_nan(), "time must be >= 0, got {t}");
        for k in 1..=times::MAX_ROUND {
            if t < times::rounds_total(k) {
                return k;
            }
        }
        panic!(
            "time {t} beyond the supported horizon {}",
            times::rounds_total(times::MAX_ROUND)
        );
    }

    /// The segment active at global time `t`, with its global start time.
    ///
    /// This is the closed-form random access that the simulator uses; it
    /// agrees exactly with the lazily enumerated [`UniversalSearch::segments`]
    /// stream (property-tested).
    pub fn segment_at(t: f64) -> (f64, Segment) {
        let k = Self::round_at(t);
        let round_start = Self::round_start(k);
        let (local_start, seg) = RoundSchedule::new(k).segment_at(t - round_start);
        (round_start + local_start, seg)
    }

    /// Rich phase introspection at global time `t`.
    pub fn locate(t: f64) -> Location {
        let k = Self::round_at(t);
        let round_start = Self::round_start(k);
        Location {
            round: k,
            round_start,
            phase: RoundSchedule::new(k).locate(t - round_start),
        }
    }

    /// The infinite explicit segment stream of Algorithm 4
    /// (`Search(1), Search(2), …`). Θ(4^k) segments for round `k`; use
    /// only for bounded prefixes.
    pub fn segments() -> impl Iterator<Item = Segment> {
        (1..=times::MAX_ROUND).flat_map(|k| RoundSchedule::new(k).segments().collect::<Vec<_>>())
    }

    /// An upper bound on the robot's distance from the origin anywhere
    /// in the global interval `[t0, t1]` — the closed-form certificate
    /// behind [`UniversalSearchCursor`]'s swept envelope.
    ///
    /// If the interval stays within one round this is that round's
    /// [`RoundSchedule::reach`] at `t1` (radii never shrink within a
    /// round); across rounds, every earlier round is bounded by
    /// `2^{k₁−1}`. Times beyond the supported schedule horizon fall back
    /// to the global maximum `2^{MAX_ROUND}` instead of panicking, so
    /// envelope queries may look arbitrarily far ahead.
    pub fn reach_between(t0: f64, t1: f64) -> f64 {
        let t1 = t1.max(t0);
        if t1 >= times::rounds_total(times::MAX_ROUND) {
            return rvz_numerics::pow2i(times::MAX_ROUND as i64);
        }
        let k1 = Self::round_at(t1);
        let bound = RoundSchedule::new(k1).reach(t1 - Self::round_start(k1));
        if t0 >= Self::round_start(k1) || k1 == 1 {
            bound
        } else {
            bound.max(rvz_numerics::pow2i(k1 as i64 - 1))
        }
    }
}

impl Trajectory for UniversalSearch {
    fn position(&self, t: f64) -> Vec2 {
        let (start, seg) = Self::segment_at(t);
        seg.position_at(t - start)
    }

    fn speed_bound(&self) -> f64 {
        1.0
    }
}

/// The [`MonotoneTrajectory`] cursor of [`UniversalSearch`].
///
/// Caches the active round `k` (advanced incrementally instead of
/// re-scanning `round_at` every query) and the active segment with its
/// global span, so a probe that stays inside the current segment costs
/// O(1); a segment transition costs one `O(log)` closed-form lookup.
#[derive(Debug, Clone)]
pub struct UniversalSearchCursor {
    /// Active round index (`≥ 1`).
    round: u32,
    /// `rounds_total(round − 1)` — global start of the active round.
    round_start: f64,
    /// `rounds_total(round)` — global end of the active round.
    round_end: f64,
    /// Sequential pointer into the active round's segment sequence.
    round_cursor: RoundCursor,
    /// Active segment with its global start, and its global end.
    segment: Segment,
    segment_start: f64,
    segment_end: f64,
    guard: MonotoneGuard,
}

impl UniversalSearchCursor {
    fn new() -> Self {
        UniversalSearchCursor {
            round: 1,
            round_start: 0.0,
            round_end: times::rounds_total(1),
            round_cursor: RoundCursor::new(1),
            // A sentinel forcing a lookup on the first probe.
            segment: Segment::wait(Vec2::ZERO, 0.0),
            segment_start: 0.0,
            segment_end: -1.0,
            guard: MonotoneGuard::default(),
        }
    }

    /// Refreshes the cached round/segment so that the last query time `t`
    /// falls inside `[segment_start, segment_end)`.
    fn refresh(&mut self, t: f64) {
        // Advance the round incrementally; queries are non-decreasing, so
        // scanning forward from the cached round reproduces `round_at`.
        let mut round_changed = false;
        while t >= self.round_end {
            assert!(
                self.round < times::MAX_ROUND,
                "time {t} beyond the supported horizon {}",
                times::rounds_total(times::MAX_ROUND)
            );
            self.round += 1;
            self.round_start = self.round_end;
            self.round_end = times::rounds_total(self.round);
            round_changed = true;
        }
        if round_changed {
            self.round_cursor = RoundCursor::new(self.round);
        }
        // The round-total closed forms round independently of the round
        // duration; clamp strictly inside so an ulp-edge query resolves
        // to the terminal wait instead of tripping the range assert.
        let duration = self.round_cursor.schedule().duration();
        let local = (t - self.round_start).clamp(0.0, duration * (1.0 - f64::EPSILON));
        let (local_start, seg) = self.round_cursor.segment_at(local);
        self.segment = seg;
        self.segment_start = self.round_start + local_start;
        // Cap at the round boundary: the terminal wait's nominal duration
        // can overshoot the closed-form round end by an ulp.
        self.segment_end = (self.segment_start + seg.duration()).min(self.round_end);
    }
}

impl Cursor for UniversalSearchCursor {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        if t >= self.segment_end {
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

    /// Two tiers: an interval inside the cached segment gets the exact
    /// chunk disk (tight even on the long arcs of deep rounds); anything
    /// wider gets the origin-centered schedule bound
    /// [`UniversalSearch::reach_between`], which skips whole sub-rounds
    /// and rounds without visiting their Θ(4ᵏ) segments.
    fn envelope(&mut self, t0: f64, t1: f64) -> rvz_geometry::Disk {
        if t0 >= self.segment_start && t1 <= self.segment_end {
            return self
                .segment
                .chunk_disk(t0 - self.segment_start, t1 - self.segment_start);
        }
        rvz_geometry::Disk::new(Vec2::ZERO, UniversalSearch::reach_between(t0, t1))
    }

    /// The closed-form clearance: each round's contact windows come from
    /// [`crate::first_visit_in_round`], so the cost is O(1) per
    /// sub-round crossed. Stateless; `t0` ("unknown") past the
    /// supported horizon.
    fn first_visit(&mut self, t0: f64, t1: f64, center: Vec2, radius: f64) -> f64 {
        if t1.is_nan() || t1 <= t0 || t0 >= times::rounds_total(times::MAX_ROUND) {
            return t0;
        }
        for k in UniversalSearch::round_at(t0)..=times::MAX_ROUND {
            let start = UniversalSearch::round_start(k);
            if start >= t1 {
                return t1;
            }
            if let Some(s) = crate::first_visit_in_round(k, start, center, radius, t0) {
                return s.min(t1);
            }
        }
        t0
    }
}

impl MonotoneTrajectory for UniversalSearch {
    type Cursor<'a> = UniversalSearchCursor;

    fn cursor(&self) -> UniversalSearchCursor {
        UniversalSearchCursor::new()
    }
}

impl rvz_trajectory::Compile for UniversalSearch {
    /// Round and sub-round starts — the dyadic hierarchy the compiled
    /// engine seeds its pruning windows with.
    fn round_marks(&self, horizon: f64) -> Vec<f64> {
        let mut marks = Vec::new();
        for k in 1..=times::MAX_ROUND {
            let start = Self::round_start(k);
            if start > horizon {
                break;
            }
            for j in 0..=2 * k {
                let s = start + times::subround_start(k, j);
                if s > horizon {
                    break;
                }
                marks.push(s);
            }
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
    fn starts_at_origin_heading_out() {
        let s = UniversalSearch;
        assert_eq!(s.position(0.0), Vec2::ZERO);
        // First motion is along +x toward radius 1/2.
        let p = s.position(0.25);
        assert_eq!(p, Vec2::new(0.25, 0.0));
    }

    #[test]
    fn round_boundaries() {
        assert_eq!(UniversalSearch::round_start(1), 0.0);
        assert_approx_eq!(UniversalSearch::round_start(2), times::round_duration(1));
        assert_eq!(UniversalSearch::round_at(0.0), 1);
        let just_before = times::round_duration(1) * (1.0 - 1e-12);
        assert_eq!(UniversalSearch::round_at(just_before), 1);
        assert_eq!(UniversalSearch::round_at(times::round_duration(1)), 2);
    }

    #[test]
    fn position_at_round_boundary_is_origin() {
        // Every round ends (after its wait) at the origin.
        let s = UniversalSearch;
        for k in 1..=4 {
            let t = UniversalSearch::round_start(k);
            assert!(
                s.position(t).norm() < 1e-9,
                "round {k} does not begin at the origin"
            );
        }
    }

    /// The closed-form random access must agree with sequentially walking
    /// the explicit segment stream — this validates all the index algebra.
    #[test]
    fn random_access_matches_stream_cursor() {
        let s = UniversalSearch;
        let horizon = times::rounds_total(3); // covers rounds 1..=3
        let mut cursor = StreamCursor::new(UniversalSearch::segments());
        let n = 2000;
        for i in 0..n {
            let t = horizon * (i as f64) / (n as f64);
            let direct = s.position(t);
            let streamed = cursor.position(t);
            assert!(
                direct.distance(streamed) < 1e-7,
                "mismatch at t={t}: {direct} vs {streamed}"
            );
        }
    }

    #[test]
    fn cursor_matches_random_access() {
        use rvz_trajectory::monotone::{Cursor as _, MonotoneTrajectory as _};
        let s = UniversalSearch;
        let mut cursor = s.cursor();
        let horizon = times::rounds_total(3);
        let n = 4000;
        for i in 0..=n {
            let t = horizon * (i as f64) / (n as f64);
            let p = cursor.probe(t);
            let direct = s.position(t);
            assert!(
                p.position.distance(direct) < 1e-9,
                "mismatch at t={t}: {} vs {direct}",
                p.position
            );
            assert!(p.piece_end > t, "stale piece end at t={t}");
        }
    }

    #[test]
    fn locate_reports_round_and_phase() {
        let loc = UniversalSearch::locate(0.1);
        assert_eq!(loc.round, 1);
        assert_eq!(loc.round_start, 0.0);
        assert!(matches!(
            loc.phase,
            RoundPhase::SubRound {
                j: 0,
                circle: 0,
                ..
            }
        ));
        // Inside round 2's wait.
        let t = UniversalSearch::round_start(2) + RoundSchedule::new(2).wait_start() + 1.0;
        let loc = UniversalSearch::locate(t);
        assert_eq!(loc.round, 2);
        assert_eq!(loc.phase, RoundPhase::Wait);
    }

    #[test]
    #[should_panic(expected = "time must be >= 0")]
    fn negative_time_rejected() {
        let _ = UniversalSearch::round_at(-1.0);
    }

    #[test]
    fn reach_between_bounds_dense_samples() {
        let s = UniversalSearch;
        let horizon = times::rounds_total(3);
        // Deterministic pseudo-random windows (LCG), checked against a
        // dense sample of the true positions.
        let mut state = 0x9E3779B97F4A7C15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1_u64 << 53) as f64
        };
        for _ in 0..200 {
            let a = next() * horizon;
            let b = next() * horizon;
            let (t0, t1) = if a <= b { (a, b) } else { (b, a) };
            let bound = UniversalSearch::reach_between(t0, t1);
            for i in 0..=40 {
                let t = t0 + (t1 - t0) * i as f64 / 40.0;
                let r = s.position(t).norm();
                assert!(
                    r <= bound + 1e-9,
                    "|pos({t})| = {r} > bound {bound} for [{t0}, {t1}]"
                );
            }
        }
    }

    #[test]
    fn reach_beyond_horizon_caps_at_global_maximum() {
        let far = times::rounds_total(times::MAX_ROUND);
        assert_eq!(
            UniversalSearch::reach_between(0.0, far * 2.0),
            (times::MAX_ROUND as f64).exp2()
        );
    }

    #[test]
    fn cursor_envelope_contains_positions() {
        use rvz_trajectory::monotone::{Cursor as _, MonotoneTrajectory as _};
        let s = UniversalSearch;
        let mut cursor = s.cursor();
        let horizon = times::rounds_total(3);
        let mut t0 = 0.0;
        while t0 < horizon {
            let t1 = (t0 + 7.3).min(horizon);
            let disk = cursor.envelope(t0, t1);
            for i in 0..=20 {
                let t = t0 + (t1 - t0) * i as f64 / 20.0;
                assert!(
                    disk.contains(s.position(t), 1e-9),
                    "envelope [{t0}, {t1}] misses t={t}"
                );
            }
            t0 += 11.9;
        }
    }

    #[test]
    fn unit_speed_between_samples() {
        let s = UniversalSearch;
        let mut prev = s.position(0.0);
        let dt = 0.05;
        let mut t = 0.0;
        while t < 100.0 {
            t += dt;
            let cur = s.position(t);
            assert!(
                prev.distance(cur) <= dt + 1e-9,
                "speed bound violated near t={t}"
            );
            prev = cur;
        }
    }
}
