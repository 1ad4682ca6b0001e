//! Exact contact *windows*: every interval during which `Search(k)` sees
//! a given target.
//!
//! [`first_discovery`](crate::discovery::first_discovery) returns only
//! the first contact of Algorithm 4; the overlap machinery of Section 4
//! needs more — it asks whether a contact falls inside a *specific* time
//! window (the partner's inactive phase). [`RoundWindows`] enumerates,
//! in execution order, the maximal sub-intervals of one `Search(k)`
//! round during which the robot is within `r` of the target, using the
//! same closed-form circle geometry as the discovery oracle and skipping
//! the (possibly millions of) non-contacting circles by index
//! arithmetic.

use crate::schedule::{RoundSchedule, SubRound};
use crate::times;
use rvz_geometry::{normalize_angle, Vec2};

/// A maximal contact interval, in time local to the enclosing round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactWindow {
    /// Window start (local round time).
    pub start: f64,
    /// Window end (local round time), `≥ start`.
    pub end: f64,
}

/// Relative slack of [`first_visit_in_round`]: the windows are computed
/// for a radius `1 + VISIT_SLACK` times the asked one, and a window start
/// moves `VISIT_SLACK·(1 + start)` earlier, so neither the rounding of
/// the window geometry nor that of the block's start time can put the
/// answer inside the disk.
const VISIT_SLACK: f64 = 1e-9;

/// The first global time at or after `t0` at which `Search(k)`, run from
/// global time `block_start`, may be within `r` of `target`: `t0` when
/// it may already be, `None` when no contact window of the round ends
/// after `t0`. Before the returned time the robot stays farther than
/// `r` from the target: the windows are computed for a radius `1e-9`
/// larger (relative), and a window start is moved `1e-9·(1 + start)`
/// earlier, so rounding cannot put the answer inside the disk.
///
/// The one closed-form clearance query behind the schedule cursors'
/// [`Cursor::first_visit`](rvz_trajectory::Cursor::first_visit). Costs
/// O(1) per sub-round of the round and never allocates.
///
/// # Panics
///
/// As for [`RoundWindows::ending_after`].
pub fn first_visit_in_round(
    k: u32,
    block_start: f64,
    target: Vec2,
    r: f64,
    t0: f64,
) -> Option<f64> {
    let u = t0 - block_start;
    let r = r * (1.0 + VISIT_SLACK);
    // Nothing ends after `u` past the round, and nothing past the
    // round's reach sees the target.
    if u >= times::round_duration(k) || target.norm() - r > times::outer_radius(k, 2 * k - 1) {
        return None;
    }
    let w = RoundWindows::ending_after(k, target, r, u).next()?;
    let start = block_start + w.start;
    Some((start - VISIT_SLACK * (1.0 + start.abs())).max(t0))
}

/// The contact windows of one `Search(k)` round, in increasing time
/// order and local to the round, as a non-allocating iterator.
///
/// Consecutive windows may touch (a leg contact can continue seamlessly
/// into the following arc); they are not merged. If `d ≤ r` the robot
/// *always* sees the target: one window covers the whole round.
///
/// Circles that cannot see the target are skipped by index arithmetic:
/// a sub-round starts at its first circle reaching the target's annulus
/// or leg, and ends at its first circle past the annulus when the
/// target has no leg contact. [`RoundWindows::ending_after`] starts the
/// enumeration at an arbitrary local time, so a query about a late time
/// window skips the round's earlier sub-rounds and circles too.
///
/// # Example
///
/// ```
/// use rvz_search::RoundWindows;
/// use rvz_geometry::Vec2;
///
/// // A target on the x-axis is seen from every long enough leg.
/// let target = Vec2::new(0.9, 0.0);
/// let first = RoundWindows::new(2, target, 0.08).next().expect("a window");
/// // Resuming inside that window yields it again; past it, a later one.
/// let again = RoundWindows::ending_after(2, target, 0.08, first.start).next();
/// assert_eq!(again, Some(first));
/// let later = RoundWindows::ending_after(2, target, 0.08, first.end).next().unwrap();
/// assert!(later.start >= first.end);
/// ```
#[derive(Debug, Clone)]
pub struct RoundWindows {
    k: u32,
    d: f64,
    r: f64,
    alpha: f64,
    /// The target's leg-contact interval `[x_lo, x_hi]` on the x-axis.
    leg: Option<(f64, f64)>,
    /// Windows ending at or before this local time are skipped.
    after: f64,
    /// The sub-round being enumerated (`2k` once exhausted).
    j: u32,
    /// The next circle of sub-round `j` to examine.
    i: u64,
    /// `true` once sub-round `j`'s first circle has been positioned.
    positioned: bool,
    /// Windows of the last examined circle not yet yielded.
    pending: [ContactWindow; 4],
    head: usize,
    len: usize,
}

impl RoundWindows {
    /// Every contact window of `Search(k)` with the target.
    ///
    /// # Panics
    ///
    /// Panics on invalid `k` (see [`times::round_duration`]), non-positive
    /// `r` or non-finite `target`.
    pub fn new(k: u32, target: Vec2, r: f64) -> Self {
        Self::ending_after(k, target, r, f64::NEG_INFINITY)
    }

    /// The contact windows of `Search(k)` with the target that end after
    /// local round time `u`, in time order: the first one yielded
    /// contains `u` or is the first to start after it.
    ///
    /// # Panics
    ///
    /// As for [`RoundWindows::new`], and on a NaN `u`.
    pub fn ending_after(k: u32, target: Vec2, r: f64, u: f64) -> Self {
        let round_duration = times::round_duration(k);
        assert!(
            r > 0.0 && r.is_finite(),
            "visibility must be positive, got {r}"
        );
        assert!(target.is_finite(), "target must be finite");
        assert!(!u.is_nan(), "window start time must not be NaN");
        let empty = ContactWindow {
            start: 0.0,
            end: 0.0,
        };
        let mut windows = RoundWindows {
            k,
            d: target.norm(),
            r,
            alpha: normalize_angle(target.angle()),
            leg: None,
            after: u,
            j: 2 * k,
            i: 0,
            positioned: false,
            pending: [empty; 4],
            head: 0,
            len: 0,
        };
        if windows.d <= r {
            // Always in sight: one window covering the whole round.
            windows.pending[0] = ContactWindow {
                start: 0.0,
                end: round_duration,
            };
            windows.len = 1;
            return windows;
        }
        // Leg geometry (see discovery.rs): the robot at (x, 0) sees the
        // target iff x ∈ [x_lo, x_hi]; with d > r the window is positive.
        if target.y.abs() <= r {
            let half = (r * r - target.y * target.y).sqrt();
            let x_hi = target.x + half;
            if x_hi > 0.0 {
                windows.leg = Some(((target.x - half).max(0.0), x_hi));
            }
        }
        // Start in the sub-round containing `u`; the terminal wait at the
        // origin sees nothing.
        let schedule = RoundSchedule::new(k);
        windows.j = if u <= 0.0 {
            0
        } else if u < round_duration {
            schedule.subround_index_at(u).unwrap_or(2 * k)
        } else {
            2 * k
        };
        windows
    }

    /// Fills `pending` with the next contacting circle's windows;
    /// `false` once the round is exhausted.
    fn refill(&mut self) -> bool {
        let k = self.k;
        let (d, r) = (self.d, self.r);
        while self.j < 2 * k {
            let sub = SubRound::new(k, self.j);
            let sub_start = sub.start_within_round();
            let m = sub.circle_count() - 1;
            if !self.positioned {
                self.positioned = true;
                // Circle ranges with any contact.
                let arc_lo = first_index_reaching(&sub, d - r);
                let leg_lo = self
                    .leg
                    .and_then(|(x_lo, _)| first_index_reaching(&sub, x_lo));
                let start_i = match (arc_lo, leg_lo) {
                    (Some(a), Some(l)) => a.min(l),
                    (Some(a), None) => a,
                    (None, Some(l)) => l,
                    (None, None) => m + 1,
                };
                // Circles that finish before `after` have no window
                // ending after it.
                let w = self.after - sub_start;
                self.i = if start_i <= m && w >= sub.circle_start(start_i + 1) {
                    start_i.max(sub.circle_index_at(w.min(sub.duration() * (1.0 - f64::EPSILON))))
                } else {
                    start_i
                };
            }
            if self.i > m || (self.leg.is_none() && sub.circle_radius(self.i) - d > r) {
                if self.leg.is_none() && sub.inner_radius() - d > r {
                    // Radii only grow: no later sub-round reaches either.
                    self.j = 2 * k;
                    return false;
                }
                self.j += 1;
                self.positioned = false;
                continue;
            }
            let i = self.i;
            self.i += 1;
            self.len = 0;
            self.head = 0;
            let delta = sub.circle_radius(i);
            let block = sub_start + sub.circle_start(i);
            let circle_end = 2.0 * times::PI_PLUS_1 * delta;

            // Outbound leg.
            if let Some((x_lo, x_hi)) = self.leg {
                if delta >= x_lo {
                    self.push(block + x_lo, block + x_hi.min(delta));
                }
            }
            // Arc sweep.
            if (d - delta).abs() <= r {
                let c = ((delta * delta + d * d - r * r) / (2.0 * delta * d)).clamp(-1.0, 1.0);
                let half_width = c.acos();
                let tau = std::f64::consts::TAU;
                let arc_t = |theta: f64| block + delta + delta * theta;
                if half_width >= std::f64::consts::PI {
                    self.push(arc_t(0.0), arc_t(tau));
                } else {
                    let a = normalize_angle(self.alpha - half_width);
                    let b = a + 2.0 * half_width;
                    if b <= tau {
                        self.push(arc_t(a), arc_t(b));
                    } else {
                        // Wraps through θ = 0: split into two windows in
                        // time order.
                        self.push(arc_t(0.0), arc_t(b - tau));
                        self.push(arc_t(a), arc_t(tau));
                    }
                }
            }
            // Inbound leg.
            if let Some((x_lo, x_hi)) = self.leg {
                if delta >= x_lo {
                    self.push(
                        block + circle_end - x_hi.min(delta),
                        block + circle_end - x_lo,
                    );
                }
            }
            if self.len > 0 {
                return true;
            }
        }
        false
    }

    fn push(&mut self, start: f64, end: f64) {
        if end > start {
            self.pending[self.len] = ContactWindow { start, end };
            self.len += 1;
        }
    }
}

impl Iterator for RoundWindows {
    type Item = ContactWindow;

    fn next(&mut self) -> Option<ContactWindow> {
        loop {
            while self.head < self.len {
                let w = self.pending[self.head];
                self.head += 1;
                if w.end > self.after {
                    return Some(w);
                }
            }
            if !self.refill() {
                return None;
            }
        }
    }
}

/// Smallest circle index whose radius reaches `x`, or `None`.
fn first_index_reaching(sub: &SubRound, x: f64) -> Option<u64> {
    let m = sub.circle_count() - 1;
    if sub.circle_radius(m) < x {
        return None;
    }
    let delta1 = sub.inner_radius();
    let rho = sub.granularity();
    let mut i = if x <= delta1 {
        0
    } else {
        (((x - delta1) / (2.0 * rho)).ceil() as u64).min(m)
    };
    while i > 0 && sub.circle_radius(i - 1) >= x {
        i -= 1;
    }
    while sub.circle_radius(i) < x {
        i += 1;
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RoundSchedule;
    use rvz_trajectory::Segment;

    /// Dense-sampling oracle over the explicit round path.
    fn brute_windows(k: u32, target: Vec2, r: f64, dt: f64) -> Vec<(f64, f64)> {
        let round = RoundSchedule::new(k);
        let segments: Vec<Segment> = round.segments().collect();
        let mut cursor = rvz_trajectory::StreamCursor::new(segments.into_iter());
        let duration = round.duration();
        let mut windows = Vec::new();
        let mut inside = false;
        let mut start = 0.0;
        let mut t = 0.0;
        while t <= duration {
            let within = cursor.position(t).distance(target) <= r;
            if within && !inside {
                inside = true;
                start = t;
            } else if !within && inside {
                inside = false;
                windows.push((start, t));
            }
            t += dt;
        }
        if inside {
            windows.push((start, duration));
        }
        windows
    }

    /// Windows must cover exactly the sampled contact times.
    fn assert_matches_brute(k: u32, target: Vec2, r: f64) {
        let exact: Vec<_> = RoundWindows::new(k, target, r).collect();
        let dt = 1e-3;
        let brute = brute_windows(k, target, r, dt);
        // Every brute window's interior is covered by some exact window.
        for &(bs, be) in &brute {
            let mid = 0.5 * (bs + be);
            assert!(
                exact.iter().any(|w| w.start <= mid && mid <= w.end),
                "k={k}, target={target}: brute window ({bs}, {be}) not covered"
            );
        }
        // Every exact window's midpoint is a true contact.
        let round = RoundSchedule::new(k);
        for w in &exact {
            let mid = 0.5 * (w.start + w.end);
            let (seg_start, seg) = round.segment_at(mid);
            let pos = seg.position_at(mid - seg_start);
            assert!(
                pos.distance(target) <= r + 1e-9,
                "k={k}: window midpoint {mid} is not a contact"
            );
        }
    }

    #[test]
    fn generic_target_matches_brute_force() {
        assert_matches_brute(2, Vec2::new(0.3, 0.55), 0.05);
        assert_matches_brute(3, Vec2::new(-0.8, 0.4), 0.1);
        assert_matches_brute(2, Vec2::new(0.0, -1.2), 0.07);
    }

    #[test]
    fn on_axis_target_has_leg_windows() {
        // Target on the +x axis: every sufficiently long leg sees it.
        let target = Vec2::new(0.9, 0.0);
        assert_matches_brute(2, target, 0.08);
        let windows: Vec<_> = RoundWindows::new(2, target, 0.08).collect();
        assert!(windows.len() > 4, "expected many leg windows");
    }

    #[test]
    fn visible_target_covers_whole_round() {
        let w: Vec<_> = RoundWindows::new(1, Vec2::new(0.05, 0.0), 0.2).collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].start, 0.0);
        assert_eq!(w[0].end, times::round_duration(1));
    }

    #[test]
    fn windows_are_time_ordered() {
        let ws: Vec<_> = RoundWindows::new(3, Vec2::new(0.4, 0.6), 0.1).collect();
        assert!(!ws.is_empty());
        for pair in ws.windows(2) {
            assert!(pair[0].start <= pair[1].start, "{pair:?}");
        }
    }

    #[test]
    fn first_window_start_equals_first_discovery() {
        use crate::discovery::first_discovery;
        use rvz_model::SearchInstance;
        for (target, r) in [
            (Vec2::new(0.3, 0.55), 0.05),
            (Vec2::new(0.9, 0.0), 0.2),
            (Vec2::new(-0.6, -0.6), 0.03),
        ] {
            let inst = SearchInstance::new(target, r).unwrap();
            let found = first_discovery(&inst, 8).unwrap();
            let ws: Vec<_> = RoundWindows::new(found.round, target, r).collect();
            let round_start = crate::universal::UniversalSearch::round_start(found.round);
            let first = ws.first().expect("window exists");
            assert!(
                (round_start + first.start - found.time).abs() < 1e-9 * (1.0 + found.time),
                "target {target}: window {} vs discovery {}",
                round_start + first.start,
                found.time
            );
        }
    }

    /// Starting the enumeration at a local time yields exactly the
    /// windows of the full enumeration that end after it.
    #[test]
    fn ending_after_equals_the_filtered_enumeration() {
        for (k, target, r) in [
            (3, Vec2::new(0.4, 0.6), 0.1),
            (3, Vec2::new(0.9, 0.02), 0.2),
            (4, Vec2::new(-1.3, 0.7), 0.01),
            (2, Vec2::new(0.05, 0.0), 0.2),
        ] {
            let all: Vec<_> = RoundWindows::new(k, target, r).collect();
            let duration = times::round_duration(k);
            let mut probes: Vec<f64> = (0..=200).map(|i| duration * i as f64 / 200.0).collect();
            probes.extend(
                all.iter()
                    .flat_map(|w| [w.start, w.end, 0.5 * (w.start + w.end)]),
            );
            probes.push(-1.0);
            for u in probes {
                let expected: Vec<_> = all.iter().copied().filter(|w| w.end > u).collect();
                let resumed: Vec<_> = RoundWindows::ending_after(k, target, r, u).collect();
                assert_eq!(resumed, expected, "k={k}, target={target}, u={u}");
            }
        }
    }
}
