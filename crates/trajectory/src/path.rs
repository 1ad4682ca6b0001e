//! Finite contiguous trajectories and their builder.
//!
//! A [`Path`] is a sequence of [`Segment`]s where each segment begins where
//! the previous one ended — the shape of every finite sub-procedure in the
//! paper (`SearchCircle`, `SearchAnnulus`, one round of `Search(k)`, …).
//! Evaluation at a time `t` does a binary search over precomputed
//! cumulative start times, so a path with millions of segments still
//! evaluates in `O(log n)`.

use crate::monotone::{segment_motion, Cursor, MonotoneGuard, MonotoneTrajectory, Probe};
use crate::segment::Segment;
use crate::Trajectory;
use rvz_geometry::{Disk, Vec2};

/// Maximum gap (in distance units) tolerated between consecutive segments
/// when building a path. The algorithms construct all junction points from
/// the same closed forms, so real gaps indicate a construction bug.
const CONTIGUITY_EPS: f64 = 1e-7;

/// A finite, contiguous, unit-speed trajectory.
///
/// Construct with [`PathBuilder`] (validating) or [`Path::from_segments`].
/// Implements [`Trajectory`]; after its total duration the path holds its
/// final position.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{Path, PathBuilder, Trajectory};
/// use rvz_geometry::Vec2;
///
/// let p = PathBuilder::at(Vec2::ZERO)
///     .line_to(Vec2::new(2.0, 0.0))
///     .wait(1.0)
///     .line_to(Vec2::new(2.0, 2.0))
///     .build();
/// assert_eq!(p.duration(), 5.0);
/// assert_eq!(p.position(2.5), Vec2::new(2.0, 0.0)); // mid-wait
/// assert_eq!(p.position(10.0), Vec2::new(2.0, 2.0)); // holds the end
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Path {
    segments: Vec<Segment>,
    /// `starts[i]` is the cumulative time at which `segments[i]` begins;
    /// one extra entry at the end holds the total duration.
    starts: Vec<f64>,
}

impl Path {
    /// An empty path pinned at the origin (zero duration).
    pub fn empty() -> Self {
        Path::default()
    }

    /// Builds a path from segments, checking contiguity and validity.
    ///
    /// # Panics
    ///
    /// Panics if any segment fails [`Segment::validate`] or if consecutive
    /// segments are not contiguous (end of one ≠ start of the next within
    /// a small tolerance). These are construction bugs, not runtime
    /// conditions, hence panics rather than `Result`.
    pub fn from_segments<I: IntoIterator<Item = Segment>>(segments: I) -> Self {
        let segments: Vec<Segment> = segments.into_iter().collect();
        let mut starts = Vec::with_capacity(segments.len() + 1);
        let mut t = 0.0_f64;
        let mut prev_end: Option<Vec2> = None;
        for (i, seg) in segments.iter().enumerate() {
            if let Err(e) = seg.validate() {
                panic!("invalid segment #{i}: {e}");
            }
            if let Some(pe) = prev_end {
                let gap = pe.distance(seg.start());
                assert!(
                    gap <= CONTIGUITY_EPS * (1.0 + pe.norm()),
                    "path discontinuity at segment #{i}: gap {gap} between {pe} and {}",
                    seg.start()
                );
            }
            starts.push(t);
            t += seg.duration();
            prev_end = Some(seg.end());
        }
        starts.push(t);
        Path { segments, starts }
    }

    /// Total duration (also total arc length plus waiting time).
    pub fn duration(&self) -> f64 {
        *self.starts.last().unwrap_or(&0.0)
    }

    /// The segments composing this path.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` when the path has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The starting position (origin for an empty path).
    pub fn start_position(&self) -> Vec2 {
        self.segments.first().map_or(Vec2::ZERO, |s| s.start())
    }

    /// The final position (origin for an empty path).
    pub fn end_position(&self) -> Vec2 {
        self.segments.last().map_or(Vec2::ZERO, |s| s.end())
    }

    /// The segment index active at time `t`, if the path is non-empty and
    /// `t < duration()`.
    pub fn segment_index_at(&self, t: f64) -> Option<usize> {
        if self.segments.is_empty() || t >= self.duration() {
            return None;
        }
        // partition_point returns the first index whose start exceeds t;
        // the active segment is the one before it.
        let idx = self.starts.partition_point(|&s| s <= t);
        Some(idx.saturating_sub(1).min(self.segments.len() - 1))
    }

    /// Concatenates another path onto the end of this one.
    ///
    /// # Panics
    ///
    /// Panics if `other` does not start where `self` ends (unless either
    /// is empty).
    pub fn concat(&self, other: &Path) -> Path {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        Path::from_segments(self.segments.iter().chain(other.segments.iter()).copied())
    }

    /// The cumulative start time of segment `i` (and `starts(len)` is the
    /// total duration).
    pub fn segment_start_time(&self, i: usize) -> f64 {
        self.starts[i]
    }
}

impl Trajectory for Path {
    fn position(&self, t: f64) -> Vec2 {
        assert!(t >= 0.0 && !t.is_nan(), "position requires t >= 0, got {t}");
        match self.segment_index_at(t) {
            Some(i) => self.segments[i].position_at(t - self.starts[i]),
            None => self.end_position(),
        }
    }

    fn speed_bound(&self) -> f64 {
        1.0
    }

    fn duration(&self) -> Option<f64> {
        Some(Path::duration(self))
    }
}

/// A flattened binary union tree over per-segment bounding disks: node
/// `i`'s disk contains nodes `2i` and `2i+1`, leaves sit at
/// `size + segment_index`. Any segment range unions in `O(log n)` tree
/// nodes — the [`Path`] level of the swept-envelope hierarchy.
#[derive(Debug, Clone)]
struct DiskTree {
    size: usize,
    nodes: Vec<Option<Disk>>,
}

fn union_opt(a: Option<Disk>, b: Option<Disk>) -> Option<Disk> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.union(&b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl DiskTree {
    fn build(segments: &[Segment]) -> DiskTree {
        let size = segments.len().next_power_of_two().max(1);
        let mut nodes = vec![None; 2 * size];
        for (i, seg) in segments.iter().enumerate() {
            nodes[size + i] = Some(seg.bounding_disk());
        }
        for i in (1..size).rev() {
            nodes[i] = union_opt(nodes[2 * i], nodes[2 * i + 1]);
        }
        DiskTree { size, nodes }
    }

    /// Union of the segment disks in the inclusive range `[l, r]`.
    fn query(&self, l: usize, r: usize) -> Option<Disk> {
        let mut l = l + self.size;
        let mut r = r + self.size + 1;
        let mut acc = None;
        while l < r {
            if l & 1 == 1 {
                acc = union_opt(acc, self.nodes[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                acc = union_opt(acc, self.nodes[r]);
            }
            l >>= 1;
            r >>= 1;
        }
        acc
    }
}

/// The [`MonotoneTrajectory`] cursor of a [`Path`]: a segment index that
/// only ever moves forward, replacing the per-query binary search with an
/// amortized-O(1) advance.
#[derive(Debug, Clone)]
pub struct PathCursor<'a> {
    path: &'a Path,
    /// Index of the segment containing the last query (== `len()` once
    /// the path has ended).
    index: usize,
    /// Built on the first multi-segment envelope query, then reused for
    /// the cursor's lifetime.
    tree: Option<DiskTree>,
    guard: MonotoneGuard,
}

impl Cursor for PathCursor<'_> {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        let starts = &self.path.starts;
        let n = self.path.segments.len();
        // Advance past finished segments (zero-duration segments have
        // equal consecutive starts and are skipped in the same loop).
        while self.index < n && t >= starts[self.index + 1] {
            self.index += 1;
        }
        if self.index == n {
            return Probe::resting(self.path.end_position());
        }
        let seg = &self.path.segments[self.index];
        let u = t - starts[self.index];
        Probe {
            position: seg.position_at(u),
            piece_end: starts[self.index + 1],
            motion: segment_motion(seg, u),
        }
    }

    fn speed_bound(&self) -> f64 {
        1.0
    }

    /// Tight swept envelope: the exact chunk disk within one segment, a
    /// chunk–tree–chunk union across segments, a point once the path has
    /// ended. Random-access (`partition_point`) index lookups keep the
    /// forward probe state untouched, as the envelope contract requires.
    fn envelope(&mut self, t0: f64, t1: f64) -> Disk {
        let path = self.path;
        let duration = path.duration();
        if path.is_empty() || t0 >= duration {
            return Disk::point(path.end_position());
        }
        let t1 = t1.clamp(t0, duration);
        let starts = &path.starts;
        // First index whose start exceeds t, minus one — same arithmetic
        // as `segment_index_at`, but with the end clamp already applied.
        let locate = |t: f64| -> usize {
            starts
                .partition_point(|&s| s <= t)
                .saturating_sub(1)
                .min(path.segments.len() - 1)
        };
        let i0 = locate(t0);
        let i1 = locate(t1);
        let first = path.segments[i0].chunk_disk(t0 - starts[i0], t1 - starts[i0]);
        if i0 == i1 {
            return first;
        }
        let last = path.segments[i1].chunk_disk(0.0, t1 - starts[i1]);
        let mut acc = first.union(&last);
        if i1 > i0 + 1 {
            let tree = self
                .tree
                .get_or_insert_with(|| DiskTree::build(&path.segments));
            if let Some(mid) = tree.query(i0 + 1, i1 - 1) {
                acc = acc.union(&mid);
            }
        }
        acc
    }
}

impl MonotoneTrajectory for Path {
    type Cursor<'a> = PathCursor<'a>;

    fn cursor(&self) -> PathCursor<'_> {
        PathCursor {
            path: self,
            index: 0,
            tree: None,
            guard: MonotoneGuard::default(),
        }
    }
}

impl FromIterator<Segment> for Path {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        Path::from_segments(iter)
    }
}

/// Incremental, continuity-preserving construction of a [`Path`].
///
/// The builder tracks the current position, so each step only names its
/// *target*; discontinuities are impossible by construction.
///
/// # Example
///
/// ```
/// use rvz_trajectory::PathBuilder;
/// use rvz_geometry::Vec2;
///
/// // SearchCircle(δ) from the paper: out, around, back.
/// let delta = 0.5;
/// let p = PathBuilder::at(Vec2::ZERO)
///     .line_to(Vec2::new(delta, 0.0))
///     .full_circle(Vec2::ZERO)
///     .line_to(Vec2::ZERO)
///     .build();
/// assert!((p.duration() - 2.0 * (std::f64::consts::PI + 1.0) * delta).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct PathBuilder {
    segments: Vec<Segment>,
    current: Vec2,
}

impl PathBuilder {
    /// Starts a path at `start`.
    pub fn at(start: Vec2) -> Self {
        PathBuilder {
            segments: Vec::new(),
            current: start,
        }
    }

    /// Starts a path at the origin.
    pub fn new() -> Self {
        PathBuilder::at(Vec2::ZERO)
    }

    /// The position the next segment will start from.
    pub fn current_position(&self) -> Vec2 {
        self.current
    }

    /// Appends a straight leg to `to`.
    pub fn line_to(mut self, to: Vec2) -> Self {
        self.segments.push(Segment::line(self.current, to));
        self.current = to;
        self
    }

    /// Appends a full counter-clockwise circle around `center` starting
    /// (and ending) at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the current position coincides with `center` (radius 0
    /// circles must be expressed as waits of zero duration instead).
    pub fn full_circle(mut self, center: Vec2) -> Self {
        let offset = self.current - center;
        let radius = offset.norm();
        assert!(
            radius > 0.0,
            "full_circle requires the current position to differ from the center"
        );
        self.segments
            .push(Segment::full_circle(center, radius, offset.angle()));
        self
    }

    /// Appends an arc around `center` through the signed angle `sweep`.
    pub fn arc_around(mut self, center: Vec2, sweep: f64) -> Self {
        let offset = self.current - center;
        let radius = offset.norm();
        let seg = Segment::Arc {
            center,
            radius,
            start_angle: offset.angle(),
            sweep,
        };
        self.current = seg.end();
        self.segments.push(seg);
        self
    }

    /// Appends a wait of `duration` at the current position.
    pub fn wait(mut self, duration: f64) -> Self {
        self.segments.push(Segment::wait(self.current, duration));
        self
    }

    /// Appends all segments of an existing path, which must start at the
    /// current position.
    pub fn append_path(mut self, path: &Path) -> Self {
        if !path.is_empty() {
            self.segments.extend_from_slice(path.segments());
            self.current = path.end_position();
        }
        self
    }

    /// Finishes construction, validating the assembled path.
    pub fn build(self) -> Path {
        Path::from_segments(self.segments)
    }
}

impl Default for PathBuilder {
    fn default() -> Self {
        PathBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::assert_approx_eq;
    use std::f64::consts::PI;

    fn l_path() -> Path {
        PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(2.0, 0.0))
            .line_to(Vec2::new(2.0, 1.0))
            .build()
    }

    #[test]
    fn empty_path() {
        let p = Path::empty();
        assert!(p.is_empty());
        assert_eq!(p.duration(), 0.0);
        assert_eq!(p.position(0.0), Vec2::ZERO);
        assert_eq!(p.position(5.0), Vec2::ZERO);
        assert_eq!(p.segment_index_at(0.0), None);
    }

    #[test]
    fn duration_is_sum_of_segments() {
        let p = l_path();
        assert_eq!(p.duration(), 3.0);
        assert_eq!(p.len(), 2);
        assert_eq!(p.segment_start_time(0), 0.0);
        assert_eq!(p.segment_start_time(1), 2.0);
    }

    #[test]
    fn position_within_and_past_end() {
        let p = l_path();
        assert_eq!(p.position(0.0), Vec2::ZERO);
        assert_eq!(p.position(1.0), Vec2::new(1.0, 0.0));
        assert_eq!(p.position(2.5), Vec2::new(2.0, 0.5));
        assert_eq!(p.position(3.0), Vec2::new(2.0, 1.0));
        assert_eq!(p.position(100.0), Vec2::new(2.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "requires t >= 0")]
    fn negative_time_panics() {
        let _ = l_path().position(-0.1);
    }

    #[test]
    fn segment_boundaries_are_continuous() {
        let p = l_path();
        let eps = 1e-9;
        let at_boundary = p.position(2.0);
        let before = p.position(2.0 - eps);
        assert!(at_boundary.distance(before) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "discontinuity")]
    fn discontinuous_segments_panic() {
        let _ = Path::from_segments([
            Segment::line(Vec2::ZERO, Vec2::UNIT_X),
            Segment::line(Vec2::new(5.0, 5.0), Vec2::ZERO),
        ]);
    }

    #[test]
    #[should_panic(expected = "invalid segment")]
    fn invalid_segment_panics() {
        let _ = Path::from_segments([Segment::wait(Vec2::ZERO, -1.0)]);
    }

    #[test]
    fn builder_circle_roundtrip() {
        let p = PathBuilder::at(Vec2::new(1.0, 0.0))
            .full_circle(Vec2::ZERO)
            .build();
        assert_approx_eq!(p.duration(), 2.0 * PI);
        assert!((p.end_position() - Vec2::new(1.0, 0.0)).norm() < 1e-12);
        // Halfway around the circle.
        assert!((p.position(PI) - Vec2::new(-1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn builder_arc_updates_current() {
        let p = PathBuilder::at(Vec2::new(1.0, 0.0))
            .arc_around(Vec2::ZERO, PI)
            .line_to(Vec2::ZERO)
            .build();
        assert_approx_eq!(p.duration(), PI + 1.0);
    }

    #[test]
    #[should_panic(expected = "full_circle requires")]
    fn circle_at_center_panics() {
        let _ = PathBuilder::at(Vec2::ZERO).full_circle(Vec2::ZERO);
    }

    #[test]
    fn concat_paths() {
        let a = PathBuilder::at(Vec2::ZERO).line_to(Vec2::UNIT_X).build();
        let b = PathBuilder::at(Vec2::UNIT_X)
            .line_to(Vec2::new(1.0, 1.0))
            .build();
        let c = a.concat(&b);
        assert_eq!(c.duration(), 2.0);
        assert_eq!(c.end_position(), Vec2::new(1.0, 1.0));
        // Concat with empty on either side is identity.
        assert_eq!(a.concat(&Path::empty()), a);
        assert_eq!(Path::empty().concat(&a), a);
    }

    #[test]
    fn append_path_in_builder() {
        let circle = PathBuilder::at(Vec2::new(1.0, 0.0))
            .full_circle(Vec2::ZERO)
            .build();
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(1.0, 0.0))
            .append_path(&circle)
            .line_to(Vec2::ZERO)
            .build();
        assert_approx_eq!(p.duration(), 2.0 * (PI + 1.0));
    }

    #[test]
    fn zero_duration_segments_are_tolerated() {
        let p = Path::from_segments([
            Segment::line(Vec2::ZERO, Vec2::ZERO),
            Segment::wait(Vec2::ZERO, 0.0),
            Segment::line(Vec2::ZERO, Vec2::UNIT_X),
        ]);
        assert_eq!(p.duration(), 1.0);
        assert_eq!(p.position(0.5), Vec2::new(0.5, 0.0));
    }

    #[test]
    fn segment_index_lookup() {
        let p = l_path();
        assert_eq!(p.segment_index_at(0.0), Some(0));
        assert_eq!(p.segment_index_at(1.999), Some(0));
        assert_eq!(p.segment_index_at(2.0), Some(1));
        assert_eq!(p.segment_index_at(3.0), None);
    }

    #[test]
    fn cursor_matches_random_access_on_dense_grid() {
        use crate::MonotoneTrajectory;
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(2.0, 0.0))
            .arc_around(Vec2::new(2.0, 1.0), PI)
            .wait(0.5)
            .line_to(Vec2::ZERO)
            .build();
        let mut c = p.cursor();
        let horizon = p.duration() + 1.0;
        let n = 997;
        for i in 0..=n {
            let t = horizon * i as f64 / n as f64;
            let direct = p.position(t);
            let probed = c.probe(t);
            assert!(
                direct.distance(probed.position) < 1e-12,
                "mismatch at t={t}"
            );
            assert!(probed.piece_end > t || probed.piece_end == f64::INFINITY);
        }
    }

    #[test]
    fn cursor_reports_affine_pieces_and_rest() {
        use crate::{MonotoneTrajectory, Motion};
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(2.0, 0.0))
            .wait(1.0)
            .build();
        let mut c = p.cursor();
        let leg = c.probe(0.5);
        assert_eq!(leg.piece_end, 2.0);
        assert_eq!(
            leg.motion,
            Motion::Affine {
                velocity: Vec2::UNIT_X
            }
        );
        let wait = c.probe(2.5);
        assert_eq!(wait.piece_end, 3.0);
        assert_eq!(
            wait.motion,
            Motion::Affine {
                velocity: Vec2::ZERO
            }
        );
        let rest = c.probe(10.0);
        assert_eq!(rest.position, Vec2::new(2.0, 0.0));
        assert_eq!(rest.piece_end, f64::INFINITY);
    }

    #[test]
    fn cursor_skips_zero_duration_segments() {
        use crate::MonotoneTrajectory;
        let p = Path::from_segments([
            Segment::line(Vec2::ZERO, Vec2::ZERO),
            Segment::wait(Vec2::ZERO, 0.0),
            Segment::line(Vec2::ZERO, Vec2::UNIT_X),
        ]);
        let mut c = p.cursor();
        assert_eq!(c.probe(0.5).position, Vec2::new(0.5, 0.0));
    }

    #[test]
    fn cursor_envelope_contains_positions_across_segments() {
        use crate::MonotoneTrajectory;
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(3.0, 0.0))
            .arc_around(Vec2::new(3.0, 1.0), PI)
            .wait(0.5)
            .line_to(Vec2::new(-2.0, 2.0))
            .full_circle(Vec2::ZERO)
            .build();
        let mut c = p.cursor();
        let horizon = p.duration() + 1.0;
        let windows = 37;
        for w in 0..windows {
            let t0 = horizon * w as f64 / windows as f64;
            for span in [0.05, 0.7, 3.9, horizon] {
                // Envelope queries must not disturb the forward state, so
                // a fresh cursor is not needed per window.
                let disk = c.envelope(t0, t0 + span);
                for i in 0..=25 {
                    let t = t0 + span * i as f64 / 25.0;
                    assert!(
                        disk.contains(p.position(t), 1e-9),
                        "envelope [{t0}, {}] misses t={t}",
                        t0 + span
                    );
                }
            }
        }
        // The cursor still probes correctly after envelope queries.
        assert!(c.probe(horizon).position.distance(p.end_position()) < 1e-12);
    }

    #[test]
    fn envelope_within_single_segment_is_exact() {
        use crate::MonotoneTrajectory;
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .build();
        let mut c = p.cursor();
        let disk = c.envelope(2.0, 6.0);
        assert!((disk.center - Vec2::new(4.0, 0.0)).norm() < 1e-12);
        assert!((disk.radius - 2.0).abs() < 1e-12);
        // Past the end: a point at the final position.
        let rest = c.envelope(20.0, 50.0);
        assert_eq!(rest.radius, 0.0);
        assert_eq!(rest.center, Vec2::new(10.0, 0.0));
    }

    #[test]
    fn from_iterator() {
        let p: Path = [Segment::line(Vec2::ZERO, Vec2::UNIT_X)]
            .into_iter()
            .collect();
        assert_eq!(p.duration(), 1.0);
    }
}
