//! Sequential evaluation of lazy segment streams.
//!
//! The paper's algorithms are *infinite* — Algorithm 4 repeats `Search(k)`
//! for `k = 1, 2, 3, …` forever. `rvz-search` and `rvz-core` expose them
//! both as closed-form random-access [`Trajectory`](crate::Trajectory)
//! implementations *and* as plain segment iterators. [`StreamCursor`]
//! walks such an iterator and answers position queries at non-decreasing
//! times; the test suites use it as an independent oracle for the
//! closed-form indexing.

use crate::segment::Segment;
use rvz_geometry::Vec2;

/// A forward-only evaluator over a stream of contiguous segments.
///
/// Queries must be issued at non-decreasing times; the cursor advances
/// through the stream lazily and never stores more than the current
/// segment. If the stream ends, the cursor holds the final position.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{Segment, StreamCursor};
/// use rvz_geometry::Vec2;
///
/// let segs = vec![
///     Segment::line(Vec2::ZERO, Vec2::UNIT_X),
///     Segment::wait(Vec2::UNIT_X, 2.0),
/// ];
/// let mut cursor = StreamCursor::new(segs.into_iter());
/// assert_eq!(cursor.position(0.5), Vec2::new(0.5, 0.0));
/// assert_eq!(cursor.position(2.0), Vec2::UNIT_X);
/// assert_eq!(cursor.position(99.0), Vec2::UNIT_X); // stream exhausted
/// ```
#[derive(Debug, Clone)]
pub struct StreamCursor<I: Iterator<Item = Segment>> {
    stream: I,
    current: Option<Segment>,
    /// Global time at which `current` began.
    segment_start: f64,
    /// Most recent query time (for monotonicity enforcement).
    last_query: f64,
    /// Final position once the stream is exhausted.
    resting: Vec2,
}

impl<I: Iterator<Item = Segment>> StreamCursor<I> {
    /// Creates a cursor at time `0` over `stream`.
    pub fn new(mut stream: I) -> Self {
        let current = stream.next();
        let resting = current.map_or(Vec2::ZERO, |s| s.start());
        StreamCursor {
            stream,
            current,
            segment_start: 0.0,
            last_query: 0.0,
            resting,
        }
    }

    /// Position at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN, negative, or smaller than a previous query
    /// time (the cursor is forward-only).
    pub fn position(&mut self, t: f64) -> Vec2 {
        assert!(!t.is_nan() && t >= 0.0, "cursor time must be >= 0, got {t}");
        assert!(
            t >= self.last_query,
            "cursor queries must be non-decreasing: {t} after {}",
            self.last_query
        );
        self.last_query = t;
        loop {
            let Some(seg) = self.current else {
                return self.resting;
            };
            let end = self.segment_start + seg.duration();
            if t < end {
                return seg.position_at(t - self.segment_start);
            }
            // t is at or past this segment's end: move on. A query exactly
            // at a boundary is answered by the next segment's start, which
            // equals this segment's end by the contiguity invariant.
            self.advance(end);
        }
    }

    fn advance(&mut self, end: f64) {
        self.resting = self.current.map_or(self.resting, |s| s.end());
        self.current = self.stream.next();
        self.segment_start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_legs() -> Vec<Segment> {
        vec![
            Segment::line(Vec2::ZERO, Vec2::new(2.0, 0.0)),
            Segment::line(Vec2::new(2.0, 0.0), Vec2::new(2.0, 2.0)),
        ]
    }

    #[test]
    fn walks_through_segments() {
        let mut c = StreamCursor::new(two_legs().into_iter());
        assert_eq!(c.position(0.0), Vec2::ZERO);
        assert_eq!(c.position(1.0), Vec2::new(1.0, 0.0));
        assert_eq!(c.position(3.0), Vec2::new(2.0, 1.0));
        assert_eq!(c.position(4.0), Vec2::new(2.0, 2.0));
    }

    #[test]
    fn boundary_times_are_consistent() {
        let mut c = StreamCursor::new(two_legs().into_iter());
        // t = 2.0 is the junction; both segments give (2, 0).
        assert_eq!(c.position(2.0), Vec2::new(2.0, 0.0));
    }

    #[test]
    fn exhausted_stream_rests_at_final_position() {
        let mut c = StreamCursor::new(two_legs().into_iter());
        assert_eq!(c.position(100.0), Vec2::new(2.0, 2.0));
        assert_eq!(c.position(200.0), Vec2::new(2.0, 2.0));
    }

    #[test]
    fn empty_stream_rests_at_origin() {
        let mut c = StreamCursor::new(std::iter::empty());
        assert_eq!(c.position(0.0), Vec2::ZERO);
        assert_eq!(c.position(10.0), Vec2::ZERO);
    }

    #[test]
    fn repeated_equal_times_are_allowed() {
        let mut c = StreamCursor::new(two_legs().into_iter());
        assert_eq!(c.position(1.5), c.position(1.5));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn going_backwards_panics() {
        let mut c = StreamCursor::new(two_legs().into_iter());
        let _ = c.position(3.0);
        let _ = c.position(1.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn negative_time_panics() {
        let mut c = StreamCursor::new(two_legs().into_iter());
        let _ = c.position(-1.0);
    }

    #[test]
    fn works_with_infinite_streams() {
        // An endless staircase: right 1, up 1, right 1, up 1, ...
        let stairs = (0..).map(|i| {
            let step = i / 2;
            let x = (step + (i % 2)) as f64;
            let y = step as f64;
            if i % 2 == 0 {
                Segment::line(Vec2::new(x, y), Vec2::new(x + 1.0, y))
            } else {
                Segment::line(Vec2::new(x, y), Vec2::new(x, y + 1.0))
            }
        });
        let mut c = StreamCursor::new(stairs);
        assert_eq!(c.position(1.0), Vec2::new(1.0, 0.0));
        assert_eq!(c.position(2.0), Vec2::new(1.0, 1.0));
        assert_eq!(c.position(10.0), Vec2::new(5.0, 5.0));
        assert_eq!(c.position(10.5), Vec2::new(5.5, 5.0));
    }
}
