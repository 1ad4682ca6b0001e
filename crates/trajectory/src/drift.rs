//! Time-varying clocks — a future-work extension.
//!
//! The paper's model gives each robot a *constant* clock rate `τ`; its
//! conclusion lists "robots that may have alternative capabilities (e.g.
//! variable speed)" as future work, and its related-work section cites
//! the dynamic-compass literature where an attribute varies over time
//! within known bounds. [`ClockDrift`] models the clock-side analogue: a
//! robot whose local clock advances at a piecewise-constant, positive
//! rate. Composed under a [`FrameWarp`](crate::FrameWarp) it yields a
//! robot whose *effective* `τ` wanders inside `[min_rate, max_rate]`.
//!
//! The beyond-paper experiment in `tests/extensions_drift.rs` shows the
//! universal algorithm still succeeding when the drift band stays on one
//! side of 1 — and documents what happens when it straddles 1.

use crate::monotone::{Cursor, MonotoneGuard, MonotoneTrajectory, Motion, Probe};
use crate::Trajectory;
use rvz_geometry::Vec2;

/// A trajectory evaluated through a drifting local clock.
///
/// The wrapped motion `S(u)` is indexed by *local* time `u`; global time
/// `t` maps to local time through a piecewise-linear, strictly increasing
/// clock map `u = L(t)` defined by per-interval rates. After the last
/// interval the final rate continues forever.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{ClockDrift, FnTrajectory, Trajectory};
/// use rvz_geometry::Vec2;
///
/// // Unit-speed motion along x, but the local clock runs at rate 0.5
/// // for the first 10 global time units, then at rate 2.
/// let inner = FnTrajectory::new(|u| Vec2::new(u, 0.0), 1.0);
/// let drift = ClockDrift::from_rates(inner, &[(10.0, 0.5)], 2.0);
/// assert_eq!(drift.position(10.0), Vec2::new(5.0, 0.0));
/// assert_eq!(drift.position(11.0), Vec2::new(7.0, 0.0));
/// assert_eq!(drift.speed_bound(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClockDrift<T> {
    inner: T,
    /// `(global_end, local_end, rate)` per interval, cumulative; the last
    /// entry's rate extends beyond its end.
    intervals: Vec<(f64, f64, f64)>,
    /// Rate after the final breakpoint.
    tail_rate: f64,
    max_rate: f64,
    min_rate: f64,
}

impl<T> ClockDrift<T> {
    /// Builds a drift from `(global_duration, rate)` intervals followed by
    /// a tail rate that persists forever.
    ///
    /// # Panics
    ///
    /// Panics when any duration or rate is non-positive or non-finite.
    pub fn from_rates(inner: T, intervals: &[(f64, f64)], tail_rate: f64) -> Self {
        assert!(
            tail_rate > 0.0 && tail_rate.is_finite(),
            "tail rate must be positive and finite, got {tail_rate}"
        );
        let mut built = Vec::with_capacity(intervals.len());
        let mut g = 0.0_f64;
        let mut l = 0.0_f64;
        let mut max_rate = tail_rate;
        let mut min_rate = tail_rate;
        for &(duration, rate) in intervals {
            assert!(
                duration > 0.0 && duration.is_finite(),
                "interval duration must be positive and finite, got {duration}"
            );
            assert!(
                rate > 0.0 && rate.is_finite(),
                "clock rate must be positive and finite, got {rate}"
            );
            g += duration;
            l += duration * rate;
            built.push((g, l, rate));
            max_rate = max_rate.max(rate);
            min_rate = min_rate.min(rate);
        }
        ClockDrift {
            inner,
            intervals: built,
            tail_rate,
            max_rate,
            min_rate,
        }
    }

    /// The local-clock reading at global time `t`.
    pub fn local_time(&self, t: f64) -> f64 {
        assert!(t >= 0.0 && !t.is_nan(), "time must be >= 0, got {t}");
        // Find the first interval ending after t.
        let idx = self.intervals.partition_point(|&(g_end, _, _)| g_end <= t);
        if idx == 0 {
            match self.intervals.first() {
                Some(&(_, _, rate)) => t * rate,
                None => t * self.tail_rate,
            }
        } else {
            let (g_prev, l_prev, _) = self.intervals[idx - 1];
            let rate = match self.intervals.get(idx) {
                Some(&(_, _, rate)) => rate,
                None => self.tail_rate,
            };
            l_prev + (t - g_prev) * rate
        }
    }

    /// The global time at which the local clock reads `u` — the inverse
    /// of [`ClockDrift::local_time`] (well-defined: the clock map is
    /// strictly increasing).
    pub fn global_time(&self, u: f64) -> f64 {
        assert!(u >= 0.0 && !u.is_nan(), "local time must be >= 0, got {u}");
        let idx = self.intervals.partition_point(|&(_, l_end, _)| l_end <= u);
        if idx == 0 {
            match self.intervals.first() {
                Some(&(_, _, rate)) => u / rate,
                None => u / self.tail_rate,
            }
        } else {
            let (g_prev, l_prev, _) = self.intervals[idx - 1];
            let rate = match self.intervals.get(idx) {
                Some(&(_, _, rate)) => rate,
                None => self.tail_rate,
            };
            g_prev + (u - l_prev) / rate
        }
    }

    /// The global times of the clock-rate breakpoints, in order.
    pub fn breakpoints(&self) -> impl Iterator<Item = f64> + '_ {
        self.intervals.iter().map(|&(g_end, _, _)| g_end)
    }

    /// The largest instantaneous clock rate.
    pub fn max_rate(&self) -> f64 {
        self.max_rate
    }

    /// The smallest instantaneous clock rate.
    pub fn min_rate(&self) -> f64 {
        self.min_rate
    }

    /// The wrapped trajectory.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Trajectory> Trajectory for ClockDrift<T> {
    fn position(&self, t: f64) -> Vec2 {
        self.inner.position(self.local_time(t))
    }

    fn speed_bound(&self) -> f64 {
        // d/dt S(L(t)) = L'(t)·S'(L(t)), and L' ≤ max_rate everywhere.
        self.max_rate * self.inner.speed_bound()
    }

    fn duration(&self) -> Option<f64> {
        // The inner motion finishes when L(t) reaches its duration; with a
        // positive tail rate that always happens at a finite global time.
        self.inner.duration().map(|d_local| {
            // Invert L at d_local.
            let idx = self
                .intervals
                .partition_point(|&(_, l_end, _)| l_end <= d_local);
            if idx == 0 {
                match self.intervals.first() {
                    Some(&(_, _, rate)) => d_local / rate,
                    None => d_local / self.tail_rate,
                }
            } else {
                let (g_prev, l_prev, _) = self.intervals[idx - 1];
                let rate = match self.intervals.get(idx) {
                    Some(&(_, _, rate)) => rate,
                    None => self.tail_rate,
                };
                g_prev + (d_local - l_prev) / rate
            }
        })
    }
}

/// Cursor of a [`ClockDrift`]: tracks the active clock interval with a
/// forward-only index and drives the inner trajectory's cursor at local
/// time, so each probe costs O(1) instead of a binary search plus the
/// inner lookup.
///
/// An inner affine piece with velocity `v` seen through a clock running
/// at rate `ρ` is affine with velocity `ρ·v`; the piece ends at whichever
/// comes first, the clock breakpoint or the inner piece boundary.
#[derive(Debug, Clone)]
pub struct DriftCursor<'a, T: MonotoneTrajectory> {
    drift: &'a ClockDrift<T>,
    inner: T::Cursor<'a>,
    /// Index of the first interval whose global end exceeds the last
    /// query (== `intervals.len()` once in the tail).
    index: usize,
    /// Largest local time handed to the inner cursor so far. Crossing a
    /// clock breakpoint can make the piecewise-linear map retreat by an
    /// ulp (the cumulative sums round independently); clamping keeps the
    /// inner queries non-decreasing as its contract requires.
    last_local: f64,
    guard: MonotoneGuard,
}

impl<T: MonotoneTrajectory> Cursor for DriftCursor<'_, T> {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        let intervals = &self.drift.intervals;
        while self.index < intervals.len() && intervals[self.index].0 <= t {
            self.index += 1;
        }
        // Same arithmetic as `ClockDrift::local_time` for this interval.
        let (g_base, l_base) = if self.index == 0 {
            (0.0, 0.0)
        } else {
            let (g_prev, l_prev, _) = intervals[self.index - 1];
            (g_prev, l_prev)
        };
        let rate = match intervals.get(self.index) {
            Some(&(_, _, rate)) => rate,
            None => self.drift.tail_rate,
        };
        let local = (l_base + (t - g_base) * rate).max(self.last_local);
        self.last_local = local;
        let p = self.inner.probe(local);
        // The piece ends at the clock breakpoint or when the inner piece
        // ends, whichever is earlier (∞-safe: ∞ / rate = ∞).
        let interval_end = intervals
            .get(self.index)
            .map_or(f64::INFINITY, |&(g_end, _, _)| g_end);
        let inner_end_global = g_base + (p.piece_end - l_base) / rate;
        Probe {
            position: p.position,
            piece_end: interval_end.min(inner_end_global),
            motion: match p.motion {
                Motion::Affine { velocity } => Motion::Affine {
                    velocity: velocity * rate,
                },
                // A clock running at rate ρ leaves the circle in place
                // and scales the angular velocity.
                Motion::Circular {
                    center,
                    radius,
                    angular_velocity,
                    angle,
                } => Motion::Circular {
                    center,
                    radius,
                    angular_velocity: angular_velocity * rate,
                    angle,
                },
                Motion::Curved => Motion::Curved,
            },
        }
    }

    fn speed_bound(&self) -> f64 {
        self.drift.max_rate * self.inner.speed_bound()
    }

    /// A drifting clock reparameterizes time but never moves points, so
    /// the envelope is the inner trajectory's envelope over the mapped
    /// local interval `[L(t0), L(t1)]`.
    ///
    /// The start is folded into `last_local` exactly like a probe: the
    /// random-access `local_time` and the incremental probe arithmetic
    /// round independently, and the clamp keeps the inner cursor's
    /// queries non-decreasing across interleaved probes and envelopes.
    fn envelope(&mut self, t0: f64, t1: f64) -> rvz_geometry::Disk {
        let local0 = self.drift.local_time(t0).max(self.last_local);
        self.last_local = local0;
        let local1 = self.drift.local_time(t1.max(t0)).max(local0);
        self.inner.envelope(local0, local1)
    }

    /// The inner cursor's clearance over the local window
    /// `[L(t0), L(t1)]`, mapped back through the inverse clock map: a
    /// strictly increasing reparameterization keeps the order of visits
    /// and moves no point. The start is folded into `last_local` as in
    /// [`DriftCursor::envelope`].
    fn first_visit(&mut self, t0: f64, t1: f64, center: Vec2, radius: f64) -> f64 {
        let local0 = self.drift.local_time(t0).max(self.last_local);
        self.last_local = local0;
        let local1 = self.drift.local_time(t1.max(t0)).max(local0);
        let local = self.inner.first_visit(local0, local1, center, radius);
        if local <= local0 {
            t0
        } else if local >= local1 {
            t1
        } else {
            self.drift.global_time(local).clamp(t0, t1)
        }
    }
}

impl<T: MonotoneTrajectory> MonotoneTrajectory for ClockDrift<T> {
    type Cursor<'a>
        = DriftCursor<'a, T>
    where
        T: 'a;

    fn cursor(&self) -> Self::Cursor<'_> {
        DriftCursor {
            drift: self,
            inner: self.inner.cursor(),
            index: 0,
            last_local: 0.0,
            guard: MonotoneGuard::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnTrajectory, PathBuilder};

    fn ray() -> impl Trajectory + Clone {
        FnTrajectory::new(|u| Vec2::new(u, 0.0), 1.0)
    }

    #[test]
    fn constant_rate_is_plain_dilation() {
        let d = ClockDrift::from_rates(ray(), &[], 0.5);
        assert_eq!(d.local_time(4.0), 2.0);
        assert_eq!(d.position(4.0), Vec2::new(2.0, 0.0));
        assert_eq!(d.speed_bound(), 0.5);
        assert_eq!(d.min_rate(), 0.5);
        assert_eq!(d.max_rate(), 0.5);
    }

    #[test]
    fn piecewise_rates_accumulate() {
        // 10 @ 0.5 → local 5; then 5 @ 1.5 → local 12.5; tail 1.0.
        let d = ClockDrift::from_rates(ray(), &[(10.0, 0.5), (5.0, 1.5)], 1.0);
        assert_eq!(d.local_time(0.0), 0.0);
        assert_eq!(d.local_time(10.0), 5.0);
        assert_eq!(d.local_time(12.0), 8.0);
        assert_eq!(d.local_time(15.0), 12.5);
        assert_eq!(d.local_time(17.0), 14.5);
        assert_eq!(d.max_rate(), 1.5);
        assert_eq!(d.min_rate(), 0.5);
    }

    #[test]
    fn local_time_is_continuous_and_monotone() {
        let d = ClockDrift::from_rates(ray(), &[(3.0, 0.7), (2.0, 1.2), (4.0, 0.55)], 0.9);
        let mut prev = 0.0;
        let mut t = 0.0;
        while t < 15.0 {
            let l = d.local_time(t);
            assert!(l >= prev, "not monotone at t={t}");
            prev = l;
            t += 0.01;
        }
        // Continuity at a knot.
        let eps = 1e-9;
        assert!((d.local_time(3.0) - d.local_time(3.0 - eps)).abs() < 1e-6);
    }

    #[test]
    fn speed_bound_holds_under_drift() {
        let inner = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(5.0, 0.0))
            .line_to(Vec2::new(5.0, 5.0))
            .build();
        let d = ClockDrift::from_rates(inner, &[(2.0, 1.8), (2.0, 0.3)], 1.0);
        let bound = d.speed_bound();
        assert_eq!(bound, 1.8);
        let mut t = 0.0;
        while t < 12.0 {
            let step = 0.01;
            let moved = d.position(t).distance(d.position(t + step));
            assert!(moved <= bound * step + 1e-9, "t={t}");
            t += step;
        }
    }

    #[test]
    fn finite_inner_duration_inverts() {
        let inner = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(6.0, 0.0))
            .build();
        // Local duration 6; 10 global @ 0.5 covers local 5, rest at rate 2:
        // remaining local 1 takes 0.5 global ⇒ total 10.5.
        let d = ClockDrift::from_rates(inner, &[(10.0, 0.5)], 2.0);
        assert_eq!(d.duration(), Some(10.5));
        assert_eq!(d.position(10.5), Vec2::new(6.0, 0.0));
        assert_eq!(d.position(100.0), Vec2::new(6.0, 0.0));
    }

    #[test]
    fn cursor_matches_random_access_across_breakpoints() {
        let inner = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(5.0, 0.0))
            .wait(2.0)
            .line_to(Vec2::new(5.0, 5.0))
            .build();
        let d = ClockDrift::from_rates(inner, &[(3.0, 0.7), (2.0, 1.2), (4.0, 0.55)], 0.9);
        let mut c = d.cursor();
        for i in 0..=1000 {
            let t = 25.0 * i as f64 / 1000.0;
            let p = c.probe(t);
            assert!(
                p.position.distance(d.position(t)) < 1e-9,
                "mismatch at t={t}"
            );
            assert!(p.piece_end > t || p.piece_end == f64::INFINITY);
        }
    }

    #[test]
    fn cursor_scales_affine_velocity_by_rate() {
        let inner = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(100.0, 0.0))
            .build();
        let d = ClockDrift::from_rates(inner, &[(10.0, 0.5)], 2.0);
        let mut c = d.cursor();
        match c.probe(1.0).motion {
            Motion::Affine { velocity } => {
                assert!((velocity - Vec2::new(0.5, 0.0)).norm() < 1e-15)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Piece ends at the clock breakpoint, not the (later) leg end.
        assert_eq!(c.probe(1.0).piece_end, 10.0);
        match c.probe(11.0).motion {
            Motion::Affine { velocity } => {
                assert!((velocity - Vec2::new(2.0, 0.0)).norm() < 1e-15)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "clock rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ClockDrift::from_rates(ray(), &[(1.0, 0.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "interval duration must be positive")]
    fn zero_duration_rejected() {
        let _ = ClockDrift::from_rates(ray(), &[(0.0, 1.0)], 1.0);
    }
}
