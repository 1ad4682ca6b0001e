//! Amortized-O(1) forward evaluation: the monotone-cursor layer.
//!
//! The conservative-advancement engine in `rvz-sim` queries trajectory
//! positions at strictly non-decreasing times, yet [`Trajectory::position`]
//! is a *random-access* API: every call pays the full lookup cost from
//! scratch (`Path` re-runs its start-time binary search, Algorithm 7
//! re-derives its round/block indexing, `FrameWarp` re-applies the affine
//! stack). This module adds the forward-only counterpart:
//!
//! * [`MonotoneTrajectory`] — implemented by every trajectory in the
//!   workspace; `cursor()` returns a stateful evaluator;
//! * [`Cursor`] — answers non-decreasing [`Cursor::probe`] queries in
//!   amortized O(1) by caching the active piece, and *describes* that
//!   piece (its global end time and motion law) so callers can reason
//!   about the trajectory analytically between boundaries;
//! * [`Probe`] / [`Motion`] — the piece description: on an
//!   [`Motion::Affine`] piece the position is an exact linear function of
//!   time until [`Probe::piece_end`], which is what lets the engine solve
//!   first-contact queries in closed form instead of ulp-crawling.
//!
//! ## The cursor contract
//!
//! For a cursor obtained from `t.cursor()` and queried at non-decreasing
//! times `t₁ ≤ t₂ ≤ …`:
//!
//! 1. **Agreement** — `cursor.probe(tᵢ).position == t.position(tᵢ)` up to
//!    floating-point noise from the incremental evaluation (property-
//!    tested against dense grids for every implementation);
//! 2. **Piece validity** — with `p = cursor.probe(tᵢ)`, for every
//!    `u ∈ [tᵢ, p.piece_end)` the trajectory's motion law holds: on an
//!    affine piece `t.position(u) = p.position + (u − tᵢ)·velocity`
//!    exactly (again up to fp noise); on a [`Motion::Circular`] piece
//!    the position follows the reported circle and phase; on a
//!    [`Motion::Curved`] piece only the trajectory's speed bound is
//!    promised;
//! 3. **Monotonicity** — querying a smaller time than a previous query is
//!    a contract violation (checked with `debug_assert!`, unchecked in
//!    release builds — hot loops must not pay for it);
//! 4. **Persistence** — once a finite trajectory has ended, probes report
//!    an affine piece with zero velocity and `piece_end = ∞`.
//!
//! Implementations may return conservative descriptions (shorter pieces,
//! `Curved` for a piece that happens to be straight); that costs speed,
//! never correctness.
//!
//! ## The envelope extension
//!
//! [`Cursor::envelope`] answers *set* queries: a [`Disk`] guaranteed to
//! contain `position(u)` for every `u ∈ [t0, t1]`. The engine's
//! coarse-to-fine pruning tests `envelope_a.gap(envelope_b) > radius` to
//! discard whole future intervals — entire dyadic sub-rounds — in one
//! query instead of stepping through their Θ(4ᵏ) segments.
//!
//! The contract mirrors `probe`:
//!
//! 5. **Soundness** — the returned disk contains the position at every
//!    time in `[t0, t1]`; a *larger* disk is always a legal (slower)
//!    answer, and the provided default derives one from `position(t0)`
//!    plus the speed bound, so every cursor supports envelopes without
//!    writing any code;
//! 6. **Monotone starts** — an envelope query counts as a query at `t0`
//!    for the monotonicity rule (the default implementation advances the
//!    cursor there); `t1` may lie arbitrarily far ahead and must not
//!    disturb the cursor's forward state.
//!
//! ## The first-visit extension
//!
//! [`Cursor::first_visit`] answers a *clearance* query against a fixed
//! disk: a time `s ∈ [t0, t1]` before which the trajectory provably
//! stays farther than `radius` from `center`. The engine asks it while
//! the other robot waits, which turns the pair into plain search for a
//! point (Section 4's mechanism), so one closed-form query crosses a
//! wait piece that would otherwise take a dozen certified steps.
//!
//! 7. **Soundness** — `|position(u) − center| > radius` for every
//!    `u ∈ [t0, s)`; `s = t1` certifies the whole window, and `s = t0`
//!    (the default) claims nothing. Implementations computed in floating
//!    point inflate `radius` slightly, so a rounded window edge cannot
//!    land inside the disk;
//! 8. **Statelessness** — the query counts as a probe at `t0` for the
//!    monotonicity rule and must not disturb the cursor's forward
//!    state, exactly like an envelope query.

use crate::Trajectory;
use rvz_geometry::{Disk, Vec2};

/// The motion law on the piece a cursor currently sits on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Motion {
    /// Exactly linear motion until the piece ends: from the probe time
    /// `t`, `position(u) = probe.position + (u − t)·velocity` for all
    /// `u ∈ [t, piece_end)`. Waits and rest states are affine with zero
    /// velocity.
    Affine {
        /// Velocity in global coordinates per global time unit.
        velocity: Vec2,
    },
    /// Exactly circular motion until the piece ends: from the probe time
    /// `t`, `position(u) = center + radius·e^{i(angle + ω·(u − t))}` for
    /// all `u ∈ [t, piece_end)` (with `e^{iφ}` the unit vector at angle
    /// `φ`). The dyadic schedules' arcs report this, which lets the
    /// engine solve circle-versus-wait and phase-locked circle pairs in
    /// closed form instead of conservative stepping — on an infeasible
    /// twin pair the relative displacement of two equal-`ω` circular
    /// pieces has *constant* magnitude, so one certificate covers the
    /// entire arc.
    Circular {
        /// Circle center in global coordinates.
        center: Vec2,
        /// Circle radius (≥ 0).
        radius: f64,
        /// Signed angular velocity `ω` in radians per global time unit
        /// (positive = counter-clockwise).
        angular_velocity: f64,
        /// Phase angle at the probe time (radians).
        angle: f64,
    },
    /// No closed form is exposed (spirals, arbitrary closures); only the
    /// trajectory's speed bound constrains the motion.
    Curved,
}

/// One forward query answered by a [`Cursor`]: the position at the query
/// time plus a description of the active piece.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// The position at the queried time (equal to
    /// [`Trajectory::position`] at that time).
    pub position: Vec2,
    /// Global time at which the current piece ends and the reported
    /// [`Motion`] stops being valid; `f64::INFINITY` once the trajectory
    /// rests forever.
    pub piece_end: f64,
    /// The motion law valid on `[t, piece_end)`.
    pub motion: Motion,
}

impl Probe {
    /// A probe for a permanent rest at `position`.
    pub fn resting(position: Vec2) -> Self {
        Probe {
            position,
            piece_end: f64::INFINITY,
            motion: Motion::Affine {
                velocity: Vec2::ZERO,
            },
        }
    }
}

/// A forward-only evaluator over a trajectory.
///
/// Obtained from [`MonotoneTrajectory::cursor`]; see the
/// [module docs](self) for the full contract.
pub trait Cursor {
    /// Advances to time `t` (non-decreasing across calls) and reports the
    /// position plus the active piece.
    fn probe(&mut self, t: f64) -> Probe;

    /// The wrapped trajectory's speed bound (constant over the cursor's
    /// lifetime).
    fn speed_bound(&self) -> f64;

    /// Position only — [`Cursor::probe`] without the piece description.
    fn position(&mut self, t: f64) -> Vec2 {
        self.probe(t).position
    }

    /// A disk guaranteed to contain `position(u)` for all `u ∈ [t0, t1]`
    /// — the swept envelope of the trajectory over the interval.
    ///
    /// The default derives a sound certificate from the probe at `t0`:
    /// the exact segment disk when the active piece is affine and covers
    /// the whole interval, the speed-bound disk
    /// `D(position(t0), speed_bound·(t1−t0))` otherwise. Schedule-aware
    /// implementations override this with closed-form hierarchy bounds
    /// (per-round / per-sub-round disks) that stay tight over intervals
    /// spanning millions of segments.
    ///
    /// The query counts as a probe at `t0` for the monotonicity contract;
    /// see the [module docs](self).
    fn envelope(&mut self, t0: f64, t1: f64) -> Disk {
        let p = self.probe(t0);
        let span = (t1 - t0).max(0.0);
        if span == 0.0 {
            return Disk::point(p.position);
        }
        match p.motion {
            Motion::Affine { velocity } if t1 <= p.piece_end => {
                if velocity == Vec2::ZERO {
                    return Disk::point(p.position);
                }
                if span.is_finite() {
                    return Disk::spanning(p.position, p.position + velocity * span);
                }
            }
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                angle,
            } if t1 <= p.piece_end => {
                // The arc chunk traced over the interval.
                return Disk::arc_chunk(center, radius, angle, angular_velocity * span);
            }
            _ => {}
        }
        let s = self.speed_bound();
        let radius = if span.is_finite() {
            s * span
        } else if s == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        Disk::new(p.position, radius)
    }

    /// A lower bound on the distance from the trajectory over
    /// `[t0, t1]` to the disk `other` (negative when they may overlap)
    /// — the swept-envelope prune test of the contact engine.
    ///
    /// The default is the disk gap of [`Cursor::envelope`], written as
    /// `other.gap(&envelope)`. Cursors whose swept set is much thinner
    /// than its bounding disk (a frame warp through a singular or
    /// strongly anisotropic linear map) override it with a tighter
    /// bound that is never below the disk gap.
    ///
    /// Counts as a probe at `t0`, exactly as [`Cursor::envelope`].
    fn gap_to(&mut self, t0: f64, t1: f64, other: &Disk) -> f64 {
        other.gap(&self.envelope(t0, t1))
    }

    /// A time `s ∈ [t0, t1]` before which the trajectory stays farther
    /// than `radius` from `center`: `|position(u) − center| > radius`
    /// for every `u ∈ [t0, s)`. `s = t1` clears the whole window.
    ///
    /// The default answers `t0`, "unknown". The search schedules answer
    /// from their closed-form contact windows, and frame warps and
    /// drifting clocks map the query to their inner cursor; see the
    /// [module docs](self).
    fn first_visit(&mut self, t0: f64, t1: f64, center: Vec2, radius: f64) -> f64 {
        let _ = (t1, center, radius);
        t0
    }
}

impl<C: Cursor + ?Sized> Cursor for &mut C {
    fn probe(&mut self, t: f64) -> Probe {
        (**self).probe(t)
    }
    fn speed_bound(&self) -> f64 {
        (**self).speed_bound()
    }
    fn envelope(&mut self, t0: f64, t1: f64) -> Disk {
        (**self).envelope(t0, t1)
    }
    fn gap_to(&mut self, t0: f64, t1: f64, other: &Disk) -> f64 {
        (**self).gap_to(t0, t1, other)
    }
    fn first_visit(&mut self, t0: f64, t1: f64, center: Vec2, radius: f64) -> f64 {
        (**self).first_visit(t0, t1, center, radius)
    }
}

impl<C: Cursor + ?Sized> Cursor for Box<C> {
    fn probe(&mut self, t: f64) -> Probe {
        (**self).probe(t)
    }
    fn speed_bound(&self) -> f64 {
        (**self).speed_bound()
    }
    fn envelope(&mut self, t0: f64, t1: f64) -> Disk {
        (**self).envelope(t0, t1)
    }
    fn gap_to(&mut self, t0: f64, t1: f64, other: &Disk) -> f64 {
        (**self).gap_to(t0, t1, other)
    }
    fn first_visit(&mut self, t0: f64, t1: f64, center: Vec2, radius: f64) -> f64 {
        (**self).first_visit(t0, t1, center, radius)
    }
}

/// A trajectory that supports amortized-O(1) monotone evaluation.
///
/// Every trajectory shipped by the workspace implements this; exotic
/// downstream [`Trajectory`] impls can either implement it too or be
/// wrapped in [`GenericCursor`], which degrades gracefully to the plain
/// conservative behavior.
pub trait MonotoneTrajectory: Trajectory {
    /// The cursor type; borrows the trajectory.
    type Cursor<'a>: Cursor
    where
        Self: 'a;

    /// A fresh cursor positioned at time `0`.
    fn cursor(&self) -> Self::Cursor<'_>;
}

impl<T: MonotoneTrajectory + ?Sized> MonotoneTrajectory for &T {
    type Cursor<'a>
        = T::Cursor<'a>
    where
        Self: 'a;

    fn cursor(&self) -> Self::Cursor<'_> {
        (**self).cursor()
    }
}

impl<T: MonotoneTrajectory + ?Sized> MonotoneTrajectory for Box<T> {
    type Cursor<'a>
        = T::Cursor<'a>
    where
        Self: 'a;

    fn cursor(&self) -> Self::Cursor<'_> {
        (**self).cursor()
    }
}

/// Object-safe access to monotone cursors.
///
/// [`MonotoneTrajectory`]'s generic associated cursor type makes it
/// non-object-safe; type-erased callers ([`crate::SoaStream`], the
/// [`crate::Compile`] lowering) use this facade instead. It is
/// implemented automatically for every [`MonotoneTrajectory`].
pub trait MonotoneDyn: Trajectory {
    /// A fresh boxed cursor positioned at time `0`.
    fn dyn_cursor(&self) -> Box<dyn Cursor + '_>;
}

impl<T: MonotoneTrajectory> MonotoneDyn for T {
    fn dyn_cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(self.cursor())
    }
}

/// The graceful-degradation adapter: wraps *any* [`Trajectory`] as a
/// cursor that reports a single [`Motion::Curved`] piece (switching to a
/// permanent rest after a finite duration).
///
/// Driving the engine through two `GenericCursor`s reproduces the plain
/// conservative-advancement behavior exactly, so exotic trajectory types
/// lose the fast path but nothing else.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{Cursor, FnTrajectory, GenericCursor, Motion};
/// use rvz_geometry::Vec2;
///
/// let t = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
/// let mut c = GenericCursor::new(&t);
/// let p = c.probe(2.0);
/// assert_eq!(p.position, Vec2::new(2.0, 0.0));
/// assert_eq!(p.motion, Motion::Curved);
/// ```
#[derive(Debug, Clone)]
pub struct GenericCursor<'a, T: Trajectory + ?Sized> {
    trajectory: &'a T,
    speed_bound: f64,
    /// `duration()` cached once; `None` for infinite trajectories.
    duration: Option<f64>,
    guard: MonotoneGuard,
}

impl<'a, T: Trajectory + ?Sized> GenericCursor<'a, T> {
    /// Wraps a trajectory reference.
    pub fn new(trajectory: &'a T) -> Self {
        GenericCursor {
            trajectory,
            speed_bound: trajectory.speed_bound(),
            duration: trajectory.duration(),
            guard: MonotoneGuard::default(),
        }
    }
}

impl<T: Trajectory + ?Sized> Cursor for GenericCursor<'_, T> {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        match self.duration {
            Some(d) if t >= d => Probe::resting(self.trajectory.position(t)),
            Some(d) => Probe {
                position: self.trajectory.position(t),
                piece_end: d,
                motion: Motion::Curved,
            },
            None => Probe {
                position: self.trajectory.position(t),
                piece_end: f64::INFINITY,
                motion: Motion::Curved,
            },
        }
    }

    fn speed_bound(&self) -> f64 {
        self.speed_bound
    }
}

/// Debug-only enforcement of the non-decreasing-query contract.
///
/// Embed one per cursor and call [`MonotoneGuard::check`] at the top of
/// `probe`. The stored state and the check both compile to nothing in
/// release builds, so hot loops pay zero for the contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotoneGuard {
    #[cfg(debug_assertions)]
    last_query: f64,
}

impl MonotoneGuard {
    /// Asserts (debug-only) that `t` is valid and non-decreasing.
    #[inline]
    pub fn check(&mut self, t: f64) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(!t.is_nan() && t >= 0.0, "cursor time must be >= 0, got {t}");
            debug_assert!(
                t >= self.last_query,
                "cursor queries must be non-decreasing: {t} after {}",
                self.last_query
            );
            self.last_query = t;
        }
        #[cfg(not(debug_assertions))]
        let _ = t;
    }
}

/// The [`Motion`] of one [`Segment`](crate::Segment) probed `u` time
/// units after the segment began, used by every segment-structured
/// cursor (paths, the search schedules). The elapsed time matters only
/// for arcs, whose [`Motion::Circular`] law carries the phase at the
/// probe.
pub fn segment_motion(segment: &crate::Segment, u: f64) -> Motion {
    match *segment {
        crate::Segment::Line { from, to } => {
            let d = from.distance(to);
            if d == 0.0 {
                Motion::Affine {
                    velocity: Vec2::ZERO,
                }
            } else {
                Motion::Affine {
                    velocity: (to - from) / d,
                }
            }
        }
        crate::Segment::Wait { .. } => Motion::Affine {
            velocity: Vec2::ZERO,
        },
        crate::Segment::Arc {
            center,
            radius,
            start_angle,
            sweep,
        } => {
            if radius == 0.0 {
                Motion::Affine {
                    velocity: Vec2::ZERO,
                }
            } else {
                Motion::Circular {
                    center,
                    radius,
                    angular_velocity: sweep.signum() / radius,
                    angle: start_angle + sweep.signum() * (u / radius),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnTrajectory, Segment};

    #[test]
    fn generic_cursor_matches_random_access() {
        let t = FnTrajectory::new(|t| Vec2::new(t.cos(), t.sin()), 1.0);
        let mut c = GenericCursor::new(&t);
        for i in 0..100 {
            let time = i as f64 * 0.37;
            assert_eq!(c.probe(time).position, t.position(time));
        }
    }

    #[test]
    fn generic_cursor_rests_after_finite_duration() {
        let t = FnTrajectory::with_duration(|t| Vec2::new(t, 0.0), 1.0, 3.0);
        let mut c = GenericCursor::new(&t);
        let moving = c.probe(1.0);
        assert_eq!(moving.motion, Motion::Curved);
        assert_eq!(moving.piece_end, 3.0);
        let resting = c.probe(10.0);
        assert_eq!(resting.position, Vec2::new(3.0, 0.0));
        assert_eq!(resting.piece_end, f64::INFINITY);
        assert_eq!(
            resting.motion,
            Motion::Affine {
                velocity: Vec2::ZERO
            }
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn generic_cursor_rejects_backward_queries_in_debug() {
        let t = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let mut c = GenericCursor::new(&t);
        let _ = c.probe(2.0);
        let _ = c.probe(1.0);
    }

    #[test]
    fn segment_motion_classification() {
        let line = Segment::line(Vec2::ZERO, Vec2::new(3.0, 4.0));
        match segment_motion(&line, 0.5) {
            Motion::Affine { velocity } => {
                assert!((velocity - Vec2::new(0.6, 0.8)).norm() < 1e-15);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            segment_motion(&Segment::wait(Vec2::UNIT_X, 2.0), 1.0),
            Motion::Affine {
                velocity: Vec2::ZERO
            }
        );
        match segment_motion(&Segment::full_circle(Vec2::ZERO, 2.0, 0.0), 2.0) {
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                angle,
            } => {
                assert_eq!(center, Vec2::ZERO);
                assert_eq!(radius, 2.0);
                assert_eq!(angular_velocity, 0.5);
                // Arc length 2 on radius 2 = one radian of phase.
                assert!((angle - 1.0).abs() < 1e-15);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Degenerate lines are stationary.
        assert_eq!(
            segment_motion(&Segment::line(Vec2::UNIT_X, Vec2::UNIT_X), 0.0),
            Motion::Affine {
                velocity: Vec2::ZERO
            }
        );
    }

    #[test]
    fn monotone_impls_forward_through_ref_and_box() {
        let p = crate::PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(2.0, 0.0))
            .build();
        let by_ref = &p;
        let mut c = by_ref.cursor();
        assert_eq!(c.probe(1.0).position, Vec2::new(1.0, 0.0));
        let boxed: Box<crate::Path> = Box::new(p);
        let mut c = boxed.cursor();
        assert_eq!(c.probe(2.0).position, Vec2::new(2.0, 0.0));
    }

    #[test]
    fn default_envelope_is_sound_for_curved_motion() {
        let t = FnTrajectory::new(|t| Vec2::new(t.cos(), t.sin()), 1.0);
        let mut c = GenericCursor::new(&t);
        let disk = c.envelope(1.0, 4.0);
        for i in 0..=60 {
            let u = 1.0 + 3.0 * i as f64 / 60.0;
            assert!(disk.contains(t.position(u), 1e-9), "u={u}");
        }
        // Speed-bound fallback: radius = 1·span.
        assert!((disk.radius - 3.0).abs() < 1e-12);
    }

    #[test]
    fn default_envelope_tightens_on_covered_affine_pieces() {
        let p = crate::PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .build();
        let mut c = p.cursor();
        // Whole query inside the single leg: exact segment disk.
        let disk = c.envelope(2.0, 6.0);
        assert!((disk.radius - 2.0).abs() < 1e-12);
        assert!((disk.center - Vec2::new(4.0, 0.0)).norm() < 1e-12);
        // Resting forever: a point, even for an unbounded query.
        let disk = c.envelope(50.0, f64::INFINITY);
        assert_eq!(disk.radius, 0.0);
        assert_eq!(disk.center, Vec2::new(10.0, 0.0));
    }

    #[test]
    fn default_envelope_handles_unbounded_curved_queries() {
        let t = FnTrajectory::new(|t| Vec2::new(t.cos(), t.sin()), 1.0);
        let mut c = GenericCursor::new(&t);
        let disk = c.envelope(0.0, f64::INFINITY);
        assert_eq!(disk.radius, f64::INFINITY);
    }

    #[test]
    fn dyn_monotone_boxes_cursors() {
        let p = crate::PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(1.0, 0.0))
            .build();
        let dynamic: &dyn MonotoneDyn = &p;
        let mut c = dynamic.dyn_cursor();
        assert_eq!(c.probe(0.5).position, Vec2::new(0.5, 0.0));
        assert_eq!(c.speed_bound(), 1.0);
    }
}
