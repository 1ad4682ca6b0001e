//! The flat piecewise IR: trajectories compiled to one arena of pieces.
//!
//! Every schedule in the paper — dyadic wait-and-search rounds,
//! Algorithm 7 phases, the universal search — is a finite composition of
//! affine legs, circular arcs and waits. The cursor layer
//! ([`crate::monotone`]) already *exposes* that structure one piece at a
//! time; this module lowers it **once** into a [`CompiledProgram`]:
//!
//! * a flat arena of [`Piece`]s (`t0`, `t1`, start position, exact
//!   [`Motion`] law), with every combinator — [`FrameWarp`](crate::FrameWarp)
//!   frames, [`ClockDrift`](crate::ClockDrift) reparameterizations —
//!   applied **at lowering time**, so downstream consumers see plain
//!   warped pieces and never pay the matrix/clock arithmetic per probe;
//! * a **baked envelope tree** — a flattened binary union tree over the
//!   per-piece bounding disks — answering swept-envelope queries over any
//!   `[t0, t1]` in `O(log n)` with zero per-query allocation (the cursor
//!   layer's `Path` tree is built lazily *per cursor*; here it is built
//!   once per program);
//! * **round marks**: the coarse schedule boundaries (search rounds,
//!   Algorithm 7 phases) recorded as times, which the engine uses to seed
//!   its pruning windows at the schedule's natural granularity.
//!
//! ## Lowering, budgets, and curved pieces
//!
//! [`Compile::compile`] drives the trajectory's own monotone cursor from
//! `t = 0` and records each reported piece. Lowering is bounded by a
//! [`CompileOptions`] horizon and piece budget: the dyadic schedules hold
//! Θ(4ᵏ) segments in round `k`, so a deep horizon is *deliberately*
//! truncated at the budget (the program then covers a prefix, see
//! [`CompiledProgram::covers`]) rather than silently materializing
//! millions of pieces. The eager lowering is one consumer of the shared
//! piece producer; [`SoaStream`](crate::SoaStream) drains the same
//! producer *on demand*, straight into structure-of-arrays columns, so
//! lowering cost is proportional to the time a query actually examines
//! rather than the horizon.
//!
//! Trajectories that expose a [`Motion::Curved`] piece (the Archimedean
//! spiral, arbitrary `FnTrajectory` closures) have no exact closed-form
//! pieces: they refuse to lower with [`CompileError::Curved`] and keep
//! running on the cursor engines. Every schedule of the paper is legs,
//! circles and waits, and every robot frame is a similarity, so no
//! production lowering meets a curved piece.
//!
//! A compiled program is itself a [`Trajectory`] +
//! [`MonotoneTrajectory`](crate::MonotoneTrajectory)
//! over its covered span, so it flows through every existing engine
//! entry point; the dedicated monomorphic fast path lives in
//! `rvz_sim::compiled` and runs on two [`CompiledProgram`]s.

use crate::monotone::{Cursor, MonotoneDyn, MonotoneGuard, Motion, Probe};
use crate::Trajectory;
use rvz_geometry::{Aabb, Disk, Vec2};
use std::fmt;
use std::sync::Arc;

/// One entry of the flat arena: an exact motion law on `[t0, t1]`.
///
/// The law is evaluable in closed form: an affine piece moves at a
/// constant velocity from [`Piece::pos0`]; a circular piece follows the
/// stored circle from the stored phase. [`Motion::Curved`] never appears
/// in a compiled program — curved spans refuse to lower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Piece {
    /// Global start time of the piece.
    pub t0: f64,
    /// Global end time of the piece (`> t0`).
    pub t1: f64,
    /// Position at `t0`.
    pub pos0: Vec2,
    /// The motion law, with circular phases anchored at `t0`.
    pub motion: Motion,
}

impl Piece {
    /// The exact position at global time `t ∈ [t0, t1]`.
    #[inline]
    pub fn position_at(&self, t: f64) -> Vec2 {
        let u = t - self.t0;
        match self.motion {
            Motion::Affine { velocity } => self.pos0 + velocity * u,
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                angle,
            } => center + Vec2::from_polar(radius, angle + angular_velocity * u),
            Motion::Curved => {
                unreachable!(
                    "compiled programs never hold curved pieces (curved spans refuse to lower)"
                )
            }
        }
    }

    /// A cursor-style [`Probe`] at global time `t ∈ [t0, t1)`: the
    /// position plus the motion law **rebased** to `t` (circular phases
    /// advance with the probe, exactly as the cursor contract requires).
    #[inline]
    pub fn probe_at(&self, t: f64) -> Probe {
        let u = t - self.t0;
        let (position, motion) = match self.motion {
            Motion::Affine { velocity } => (self.pos0 + velocity * u, self.motion),
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                angle,
            } => {
                let phase = angle + angular_velocity * u;
                (
                    center + Vec2::from_polar(radius, phase),
                    Motion::Circular {
                        center,
                        radius,
                        angular_velocity,
                        angle: phase,
                    },
                )
            }
            Motion::Curved => {
                unreachable!(
                    "compiled programs never hold curved pieces (curved spans refuse to lower)"
                )
            }
        };
        Probe {
            position,
            piece_end: self.t1,
            motion,
        }
    }

    /// The bounding disk of the whole piece.
    pub fn disk(&self) -> Disk {
        self.chunk_disk(self.t0, self.t1)
    }

    /// A bounding box of the whole piece (the baked-tree leaf).
    pub fn bounding_box(&self) -> Aabb {
        self.chunk_box(self.t0, self.t1)
    }

    /// A bounding box of the sub-interval `[a, b] ⊆ [t0, t1]`: exact
    /// for affine pieces, the arc-chunk disk's box for circular ones.
    pub fn chunk_box(&self, a: f64, b: f64) -> Aabb {
        match self.motion {
            Motion::Affine { velocity } => {
                let ua = a - self.t0;
                let from = self.pos0 + velocity * ua;
                Aabb::spanning(from, from + velocity * (b - a).max(0.0))
            }
            _ => Aabb::from_disk(&self.chunk_disk(a, b)),
        }
    }

    /// The bounding disk of the sub-interval `[a, b] ⊆ [t0, t1]`.
    pub fn chunk_disk(&self, a: f64, b: f64) -> Disk {
        let ua = a - self.t0;
        let span = (b - a).max(0.0);
        match self.motion {
            Motion::Affine { velocity } => {
                let from = self.pos0 + velocity * ua;
                if velocity == Vec2::ZERO || span == 0.0 {
                    Disk::point(from)
                } else {
                    Disk::spanning(from, from + velocity * span)
                }
            }
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                angle,
            } => Disk::arc_chunk(
                center,
                radius,
                angle + angular_velocity * ua,
                angular_velocity * span,
            ),
            Motion::Curved => {
                unreachable!(
                    "compiled programs never hold curved pieces (curved spans refuse to lower)"
                )
            }
        }
    }
}

/// Tuning for [`Compile::compile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Lowering stops once the pieces cover this global time (the
    /// engine's query horizon; finite trajectories may finish earlier
    /// and rest).
    pub horizon: f64,
    /// Hard cap on materialized pieces. The dyadic schedules hold Θ(4ᵏ)
    /// segments per round, so an unbounded lowering of a deep horizon
    /// would silently eat memory; hitting the cap returns a **partial**
    /// program covering a prefix (the engines' partial entry points
    /// refuse a query that needs uncovered time instead of answering
    /// wrongly).
    pub max_pieces: usize,
}

impl CompileOptions {
    /// Options lowering up to `horizon` with the default piece budget
    /// (`65 536`).
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is positive and finite.
    pub fn to_horizon(horizon: f64) -> Self {
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "compile horizon must be positive and finite, got {horizon}"
        );
        CompileOptions {
            horizon,
            max_pieces: 65_536,
        }
    }

    /// Replaces the piece budget.
    ///
    /// # Panics
    ///
    /// Panics when `max_pieces` is zero.
    pub fn max_pieces(mut self, max_pieces: usize) -> Self {
        assert!(max_pieces > 0, "piece budget must be positive");
        self.max_pieces = max_pieces;
        self
    }
}

/// Why a trajectory could not be lowered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompileError {
    /// The trajectory exposed a [`Motion::Curved`] piece at the given
    /// time — no closed form exists, so it stays on the cursor path.
    Curved {
        /// The global time of the unloweable piece.
        at: f64,
    },
    /// The cursor reported a piece that does not advance time — a
    /// cursor-contract violation surfaced as an error rather than an
    /// infinite loop.
    Stalled {
        /// The time at which lowering stopped making progress.
        at: f64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Curved { at } => {
                write!(f, "curved piece at t={at}: no closed-form lowering")
            }
            CompileError::Stalled { at } => write!(f, "cursor stalled at t={at}"),
        }
    }
}

/// A trajectory lowered to the flat piecewise IR.
///
/// Pieces tile `[0, end_time]` contiguously; after `end_time` the
/// program either rests forever at a fixed point (finite trajectories)
/// or is **uncovered** (a truncated lowering of an infinite schedule —
/// see [`CompiledProgram::covers`]).
///
/// # Example
///
/// ```
/// use rvz_trajectory::program::{Compile, CompileOptions};
/// use rvz_trajectory::{PathBuilder, Trajectory};
/// use rvz_geometry::Vec2;
///
/// let path = PathBuilder::at(Vec2::ZERO)
///     .line_to(Vec2::new(2.0, 0.0))
///     .wait(1.0)
///     .build();
/// let program = path.compile(&CompileOptions::to_horizon(10.0)).unwrap();
/// assert_eq!(program.pieces().len(), 2);
/// assert!(program.covers(1e9)); // finite: rests forever after t = 3
/// assert_eq!(program.position(1.5), Vec2::new(1.5, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pieces: Vec<Piece>,
    /// `starts[i] == pieces[i].t0`, kept densely for cache-friendly
    /// binary searches (a `Piece` is 48 bytes; envelope queries locate
    /// twice per call).
    starts: Vec<f64>,
    /// Flattened binary union tree over per-piece bounding boxes: node
    /// `i` covers nodes `2i`/`2i+1`, leaves sit at `size + piece_index`,
    /// missing leaves hold [`Aabb::EMPTY`] (the union identity). Baked
    /// at compile time — envelope queries allocate nothing, and a box
    /// union is four branchless min/max ops. Shared, not copied, with
    /// the SoA arenas transposed from this program.
    tree: Arc<Vec<Aabb>>,
    size: usize,
    /// Time covered by the arena (`pieces.last().t1`, or `0` for an
    /// immediately-resting trajectory).
    end_time: f64,
    /// `Some(p)`: the trajectory holds `p` forever after `end_time`.
    rest: Option<Vec2>,
    speed_bound: f64,
    /// Coarse schedule boundaries (round/phase starts) within the
    /// covered span, strictly increasing.
    marks: Vec<f64>,
}

impl CompiledProgram {
    /// The piece arena.
    pub fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// Global time up to which the arena is exact.
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// The rest position, when the trajectory finishes within the
    /// compiled span and holds its final position forever.
    pub fn rest(&self) -> Option<Vec2> {
        self.rest
    }

    /// The wrapped trajectory's speed bound.
    pub fn speed_bound(&self) -> f64 {
        self.speed_bound
    }

    /// The recorded round marks (coarse schedule boundaries).
    pub fn round_marks(&self) -> &[f64] {
        &self.marks
    }

    /// The baked envelope tree and its leaf offset, for transposers
    /// that keep the piece set (and hence the leaf boxes) identical —
    /// sharing the baked tree skips re-deriving every arc-chunk disk.
    pub(crate) fn baked_tree(&self) -> (&Arc<Vec<Aabb>>, usize) {
        (&self.tree, self.size)
    }

    /// `true` when every query in `[0, t]` is answerable exactly: the
    /// arena reaches `t`, or the trajectory rests before it.
    pub fn covers(&self, t: f64) -> bool {
        self.rest.is_some() || t <= self.end_time
    }

    /// The first round mark strictly after `t`, if any.
    pub fn next_mark_after(&self, t: f64) -> Option<f64> {
        let i = self.marks.partition_point(|&m| m <= t);
        self.marks.get(i).copied()
    }

    /// Index of the piece containing `t` (clamped to the last piece for
    /// `t ≥ end_time`; meaningless for empty arenas).
    pub fn piece_index_at(&self, t: f64) -> usize {
        self.starts
            .partition_point(|&s| s <= t)
            .saturating_sub(1)
            .min(self.pieces.len().saturating_sub(1))
    }

    /// Forward probe driven by an external index (the engine's inlined
    /// cursor): advances `index` past finished pieces and reports the
    /// active piece at `t`, or the permanent rest.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `t` lies beyond the covered span of a
    /// truncated program; callers gate on [`CompiledProgram::covers`].
    #[inline]
    pub fn probe_from(&self, index: &mut usize, t: f64) -> Probe {
        // A short linear walk (the common case: the next piece or the
        // one after), then a binary search over the remaining starts —
        // a pruning skip can jump an entire Θ(4ᵏ) round, and walking it
        // piece by piece would swamp the query.
        let pieces = &self.pieces;
        let n = pieces.len();
        let mut i = *index;
        let mut hops = 0;
        while i < n && t >= pieces[i].t1 {
            i += 1;
            hops += 1;
            if hops == 8 && i < n && t >= pieces[i].t1 {
                i += self.starts[i..].partition_point(|&s| s <= t);
                i = i.saturating_sub(1).max(*index);
                // The found piece may already be finished (t == its t1
                // exactly); let the loop's next test settle it.
                while i < n && t >= pieces[i].t1 {
                    i += 1;
                }
                break;
            }
        }
        *index = i;
        if i == n {
            debug_assert!(
                self.rest.is_some() || t <= self.end_time * (1.0 + 16.0 * f64::EPSILON),
                "probe at t={t} beyond the covered span {}",
                self.end_time
            );
            return match self.rest {
                Some(p) => Probe::resting(p),
                // `t == end_time` on a truncated program: the boundary
                // itself still evaluates on the final piece.
                None => pieces[n - 1].probe_at(t.min(self.end_time)),
            };
        }
        pieces[i].probe_at(t)
    }

    /// The swept envelope over `[t0, t1]` as a bounding box: contains
    /// the position at every covered time in the interval.
    ///
    /// Purely functional (`&self`, zero allocation): partial chunks of
    /// the boundary pieces plus an `O(log n)` union over the baked tree,
    /// every union four branchless min/max ops. Beyond the covered span
    /// the box grows at the speed bound — sound for any continuation, so
    /// envelope look-aheads may cross the truncation boundary even
    /// though probes may not.
    pub fn envelope_box(&self, t0: f64, t1: f64) -> Aabb {
        let t1 = t1.max(t0);
        if self.pieces.is_empty() {
            // Rest-only program (or empty trajectory pinned at a point).
            return Aabb::point(self.rest.unwrap_or(Vec2::ZERO));
        }
        if let Some(p) = self.rest {
            if t0 >= self.end_time {
                return Aabb::point(p);
            }
            // Positions after `end_time` equal the final piece's end, so
            // clamping is exact, not just sound.
            return self.envelope_within(t0, t1.min(self.end_time));
        }
        if t0 >= self.end_time {
            // Entirely uncovered: all we know is the end point plus the
            // speed bound.
            let anchor = self.pieces[self.pieces.len() - 1].position_at(self.end_time);
            return grow_box(Aabb::point(anchor), self.speed_bound, t1 - self.end_time);
        }
        if t1 > self.end_time {
            let base = self.envelope_within(t0, self.end_time);
            return grow_box(base, self.speed_bound, t1 - self.end_time);
        }
        self.envelope_within(t0, t1)
    }

    /// [`CompiledProgram::envelope_box`] as a disk, for the
    /// [`Cursor`] envelope contract (the circumscribed disk of the box —
    /// at most √2 looser, always sound).
    pub fn envelope(&self, t0: f64, t1: f64) -> Disk {
        self.envelope_box(t0, t1).to_disk()
    }

    /// [`CompiledProgram::envelope_box`] restricted to the covered span.
    fn envelope_within(&self, t0: f64, t1: f64) -> Aabb {
        let i0 = self.piece_index_at(t0);
        let i1 = self.piece_index_at(t1);
        let first = self.pieces[i0].chunk_box(t0, t1.min(self.pieces[i0].t1));
        if i0 == i1 {
            return first;
        }
        let last = self.pieces[i1].chunk_box(self.pieces[i1].t0, t1);
        let mut acc = first.union(&last);
        if i1 > i0 + 1 {
            acc = acc.union(&self.tree_query(i0 + 1, i1 - 1));
        }
        acc
    }

    /// Union of the piece boxes in the inclusive index range `[l, r]`.
    fn tree_query(&self, l: usize, r: usize) -> Aabb {
        tree_range_union(&self.tree, self.size, l, r)
    }
}

/// Bakes the flattened binary union tree over per-piece bounding boxes
/// (leaves at `size + i`, parents the union of their children). Shared
/// by [`assemble_program`] and the SoA arena so both lay the tree out
/// identically.
pub(crate) fn bake_tree(boxes: impl ExactSizeIterator<Item = Aabb>) -> (Vec<Aabb>, usize) {
    let size = boxes.len().next_power_of_two().max(1);
    let mut tree = vec![Aabb::EMPTY; 2 * size];
    for (i, b) in boxes.enumerate() {
        tree[size + i] = b;
    }
    for i in (1..size).rev() {
        tree[i] = tree[2 * i].union(&tree[2 * i + 1]);
    }
    (tree, size)
}

/// Union over the inclusive leaf range `[l, r]` of a baked tree:
/// iterative segment-tree walk, every union four branchless min/max ops.
pub(crate) fn tree_range_union(tree: &[Aabb], size: usize, l: usize, r: usize) -> Aabb {
    let mut l = l + size;
    let mut r = r + size + 1;
    let mut acc = Aabb::EMPTY;
    while l < r {
        if l & 1 == 1 {
            acc = acc.union(&tree[l]);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            acc = acc.union(&tree[r]);
        }
        l >>= 1;
        r >>= 1;
    }
    acc
}

/// A box grown to stay sound `span` time units past its certificate,
/// at speed `s` (∞-safe).
pub(crate) fn grow_box(base: Aabb, s: f64, span: f64) -> Aabb {
    if s == 0.0 || span <= 0.0 {
        return base;
    }
    let extra = if span.is_finite() {
        s * span
    } else {
        f64::INFINITY
    };
    base.expanded(extra)
}

impl Trajectory for CompiledProgram {
    /// The exact position within the covered span; past a truncated
    /// span the final covered position is held (debug builds assert
    /// coverage instead — gate on [`CompiledProgram::covers`]).
    fn position(&self, t: f64) -> Vec2 {
        debug_assert!(t >= 0.0 && !t.is_nan(), "position requires t >= 0, got {t}");
        if t >= self.end_time || self.pieces.is_empty() {
            if let Some(p) = self.rest {
                return p;
            }
            debug_assert!(
                t <= self.end_time * (1.0 + 16.0 * f64::EPSILON),
                "position at t={t} beyond the covered span {}",
                self.end_time
            );
            return match self.pieces.last() {
                Some(p) => p.position_at(self.end_time),
                None => Vec2::ZERO,
            };
        }
        self.pieces[self.piece_index_at(t)].position_at(t)
    }

    fn speed_bound(&self) -> f64 {
        self.speed_bound
    }

    fn duration(&self) -> Option<f64> {
        self.rest.map(|_| self.end_time)
    }
}

/// The monotone cursor of a [`CompiledProgram`]: one forward index, no
/// lazy state (the envelope tree is baked), no allocation.
#[derive(Debug, Clone)]
pub struct ProgramCursor<'a> {
    program: &'a CompiledProgram,
    index: usize,
    guard: MonotoneGuard,
}

impl Cursor for ProgramCursor<'_> {
    fn probe(&mut self, t: f64) -> Probe {
        self.guard.check(t);
        self.program.probe_from(&mut self.index, t)
    }

    fn speed_bound(&self) -> f64 {
        self.program.speed_bound
    }

    fn envelope(&mut self, t0: f64, t1: f64) -> Disk {
        self.program.envelope(t0, t1)
    }
}

impl crate::monotone::MonotoneTrajectory for CompiledProgram {
    type Cursor<'a> = ProgramCursor<'a>;

    fn cursor(&self) -> ProgramCursor<'_> {
        ProgramCursor {
            program: self,
            index: 0,
            guard: MonotoneGuard::default(),
        }
    }
}

/// Lowering to the flat IR.
///
/// The default [`Compile::compile`] drives the trajectory's own monotone
/// cursor; implementors only override [`Compile::round_marks`] to expose
/// their coarse schedule boundaries (and may override `compile` itself
/// for bespoke lowerings). The trait is object-safe, so heterogeneous
/// collections can lower through `&dyn Compile`.
pub trait Compile: MonotoneDyn {
    /// Lowers the trajectory to a [`CompiledProgram`] covering
    /// `[0, opts.horizon]` (or the trajectory's full finite span).
    ///
    /// # Errors
    ///
    /// [`CompileError::Curved`] when the trajectory exposes a curved
    /// piece; [`CompileError::Stalled`] on a cursor that stops
    /// advancing.
    fn compile(&self, opts: &CompileOptions) -> Result<CompiledProgram, CompileError> {
        lower_program(self, opts)
    }

    /// Times of the trajectory's coarse schedule boundaries within
    /// `[0, horizon]` — search-round starts, Algorithm 7 phase edges.
    /// Used to seed the engine's pruning windows; empty by default
    /// (sound: marks are hints, never required).
    fn round_marks(&self, horizon: f64) -> Vec<f64> {
        let _ = horizon;
        Vec::new()
    }
}

impl<T: Compile + crate::MonotoneTrajectory + ?Sized> Compile for &T {
    fn compile(&self, opts: &CompileOptions) -> Result<CompiledProgram, CompileError> {
        (**self).compile(opts)
    }
    fn round_marks(&self, horizon: f64) -> Vec<f64> {
        (**self).round_marks(horizon)
    }
}

/// One event produced by a [`PieceStream`].
pub(crate) enum LoweredStep {
    /// The next piece. `counted` pieces are subject to the piece budget
    /// (the horizon-closing cut of an infinite moving piece is exempt,
    /// exactly as in the historical eager loop).
    Piece { piece: Piece, counted: bool },
    /// The trajectory rests forever at this position from the stream's
    /// current time on.
    Rest(Vec2),
    /// The horizon is covered; the stream will produce nothing further.
    Finished,
}

/// The single piece producer behind both the eager lowering and
/// [`SoaStream`](crate::SoaStream): drives a cursor forward, applies the
/// ulp stall nudges, and refuses curved pieces. Because both consumers
/// drain the *same* producer, a stream's materialized prefix is
/// bit-identical to the eager lowering's.
pub(crate) struct PieceStream<C> {
    cursor: C,
    horizon: f64,
    t: f64,
    finished: bool,
}

impl<C: Cursor> PieceStream<C> {
    pub(crate) fn new(cursor: C, horizon: f64) -> Self {
        PieceStream {
            cursor,
            horizon,
            t: 0.0,
            finished: false,
        }
    }

    /// Produces the next lowering event.
    pub(crate) fn next_step(&mut self) -> Result<LoweredStep, CompileError> {
        if self.finished {
            return Ok(LoweredStep::Finished);
        }
        let t = self.t;
        // The schedules' independently rounded closed forms can put a
        // piece boundary an ulp past the previous piece's reported end;
        // probing exactly there can land back on the finished piece.
        // Nudge forward by single ulps (bounded) before declaring a
        // stall — the sub-ulp time skew is far below the 1e-12 fidelity
        // the compiled positions are tested to.
        let mut p = self.cursor.probe(t);
        let mut probe_t = t;
        let mut bumps = 0;
        while p.piece_end <= t && bumps < 4 {
            probe_t = probe_t.next_up();
            p = self.cursor.probe(probe_t);
            bumps += 1;
        }
        if let Motion::Curved = p.motion {
            return Err(CompileError::Curved { at: t });
        }
        if p.piece_end == f64::INFINITY {
            if p.motion
                == (Motion::Affine {
                    velocity: Vec2::ZERO,
                })
            {
                // Permanent rest: the trajectory finished.
                self.finished = true;
                return Ok(LoweredStep::Rest(p.position));
            }
            // An infinite moving piece (no trajectory in the workspace
            // produces one, but the contract allows it): close the
            // arena at the horizon.
            self.finished = true;
            self.t = self.horizon;
            return Ok(LoweredStep::Piece {
                piece: Piece {
                    t0: t,
                    t1: self.horizon,
                    pos0: p.position,
                    motion: p.motion,
                },
                counted: false,
            });
        }
        if p.piece_end <= t {
            return Err(CompileError::Stalled { at: t });
        }
        let t1 = p.piece_end.min(self.horizon);
        if p.piece_end >= self.horizon {
            self.finished = true;
            self.t = self.horizon;
        } else {
            self.t = p.piece_end;
        }
        Ok(LoweredStep::Piece {
            piece: Piece {
                t0: t,
                t1,
                pos0: p.position,
                motion: p.motion,
            },
            counted: true,
        })
    }
}

/// Lowers any [`Compile`] source to an eager [`CompiledProgram`]. This
/// is the body of the default [`Compile::compile`]; it exists as a free
/// function so the trait stays object-safe.
///
/// # Errors
///
/// As for [`Compile::compile`].
pub fn lower_program<T: Compile + ?Sized>(
    source: &T,
    opts: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    rvz_obs::span!("lower");
    let marks = source.round_marks(opts.horizon);
    let program = lower_from_cursor(&mut *source.dyn_cursor(), source.speed_bound(), marks, opts)?;
    rvz_obs::counter!("rvz_lowered_pieces_total").add(program.pieces().len() as u64);
    Ok(program)
}

/// The lowering loop: walk a cursor piece by piece and bake the arena,
/// the envelope tree, and the marks.
///
/// # Errors
///
/// As for [`Compile::compile`].
pub fn lower_from_cursor(
    cursor: &mut dyn Cursor,
    speed_bound: f64,
    marks: Vec<f64>,
    opts: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    assert!(
        opts.horizon > 0.0 && opts.horizon.is_finite(),
        "compile horizon must be positive and finite, got {}",
        opts.horizon
    );
    assert!(opts.max_pieces > 0, "piece budget must be positive");
    let mut stream = PieceStream::new(cursor, opts.horizon);
    let mut pieces: Vec<Piece> = Vec::new();
    let mut rest = None;
    loop {
        match stream.next_step()? {
            LoweredStep::Piece { piece, counted } => {
                if counted && pieces.len() == opts.max_pieces {
                    break;
                }
                pieces.push(piece);
            }
            LoweredStep::Rest(p) => {
                rest = Some(p);
                break;
            }
            LoweredStep::Finished => break,
        }
    }
    Ok(assemble_program(pieces, marks, rest, speed_bound))
}

/// Bakes a piece arena into a [`CompiledProgram`]: envelope tree,
/// dense start index, and the marks within the pieces' span.
fn assemble_program(
    pieces: Vec<Piece>,
    marks: Vec<f64>,
    rest: Option<Vec2>,
    speed_bound: f64,
) -> CompiledProgram {
    let end_time = pieces.last().map_or(0.0, |p| p.t1);

    // Bake the envelope tree.
    let (tree, size) = bake_tree(pieces.iter().map(Piece::bounding_box));

    let marks = normalize_marks(marks, end_time);
    let starts = pieces.iter().map(|p| p.t0).collect();
    CompiledProgram {
        pieces,
        starts,
        tree: Arc::new(tree),
        size,
        end_time,
        rest,
        speed_bound,
        marks,
    }
}

/// Round marks as both arenas keep them: finite, positive, at most
/// `end`, strictly increasing.
pub(crate) fn normalize_marks(marks: Vec<f64>, end: f64) -> Vec<f64> {
    let mut marks: Vec<f64> = marks
        .into_iter()
        .filter(|&m| m.is_finite() && m > 0.0 && m <= end)
        .collect();
    marks.sort_by(f64::total_cmp);
    marks.dedup();
    marks
}

// ------------------------------------------------------------------
// Compile impls for the in-crate trajectory types. Schedule crates
// (rvz-search, rvz-core, rvz-sim, rvz-baselines) implement the trait
// for their own types next to their cursor impls.
// ------------------------------------------------------------------

impl Compile for crate::Path {
    /// Segment start times — paths have no coarser structure than their
    /// pieces, but the marks make multi-path concatenations align.
    fn round_marks(&self, horizon: f64) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.segment_start_time(i))
            .take_while(|&s| s <= horizon)
            .collect()
    }
}

impl<T: Compile + crate::MonotoneTrajectory> Compile for crate::FrameWarp<T> {
    /// Inner marks mapped through the time dilation: a boundary at local
    /// time `u` happens at global time `u·τ`.
    fn round_marks(&self, horizon: f64) -> Vec<f64> {
        let tau = self.time_scale();
        self.inner()
            .round_marks(horizon / tau)
            .into_iter()
            .map(|u| u * tau)
            .collect()
    }
}

impl<T: Compile + crate::MonotoneTrajectory> Compile for crate::ClockDrift<T> {
    /// Inner marks mapped through the inverse clock, plus the clock's
    /// own breakpoints (each starts a fresh run of pieces).
    fn round_marks(&self, horizon: f64) -> Vec<f64> {
        let local_horizon = self.local_time(horizon);
        let mut marks: Vec<f64> = self
            .inner()
            .round_marks(local_horizon)
            .into_iter()
            .map(|u| self.global_time(u))
            .collect();
        marks.extend(self.breakpoints());
        marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockDrift, FrameWarp, MonotoneTrajectory, PathBuilder};
    use rvz_geometry::Mat2;
    use std::f64::consts::PI;

    fn sample_path() -> crate::Path {
        PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(3.0, 0.0))
            .arc_around(Vec2::new(3.0, 1.0), PI)
            .wait(0.5)
            .line_to(Vec2::new(-2.0, 2.0))
            .full_circle(Vec2::ZERO)
            .build()
    }

    #[test]
    fn path_lowers_to_exact_pieces() {
        let p = sample_path();
        let program = p.compile(&CompileOptions::to_horizon(1e4)).unwrap();
        assert_eq!(program.pieces().len(), p.len());
        assert_eq!(program.rest(), Some(p.end_position()));
        assert!(program.covers(f64::INFINITY));
        let horizon = p.duration() + 2.0;
        for i in 0..=2000 {
            let t = horizon * i as f64 / 2000.0;
            let d = program.position(t).distance(p.position(t));
            assert!(d < 1e-12, "mismatch at t={t}: {d}");
        }
    }

    #[test]
    fn program_cursor_honors_the_cursor_contract() {
        let p = sample_path();
        let program = p.compile(&CompileOptions::to_horizon(1e4)).unwrap();
        let mut c = program.cursor();
        let horizon = p.duration() + 1.0;
        for i in 0..=997 {
            let t = horizon * i as f64 / 997.0;
            let probe = c.probe(t);
            assert!(probe.position.distance(p.position(t)) < 1e-12, "t={t}");
            assert!(probe.piece_end > t || probe.piece_end == f64::INFINITY);
        }
    }

    #[test]
    fn baked_envelopes_contain_positions() {
        let p = sample_path();
        let program = p.compile(&CompileOptions::to_horizon(1e4)).unwrap();
        let horizon = p.duration() + 1.0;
        for w in 0..37 {
            let t0 = horizon * w as f64 / 37.0;
            for span in [0.05, 0.7, 3.9, horizon, f64::INFINITY] {
                let disk = program.envelope(t0, t0 + span);
                for i in 0..=25 {
                    let t = (t0 + span.min(horizon) * i as f64 / 25.0).min(horizon);
                    assert!(
                        disk.contains(p.position(t), 1e-9),
                        "envelope [{t0}, {}] misses t={t}",
                        t0 + span
                    );
                }
            }
        }
    }

    #[test]
    fn horizon_truncates_infinite_pieces() {
        // A path whose wait extends past the horizon: the piece is cut.
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(1.0, 0.0))
            .wait(100.0)
            .build();
        let program = p.compile(&CompileOptions::to_horizon(5.0)).unwrap();
        assert_eq!(program.end_time(), 5.0);
        assert!(program.rest().is_none());
        assert!(program.covers(5.0));
        assert!(!program.covers(5.1));
        assert_eq!(program.position(5.0), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn budget_truncates() {
        let p = sample_path();
        let partial = p
            .compile(&CompileOptions::to_horizon(1e4).max_pieces(2))
            .unwrap();
        assert_eq!(partial.pieces().len(), 2);
        assert!(partial.rest().is_none());
        assert!(!partial.covers(p.duration()));
    }

    #[test]
    fn curved_trajectories_refuse_to_lower() {
        let t = crate::FnTrajectory::new(|t| Vec2::new(t.cos(), t.sin()), 1.0);
        let err = t.compile(&CompileOptions::to_horizon(10.0)).unwrap_err();
        assert_eq!(err, CompileError::Curved { at: 0.0 });
        assert!(err.to_string().contains("curved"));
    }

    #[test]
    fn warp_is_applied_at_lowering_time() {
        let inner = sample_path();
        let w = FrameWarp::new(
            inner.clone(),
            Mat2::rotation(0.7) * Mat2::scaling(1.3),
            Vec2::new(1.0, -2.0),
            0.8,
        );
        let program = w.compile(&CompileOptions::to_horizon(1e4)).unwrap();
        // Same piece count as the inner path: the warp adds no pieces,
        // it transforms them.
        assert_eq!(program.pieces().len(), inner.len());
        let horizon = w.duration().unwrap() + 1.0;
        for i in 0..=1500 {
            let t = horizon * i as f64 / 1500.0;
            let d = program.position(t).distance(w.position(t));
            assert!(d < 1e-12, "mismatch at t={t}: {d}");
        }
    }

    #[test]
    fn drift_stacks_lower_exactly() {
        let inner = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(5.0, 0.0))
            .wait(2.0)
            .line_to(Vec2::new(5.0, 5.0))
            .build();
        let stack = FrameWarp::new(
            ClockDrift::from_rates(inner, &[(3.0, 0.7), (2.0, 1.2)], 0.9),
            Mat2::chirality_reflection(-1.0) * Mat2::scaling(0.6),
            Vec2::new(0.5, 0.25),
            1.7,
        );
        let program = stack.compile(&CompileOptions::to_horizon(1e4)).unwrap();
        let horizon = stack.duration().unwrap() + 2.0;
        for i in 0..=2000 {
            let t = horizon * i as f64 / 2000.0;
            let d = program.position(t).distance(stack.position(t));
            assert!(d < 1e-12, "mismatch at t={t}: {d}");
        }
        // Envelopes survive the stack too.
        for w in 0..23 {
            let t0 = horizon * w as f64 / 23.0;
            let disk = program.envelope(t0, t0 + 2.1);
            for i in 0..=20 {
                let t = (t0 + 2.1 * i as f64 / 20.0).min(horizon);
                assert!(disk.contains(stack.position(t), 1e-9), "t={t}");
            }
        }
    }

    #[test]
    fn marks_are_filtered_and_sorted() {
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(1.0, 0.0))
            .line_to(Vec2::new(1.0, 1.0))
            .build();
        let program = p.compile(&CompileOptions::to_horizon(10.0)).unwrap();
        // Path marks: segment starts at 0 (dropped: not > 0) and 1.
        assert_eq!(program.round_marks(), &[1.0]);
        assert_eq!(program.next_mark_after(0.0), Some(1.0));
        assert_eq!(program.next_mark_after(1.0), None);
    }

    #[test]
    fn stalled_cursors_error_out() {
        struct Stall;
        impl Cursor for Stall {
            fn probe(&mut self, _t: f64) -> Probe {
                Probe {
                    position: Vec2::ZERO,
                    piece_end: 0.0, // never advances, even under ulp nudges
                    motion: Motion::Affine {
                        velocity: Vec2::ZERO,
                    },
                }
            }
            fn speed_bound(&self) -> f64 {
                0.0
            }
        }
        let err = lower_from_cursor(
            &mut Stall,
            0.0,
            Vec::new(),
            &CompileOptions::to_horizon(1.0),
        )
        .unwrap_err();
        assert_eq!(err, CompileError::Stalled { at: 0.0 });
    }

    #[test]
    fn object_safe_lowering() {
        let p = sample_path();
        let dynamic: &dyn Compile = &p;
        let program = dynamic.compile(&CompileOptions::to_horizon(1e3)).unwrap();
        assert_eq!(program.pieces().len(), p.len());
    }
}
