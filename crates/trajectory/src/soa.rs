//! Structure-of-arrays piece arena: the lane-kernel view of a program.
//!
//! The AoS [`Piece`] arena interleaves every
//! field of every piece (48 bytes apiece), so a kernel that only needs
//! start times and velocities drags the rest of the struct through the
//! cache and defeats autovectorization. [`ProgramSoA`] stores the same
//! arena as parallel `t0/t1/pos0x/pos0y/vx/vy` arrays: the affine
//! distance-certificate kernels in `rvz_sim` stream four to eight
//! pieces per loop iteration out of contiguous `f64` lanes, and the
//! compiler vectorizes the branch-free inner loop on its own (measured,
//! not assumed: the release `alloc_gate` test holds the lane kernel to
//! the scalar loop's speed, with and without `-C target-cpu=native`).
//!
//! Circular pieces are the cold minority (arc moves appear only in a
//! few schedules); they park their law in a **side table** indexed by a
//! `u32` sentinel column, so the hot affine lanes stay dense. Lane
//! kernels test `circ[i] == AFFINE` (a plain integer compare) and fall
//! back to the scalar cosine-law ladder for the rare circular interval.
//!
//! An arena comes from one of two places. [`ProgramSoA::from_program`]
//! copies an eager [`CompiledProgram`] field-for-field (bit-identical
//! probes). A [`SoaStream`] lowers a [`Compile`] source straight into
//! the columns, only as far as queries need: its arena is a **prefix**
//! of the one `from_program` builds on the eager lowering, and it says
//! exactly which queries a prefix answers as the finished arena would
//! ([`ProgramSoA::settled`]). Probes and envelope boxes on an arena are
//! bit-identical to the source program's (it bakes the same envelope
//! tree); `tests/engine_equivalence.rs` gates that on a time grid, and
//! `tests/lazy_prefix.rs` gates every open prefix of a stream against
//! the eager arena.

use crate::monotone::{Cursor, Motion, Probe};
use crate::program::{
    bake_tree, grow_box, normalize_marks, tree_range_union, Compile, CompileError, CompileOptions,
    CompiledProgram, LoweredStep, Piece, PieceStream,
};
use rvz_geometry::{Aabb, Vec2};
use std::sync::Arc;

/// Sentinel in the circular-index column marking an affine lane.
pub const AFFINE: u32 = u32::MAX;

/// The side-table entry for a circular piece: the circle and the phase
/// at the piece's `t0` (the same anchoring as [`Motion::Circular`] in
/// the AoS arena).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularLaw {
    /// Circle center.
    pub center: Vec2,
    /// Circle radius.
    pub radius: f64,
    /// Signed angular velocity (rad per time unit).
    pub angular_velocity: f64,
    /// Phase at the piece's start time.
    pub angle: f64,
}

/// Pieces reserved per column growth step of a [`SoaStream`].
const APPEND_CHUNK: usize = 256;

/// The first prefix a [`SoaStream`] materializes covers at least
/// `horizon / FIRST_PREFIX_DIVISOR` (the batch prefilter's window
/// width); later extensions at least double the covered time.
const FIRST_PREFIX_DIVISOR: f64 = 64.0;

/// A compiled piece arena in structure-of-arrays layout.
///
/// Semantically identical to the [`CompiledProgram`] it was built from:
/// same pieces, same rest/coverage rules, same envelope tree, same
/// round marks. Only the memory layout differs — parallel arrays for
/// the hot fields, a side table for the cold circular laws.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSoA {
    t0: Vec<f64>,
    t1: Vec<f64>,
    pos0x: Vec<f64>,
    pos0y: Vec<f64>,
    /// Velocity lanes; zero for circular pieces (their law lives in the
    /// side table).
    vx: Vec<f64>,
    vy: Vec<f64>,
    /// [`AFFINE`] for affine lanes, else an index into `circles`.
    circ: Vec<u32>,
    circles: Vec<CircularLaw>,
    /// Baked envelope tree, laid out exactly as the eager program's.
    tree: Arc<Vec<Aabb>>,
    size: usize,
    end_time: f64,
    rest: Option<Vec2>,
    speed_bound: f64,
    marks: Vec<f64>,
    /// Queries strictly before this time answer exactly as on the
    /// finished arena: `+∞` once the arena is final, the materialized
    /// end while a [`SoaStream`] is still open.
    frontier: f64,
}

impl ProgramSoA {
    /// An arena with no pieces yet and the given program-wide constants
    /// (marks are normalized like the eager lowering's: finite,
    /// positive, within `mark_end`, strictly increasing).
    fn empty(capacity: usize, speed_bound: f64, marks: Vec<f64>, mark_end: f64) -> Self {
        let marks = normalize_marks(marks, mark_end);
        ProgramSoA {
            t0: Vec::with_capacity(capacity),
            t1: Vec::with_capacity(capacity),
            pos0x: Vec::with_capacity(capacity),
            pos0y: Vec::with_capacity(capacity),
            vx: Vec::with_capacity(capacity),
            vy: Vec::with_capacity(capacity),
            circ: Vec::with_capacity(capacity),
            circles: Vec::new(),
            tree: Arc::default(),
            size: 0,
            end_time: 0.0,
            rest: None,
            speed_bound,
            marks,
            frontier: f64::INFINITY,
        }
    }

    /// Transposes an eager program's arena field-for-field. Circular
    /// phases are copied exactly, so probes on the SoA arena are
    /// bit-identical to the source program's.
    pub fn from_program(program: &CompiledProgram) -> Self {
        let mut soa = ProgramSoA::empty(
            program.pieces().len(),
            program.speed_bound(),
            program.round_marks().to_vec(),
            f64::INFINITY,
        );
        for piece in program.pieces() {
            soa.push(piece);
        }
        // The piece set is copied field-for-field, so the leaf boxes —
        // and therefore the whole baked tree — are identical to the
        // source program's. Sharing it skips re-deriving every
        // arc-chunk disk, which dominates transposition cost on
        // circular-heavy programs, and copying the tree, whose fresh
        // pages are about half a cold transposition's cost.
        let (tree, size) = program.baked_tree();
        soa.tree = Arc::clone(tree);
        soa.size = size;
        soa.end_time = program.end_time();
        soa.rest = program.rest();
        soa
    }

    /// Appends one piece to the columns.
    fn push(&mut self, piece: &Piece) {
        self.t0.push(piece.t0);
        self.t1.push(piece.t1);
        self.pos0x.push(piece.pos0.x);
        self.pos0y.push(piece.pos0.y);
        match piece.motion {
            Motion::Affine { velocity } => {
                self.vx.push(velocity.x);
                self.vy.push(velocity.y);
                self.circ.push(AFFINE);
            }
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                angle,
            } => {
                assert!(
                    self.circles.len() < AFFINE as usize,
                    "circular side table overflow"
                );
                self.vx.push(0.0);
                self.vy.push(0.0);
                self.circ.push(self.circles.len() as u32);
                self.circles.push(CircularLaw {
                    center,
                    radius,
                    angular_velocity,
                    angle,
                });
            }
            Motion::Curved => {
                unreachable!("compiled arenas never hold curved pieces")
            }
        }
    }

    /// Reserves room for `n` more pieces in every column.
    fn reserve(&mut self, n: usize) {
        self.t0.reserve(n);
        self.t1.reserve(n);
        self.pos0x.reserve(n);
        self.pos0y.reserve(n);
        self.vx.reserve(n);
        self.vy.reserve(n);
        self.circ.reserve(n);
    }

    /// `true` when every query up to `t` — probe, lane gather, envelope
    /// window end, round mark — answers exactly as on the finished
    /// arena. Always `true` for a finished arena; strictly below the
    /// materialized end for the open prefix of a [`SoaStream`] (at the
    /// end itself the finished arena would already see the next
    /// piece). Engines that promise prefix exactness refuse instead of
    /// reading an unsettled time.
    #[inline]
    pub fn settled(&self, t: f64) -> bool {
        t < self.frontier
    }

    /// Number of pieces in the arena.
    pub fn len(&self) -> usize {
        self.t0.len()
    }

    /// `true` for a rest-only (or empty) arena.
    pub fn is_empty(&self) -> bool {
        self.t0.is_empty()
    }

    /// Piece start times (the dense binary-search index).
    #[inline]
    pub fn t0s(&self) -> &[f64] {
        &self.t0
    }

    /// Piece end times.
    #[inline]
    pub fn t1s(&self) -> &[f64] {
        &self.t1
    }

    /// Start-position x lane.
    #[inline]
    pub fn pos0xs(&self) -> &[f64] {
        &self.pos0x
    }

    /// Start-position y lane.
    #[inline]
    pub fn pos0ys(&self) -> &[f64] {
        &self.pos0y
    }

    /// Velocity x lane (zero on circular pieces).
    #[inline]
    pub fn vxs(&self) -> &[f64] {
        &self.vx
    }

    /// Velocity y lane (zero on circular pieces).
    #[inline]
    pub fn vys(&self) -> &[f64] {
        &self.vy
    }

    /// The circular sentinel column ([`AFFINE`] on affine lanes).
    #[inline]
    pub fn circ_column(&self) -> &[u32] {
        &self.circ
    }

    /// `true` when piece `i` is an affine lane.
    #[inline]
    pub fn is_affine(&self, i: usize) -> bool {
        self.circ[i] == AFFINE
    }

    /// The side-table law of circular piece `i`.
    ///
    /// # Panics
    ///
    /// Panics when piece `i` is affine.
    #[inline]
    pub fn circle(&self, i: usize) -> &CircularLaw {
        &self.circles[self.circ[i] as usize]
    }

    /// Reconstructs piece `i` as an AoS [`Piece`] (the scalar-ladder
    /// and test view of a lane).
    #[inline]
    pub fn piece(&self, i: usize) -> Piece {
        let motion = if self.circ[i] == AFFINE {
            Motion::Affine {
                velocity: Vec2::new(self.vx[i], self.vy[i]),
            }
        } else {
            let c = &self.circles[self.circ[i] as usize];
            Motion::Circular {
                center: c.center,
                radius: c.radius,
                angular_velocity: c.angular_velocity,
                angle: c.angle,
            }
        };
        Piece {
            t0: self.t0[i],
            t1: self.t1[i],
            pos0: Vec2::new(self.pos0x[i], self.pos0y[i]),
            motion,
        }
    }

    /// Time covered by the arena.
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// The rest position, when the source finishes within the arena.
    pub fn rest(&self) -> Option<Vec2> {
        self.rest
    }

    /// The recorded round marks.
    pub fn round_marks(&self) -> &[f64] {
        &self.marks
    }

    /// Index of the piece containing `t` (clamped like
    /// [`CompiledProgram::piece_index_at`]).
    pub fn piece_index_at(&self, t: f64) -> usize {
        self.t0
            .partition_point(|&s| s <= t)
            .saturating_sub(1)
            .min(self.t0.len().saturating_sub(1))
    }

    /// The wrapped trajectory's speed bound.
    pub fn speed_bound(&self) -> f64 {
        self.speed_bound
    }

    /// `true` when every query in `[0, t]` is answerable exactly, as
    /// [`CompiledProgram::covers`]; an open prefix covers only its
    /// settled span (see [`ProgramSoA::settled`]).
    pub fn covers(&self, t: f64) -> bool {
        self.rest.is_some() || (t <= self.end_time && t < self.frontier)
    }

    /// The first round mark strictly after `t`, if any.
    pub fn next_mark_after(&self, t: f64) -> Option<f64> {
        let i = self.marks.partition_point(|&m| m <= t);
        self.marks.get(i).copied()
    }

    /// The indexed probe walk of [`CompiledProgram::probe_from`] over
    /// the transposed arrays: same hop/gallop structure, pieces
    /// reconstructed on the fly, so probes are bit-identical to the
    /// source program's.
    #[inline]
    pub fn probe_from(&self, index: &mut usize, t: f64) -> Probe {
        let n = self.t1.len();
        let mut i = *index;
        let mut hops = 0;
        while i < n && t >= self.t1[i] {
            i += 1;
            hops += 1;
            if hops == 8 && i < n && t >= self.t1[i] {
                i += self.t0[i..].partition_point(|&s| s <= t);
                i = i.saturating_sub(1).max(*index);
                while i < n && t >= self.t1[i] {
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
                None => self.piece(n - 1).probe_at(t.min(self.end_time)),
            };
        }
        if self.circ[i] == AFFINE {
            // Hot path: the affine probe straight off the columns —
            // the same `pos0 + velocity * u` the AoS piece computes,
            // without reconstructing the struct.
            let u = t - self.t0[i];
            let velocity = Vec2::new(self.vx[i], self.vy[i]);
            return Probe {
                position: Vec2::new(self.pos0x[i], self.pos0y[i]) + velocity * u,
                piece_end: self.t1[i],
                motion: Motion::Affine { velocity },
            };
        }
        self.piece(i).probe_at(t)
    }

    /// [`CompiledProgram::envelope_box`], lane edition: identical tree
    /// layout, identical chunk math, so the box is bit-identical to the
    /// source program's on the same query.
    pub fn envelope_box(&self, t0: f64, t1: f64) -> Aabb {
        let t1 = t1.max(t0);
        if self.t0.is_empty() {
            return Aabb::point(self.rest.unwrap_or(Vec2::ZERO));
        }
        if let Some(p) = self.rest {
            if t0 >= self.end_time {
                return Aabb::point(p);
            }
            return self.envelope_within(t0, t1.min(self.end_time));
        }
        if t0 >= self.end_time {
            let anchor = self.piece(self.len() - 1).position_at(self.end_time);
            return grow_box(Aabb::point(anchor), self.speed_bound, t1 - self.end_time);
        }
        if t1 > self.end_time {
            let base = self.envelope_within(t0, self.end_time);
            return grow_box(base, self.speed_bound, t1 - self.end_time);
        }
        self.envelope_within(t0, t1)
    }

    fn envelope_within(&self, t0: f64, t1: f64) -> Aabb {
        let i0 = self.piece_index_at(t0);
        let i1 = self.piece_index_at(t1);
        let p0 = self.piece(i0);
        let first = p0.chunk_box(t0, t1.min(p0.t1));
        if i0 == i1 {
            return first;
        }
        let p1 = self.piece(i1);
        let last = p1.chunk_box(p1.t0, t1);
        let mut acc = first.union(&last);
        if i1 > i0 + 1 {
            acc = acc.union(&tree_range_union(&self.tree, self.size, i0 + 1, i1 - 1));
        }
        acc
    }
}

/// A [`ProgramSoA`] lowered as a stream: pieces from the same producer
/// as the eager lowering are appended straight into the arena's
/// columns, and only as far as queries need them.
///
/// The arena is always a prefix of the one
/// [`ProgramSoA::from_program`] builds on the eager
/// [`Compile::compile`] of the same source under the same options, and
/// it becomes exactly that arena once the stream is complete (the
/// horizon, the rest state or the piece budget reached — the budget
/// truncates as the eager lowering does). While the stream is open the
/// arena reports [`ProgramSoA::settled`] only below its materialized
/// end, so an engine that refuses on unsettled time either refuses or
/// answers bit-for-bit as on the finished arena.
///
/// Growth is query-driven: [`SoaStream::extend`] materializes past the
/// time a refused query needed and at least doubles the covered time,
/// so a query that resolves early pays for an early prefix only.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{CompileOptions, PathBuilder, SoaStream};
/// use rvz_geometry::Vec2;
///
/// let path = PathBuilder::at(Vec2::ZERO)
///     .line_to(Vec2::new(4.0, 0.0))
///     .line_to(Vec2::new(4.0, 4.0))
///     .build();
/// let mut stream = SoaStream::new(&path, CompileOptions::to_horizon(100.0));
/// stream.extend(1.0);
/// assert!(stream.arena().settled(1.0) && !stream.is_complete());
/// stream.finish();
/// assert!(stream.is_complete() && stream.arena().covers(1e9));
/// ```
pub struct SoaStream<'a> {
    stream: PieceStream<Box<dyn Cursor + 'a>>,
    opts: CompileOptions,
    arena: ProgramSoA,
    /// Per-piece leaf boxes, kept so growing the envelope tree never
    /// re-derives a leaf.
    leaves: Vec<Aabb>,
    /// `None` while open; `Some(Ok(()))` once the arena is final;
    /// `Some(Err(_))` when the eager lowering of the source would fail.
    state: Option<Result<(), CompileError>>,
    extensions: u64,
}

impl<'a> SoaStream<'a> {
    /// Wraps a compilable source; nothing is lowered until the first
    /// [`SoaStream::extend`] or [`SoaStream::finish`].
    ///
    /// # Panics
    ///
    /// As for [`CompileOptions::to_horizon`] — invalid horizon or piece
    /// budget.
    pub fn new(source: &'a dyn Compile, opts: CompileOptions) -> Self {
        assert!(
            opts.horizon > 0.0 && opts.horizon.is_finite(),
            "compile horizon must be positive and finite, got {}",
            opts.horizon
        );
        assert!(opts.max_pieces > 0, "piece budget must be positive");
        let mut arena = ProgramSoA::empty(
            0,
            source.speed_bound(),
            source.round_marks(opts.horizon),
            opts.horizon,
        );
        arena.frontier = 0.0;
        SoaStream {
            stream: PieceStream::new(source.dyn_cursor(), opts.horizon),
            opts,
            arena,
            leaves: Vec::new(),
            state: None,
            extensions: 0,
        }
    }

    /// The arena materialized so far.
    pub fn arena(&self) -> &ProgramSoA {
        &self.arena
    }

    /// Takes the arena materialized so far out of the stream.
    pub fn into_arena(self) -> ProgramSoA {
        self.arena
    }

    /// `true` once the arena is final: it equals the eager lowering's.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, Some(Ok(())))
    }

    /// The error the eager lowering of this source fails with, once the
    /// stream has reached it.
    pub fn error(&self) -> Option<CompileError> {
        match self.state {
            Some(Err(e)) => Some(e),
            _ => None,
        }
    }

    /// How many times an already materialized prefix was grown — one
    /// per query run that had to be retried on a longer prefix.
    pub fn extensions(&self) -> u64 {
        self.extensions
    }

    /// Materializes past `need` (the time a refused query asked for),
    /// covering at least twice the previous span and at least the
    /// first-prefix span, or until the stream ends.
    pub fn extend(&mut self, need: f64) {
        let target = need
            .max(2.0 * self.arena.end_time)
            .max(self.opts.horizon / FIRST_PREFIX_DIVISOR);
        self.materialize_past(target);
    }

    /// Materializes the whole arena.
    pub fn finish(&mut self) {
        self.materialize_past(f64::INFINITY);
    }

    fn materialize_past(&mut self, target: f64) {
        if self.state.is_some() {
            return;
        }
        let before = self.arena.len();
        if before > 0 {
            self.extensions += 1;
        }
        // A piece reaching the horizon is the producer's last: pull the
        // end marker too, so such a prefix is final rather than open.
        while self.state.is_none()
            && (self.arena.is_empty()
                || self.arena.end_time <= target
                || self.arena.end_time >= self.opts.horizon)
        {
            self.pull();
        }
        rvz_obs::counter!("rvz_streamed_pieces_total").add((self.arena.len() - before) as u64);
        let (tree, size) = bake_tree(self.leaves.iter().copied());
        self.arena.tree = Arc::new(tree);
        self.arena.size = size;
        if self.is_complete() {
            self.arena.frontier = f64::INFINITY;
            // The eager lowering keeps the marks within its final span.
            let end = self.arena.end_time;
            self.arena.marks.retain(|&m| m <= end);
        } else {
            self.arena.frontier = self.arena.end_time;
        }
    }

    /// Consumes one producer event, exactly as the eager lowering loop
    /// does.
    fn pull(&mut self) {
        match self.stream.next_step() {
            Ok(LoweredStep::Piece { piece, counted }) => {
                if counted && self.arena.len() == self.opts.max_pieces {
                    self.state = Some(Ok(()));
                    return;
                }
                if self.arena.len() == self.arena.t0.capacity() {
                    self.arena.reserve(APPEND_CHUNK);
                    self.leaves.reserve(APPEND_CHUNK);
                }
                self.arena.push(&piece);
                self.arena.end_time = piece.t1;
                self.leaves.push(piece.bounding_box());
            }
            Ok(LoweredStep::Rest(p)) => {
                self.arena.rest = Some(p);
                self.state = Some(Ok(()));
            }
            Ok(LoweredStep::Finished) => self.state = Some(Ok(())),
            Err(e) => self.state = Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Compile, CompileOptions};
    use crate::PathBuilder;

    fn sample_path() -> crate::Path {
        PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(3.0, 0.0))
            .wait(1.5)
            .full_circle(Vec2::new(3.0, 2.0))
            .line_to(Vec2::new(-1.0, 4.0))
            .build()
    }

    #[test]
    fn from_program_probes_bit_identical() {
        let p = sample_path();
        let program = p.compile(&CompileOptions::to_horizon(1e3)).unwrap();
        let soa = ProgramSoA::from_program(&program);
        assert_eq!(soa.len(), program.pieces().len());
        assert_eq!(soa.end_time(), program.end_time());
        assert_eq!(soa.rest(), program.rest());
        assert_eq!(soa.round_marks(), program.round_marks());
        let horizon = p.duration() + 2.0;
        let (mut ia, mut ib) = (0usize, 0usize);
        for i in 0..=4096 {
            let t = horizon * i as f64 / 4096.0;
            let a = program.probe_from(&mut ia, t);
            let b = soa.probe_from(&mut ib, t);
            assert_eq!(a.position, b.position, "t={t}");
            assert_eq!(a.piece_end, b.piece_end, "t={t}");
            assert_eq!(a.motion, b.motion, "t={t}");
        }
    }

    #[test]
    fn from_program_envelopes_bit_identical() {
        let p = sample_path();
        let program = p.compile(&CompileOptions::to_horizon(1e3)).unwrap();
        let soa = ProgramSoA::from_program(&program);
        let horizon = p.duration() + 2.0;
        for w in 0..61 {
            let t0 = horizon * w as f64 / 61.0;
            for span in [0.0, 0.03, 0.9, 4.2, horizon, f64::INFINITY] {
                let a = program.envelope_box(t0, t0 + span);
                let b = soa.envelope_box(t0, t0 + span);
                assert_eq!(a, b, "window [{t0}, {}]", t0 + span);
            }
        }
    }

    #[test]
    fn pieces_reconstruct_exactly() {
        let p = sample_path();
        let program = p.compile(&CompileOptions::to_horizon(1e3)).unwrap();
        let soa = ProgramSoA::from_program(&program);
        for (i, piece) in program.pieces().iter().enumerate() {
            assert_eq!(soa.piece(i), *piece, "piece {i}");
        }
        // The arc landed in the side table; straight legs did not.
        assert!(soa.circ_column().iter().any(|&c| c != AFFINE));
        assert!(soa.circ_column().contains(&AFFINE));
    }

    #[test]
    fn finished_streams_equal_the_eager_arena() {
        let p = sample_path();
        for opts in [
            CompileOptions::to_horizon(1e3),
            CompileOptions::to_horizon(7.0),
            // The budget truncates the stream where it truncates the
            // eager lowering.
            CompileOptions::to_horizon(1e3).max_pieces(3),
        ] {
            let eager = ProgramSoA::from_program(&p.compile(&opts).unwrap());
            let mut stream = SoaStream::new(&p, opts);
            stream.finish();
            assert!(stream.is_complete() && stream.error().is_none());
            assert_eq!(stream.arena(), &eager, "{opts:?}");
        }
    }

    #[test]
    fn open_prefixes_settle_only_below_their_end() {
        let mut builder = PathBuilder::at(Vec2::ZERO);
        for i in 0..600 {
            let y = if i % 2 == 0 { 0.5 } else { -0.5 };
            builder = builder.line_to(Vec2::new((i + 1) as f64, y));
        }
        let p = builder.build();
        let opts = CompileOptions::to_horizon(1e4);
        let eager = ProgramSoA::from_program(&p.compile(&opts).unwrap());
        let mut stream = SoaStream::new(&p, opts);
        stream.extend(10.0);
        let first = stream.arena().len();
        assert!(
            first > 0 && first < eager.len(),
            "{first} of {}",
            eager.len()
        );
        assert_eq!(stream.extensions(), 0, "the first prefix is no extension");
        let end = stream.arena().end_time();
        assert!(end > 10.0);
        let prefix = stream.arena();
        assert!(prefix.settled(end.next_down()) && !prefix.settled(end));
        assert!(!prefix.covers(end), "the end itself is unsettled");
        assert!(eager.settled(f64::INFINITY.next_down()));
        // Below the end, every probe and envelope answers as the eager
        // arena does.
        let (mut ia, mut ib) = (0usize, 0usize);
        for i in 0..500 {
            let t = end * i as f64 / 500.0;
            assert_eq!(prefix.probe_from(&mut ia, t), eager.probe_from(&mut ib, t));
            let w = (t + 7.5).min(end.next_down());
            assert_eq!(prefix.envelope_box(t, w), eager.envelope_box(t, w));
        }
        stream.extend(0.0);
        assert!(stream.arena().end_time() >= 2.0 * end, "extensions double");
        assert_eq!(stream.extensions(), 1);
        stream.finish();
        assert_eq!(stream.arena(), &eager);
    }

    #[test]
    fn curved_sources_fail_like_the_eager_lowering() {
        let t = crate::FnTrajectory::new(|t| Vec2::new(t.cos(), t.sin()), 1.0);
        let opts = CompileOptions::to_horizon(10.0);
        let mut stream = SoaStream::new(&t, opts);
        stream.extend(1.0);
        assert_eq!(stream.error(), t.compile(&opts).err());
        assert!(!stream.is_complete());
    }

    #[test]
    fn rest_only_arena_is_well_formed() {
        let p = PathBuilder::at(Vec2::new(2.0, -1.0)).build();
        let program = p.compile(&CompileOptions::to_horizon(5.0)).unwrap();
        let soa = ProgramSoA::from_program(&program);
        assert_eq!(soa.is_empty(), program.pieces().is_empty());
        assert!(soa.covers(1e9));
        let (mut i, mut j) = (0usize, 0usize);
        assert_eq!(
            soa.probe_from(&mut i, 3.0).position,
            program.probe_from(&mut j, 3.0).position
        );
        assert_eq!(soa.envelope_box(0.0, 10.0), program.envelope_box(0.0, 10.0));
    }
}
