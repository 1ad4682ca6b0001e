//! Streaming lowering: [`LazyProgram`] materializes pieces on demand.
//!
//! The eager [`CompiledProgram`] pays its whole
//! lowering cost up front — 10⁵–10⁶ pieces and a baked envelope tree —
//! before the first probe, even when the query resolves in the first
//! round. A [`LazyProgram`] drains the *same* piece producer
//! (`program::PieceStream`) behind the same dense start-time index, but
//! only as far as queries actually reach:
//!
//! * **probes** materialize pieces up to the probe time;
//! * **envelope queries** materialize up to the window end (a pruning
//!   disproof therefore still pays for the span it certifies — but
//!   incrementally, shared across every later query, and only when the
//!   engine really asks);
//! * **round marks** are precomputed once (they are closed-form per
//!   schedule, not derived from pieces).
//!
//! Because both consumers drain one producer, the materialized prefix
//! is bit-identical to the eager lowering — enforced by the
//! prefix-equivalence tests below and in `tests/`.
//!
//! ## Allocation discipline
//!
//! The compiled engine's zero-alloc-per-query gate stays intact: a
//! probe or envelope query on already-materialized time allocates
//! nothing. Growth allocations happen only at arena-chunk boundaries
//! (amortized-doubling `Vec` growth plus one envelope box per
//! [`CHUNK_PIECES`] pieces) and are counted separately in
//! [`LazyProgram::chunk_allocs`], which the bench reports alongside the
//! per-query counters.
//!
//! ## Envelopes without a baked tree
//!
//! The eager program bakes a segment tree once lowering is complete; a
//! streaming arena cannot (its leaf count keeps growing). Instead the
//! lazy arena keeps one union box per completed chunk of
//! [`CHUNK_PIECES`] pieces: an envelope query unions the partial
//! boundary chunks piece-by-piece (≤ 2·[`CHUNK_PIECES`] cheap box
//! computations) and the interior in whole-chunk steps. Beyond the
//! covered span the box grows at the speed bound, exactly like the
//! eager program's, so look-aheads across an exhausted boundary remain
//! sound.
//!
//! ## Exhaustion
//!
//! Construction always succeeds. If the producer refuses mid-stream —
//! piece budget, a curved span without an approx tolerance, an
//! uncertifiable bound, a stalled cursor — the error is recorded and
//! coverage simply stops growing: [`ProgramView::covers`] returns
//! `false` past the frontier and the engine refuses the query (`None`),
//! never guessing. [`LazyProgram::exhausted`] exposes the recorded
//! reason.

use crate::monotone::{Cursor, Probe};
use crate::program::{
    assemble_program, grow_box, probe_pieces, Compile, CompileError, CompileOptions,
    CompiledProgram, CurvedApprox, LoweredStep, Piece, PieceStream, ProgramView,
};
use rvz_geometry::{Aabb, Vec2};
use std::cell::RefCell;

/// Pieces per envelope chunk: boundary scans touch at most `2·CHUNK`
/// pieces per query, and one `Aabb` is stored per chunk.
pub const CHUNK_PIECES: usize = 256;

/// A program whose piece arena materializes on demand.
///
/// Construct with [`LazyProgram::new`]; drive it through the
/// [`ProgramView`] facade (the compiled engine does) or the convenience
/// accessors below. Interior mutability makes every query `&self`; the
/// type is intentionally **not** `Sync` — one lazy program per worker,
/// exactly like an engine scratch.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{CompileOptions, LazyProgram, PathBuilder, ProgramView};
/// use rvz_geometry::Vec2;
///
/// let path = PathBuilder::at(Vec2::ZERO)
///     .line_to(Vec2::new(4.0, 0.0))
///     .wait(1.0)
///     .build();
/// let lazy = LazyProgram::new(&path, CompileOptions::to_horizon(10.0));
/// assert_eq!(lazy.materialized_pieces(), 0); // nothing until a query
/// let mut idx = 0;
/// assert_eq!(lazy.probe_from(&mut idx, 1.5).position, Vec2::new(1.5, 0.0));
/// assert!(lazy.materialized_pieces() >= 1);
/// ```
pub struct LazyProgram<'a> {
    opts: CompileOptions,
    speed_bound: f64,
    state: RefCell<LazyState<'a>>,
}

struct LazyState<'a> {
    stream: PieceStream<'a, Box<dyn Cursor + 'a>>,
    pieces: Vec<Piece>,
    starts: Vec<f64>,
    /// Union box of each completed chunk of [`CHUNK_PIECES`] pieces.
    chunk_boxes: Vec<Aabb>,
    /// Union box of the still-filling tail chunk.
    open_box: Aabb,
    /// Time covered by materialized pieces.
    end_time: f64,
    rest: Option<Vec2>,
    /// Why materialization stopped early, if it did.
    exhausted: Option<CompileError>,
    /// The producer reached the horizon (or the rest state).
    finished: bool,
    /// Precomputed round marks (filtered to the horizon; trimmed to the
    /// covered span once the trajectory is known to rest).
    marks: Vec<f64>,
    /// Capacity-growth allocations, counted separately from the
    /// per-query budget (which is zero once warm).
    chunk_allocs: u64,
}

impl<'a> LazyProgram<'a> {
    /// Wraps a compilable source. Never fails: lowering problems are
    /// recorded as [`LazyProgram::exhausted`] when (and if) queries
    /// reach them.
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
        let mut marks: Vec<f64> = source
            .round_marks(opts.horizon)
            .into_iter()
            .filter(|&m| m.is_finite() && m > 0.0 && m <= opts.horizon)
            .collect();
        marks.sort_by(f64::total_cmp);
        marks.dedup();
        let handler = opts.approx_tolerance.map(|eps| CurvedApprox {
            position: Box::new(move |t| source.position(t)) as Box<dyn Fn(f64) -> Vec2 + 'a>,
            bound: Box::new(move |a, b| source.chord_error_bound(a, b)),
            eps,
        });
        let stream = PieceStream::new(source.dyn_cursor(), handler, opts.horizon);
        LazyProgram {
            opts,
            speed_bound: source.speed_bound(),
            state: RefCell::new(LazyState {
                stream,
                pieces: Vec::new(),
                starts: Vec::new(),
                chunk_boxes: Vec::new(),
                open_box: Aabb::EMPTY,
                end_time: 0.0,
                rest: None,
                exhausted: None,
                finished: false,
                marks,
                chunk_allocs: 0,
            }),
        }
    }

    /// The options the arena lowers under.
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// Materializes pieces until the arena covers `t` (or the producer
    /// finishes/refuses). Queries do this implicitly; exposed for
    /// warm-up and tests.
    pub fn drive_to(&self, t: f64) {
        let mut state = self.state.borrow_mut();
        ensure(&mut state, &self.opts, t);
    }

    /// Number of pieces materialized so far.
    pub fn materialized_pieces(&self) -> usize {
        self.state.borrow().pieces.len()
    }

    /// Time covered by materialized pieces.
    pub fn covered_end(&self) -> f64 {
        self.state.borrow().end_time
    }

    /// The rest position, once discovered.
    pub fn rest(&self) -> Option<Vec2> {
        self.state.borrow().rest
    }

    /// Why materialization stopped early, if it did.
    pub fn exhausted(&self) -> Option<CompileError> {
        self.state.borrow().exhausted
    }

    /// Arena-growth allocations so far (capacity doublings and chunk
    /// boxes) — the amortized cost excluded from the per-query
    /// zero-alloc budget and reported separately by the bench.
    pub fn chunk_allocs(&self) -> u64 {
        self.state.borrow().chunk_allocs
    }

    /// A snapshot of the materialized piece prefix (clones; test and
    /// diagnostic use).
    pub fn pieces_snapshot(&self) -> Vec<Piece> {
        self.state.borrow().pieces.clone()
    }

    /// Bakes the materialized prefix into an eager [`CompiledProgram`]
    /// — pieces, start index, envelope tree — without re-running the
    /// lowering.
    ///
    /// Pieces, probes, and envelope queries behave exactly like an
    /// eager lowering truncated at [`LazyProgram::covered_end`]: the
    /// frozen handle answers everything the lazy program materialized
    /// and refuses beyond. The **round marks keep the lazy view's full
    /// list** (up to the compile horizon) rather than truncating at the
    /// frontier: an identical engine query replayed against the frozen
    /// handle then seeds identical pruning windows, visits identical
    /// times, and reproduces the lazy run's outcome bit for bit. Unlike
    /// the lazy program the result is `Send + Sync`, so it can be
    /// shared across threads.
    pub fn freeze(&self) -> CompiledProgram {
        let state = self.state.borrow();
        assemble_program(
            state.pieces.clone(),
            state.marks.clone(),
            state.rest,
            self.speed_bound,
            Some(self.opts.horizon),
        )
    }

    /// A snapshot of the round marks currently in effect.
    pub fn marks_snapshot(&self) -> Vec<f64> {
        self.state.borrow().marks.clone()
    }

    /// Forward probe driven by an external index; identical to
    /// [`crate::CompiledProgram::probe_from`] on the shared prefix.
    pub fn probe_from(&self, index: &mut usize, t: f64) -> Probe {
        ProgramView::probe_from(self, index, t)
    }

    /// The swept envelope over `[t0, t1]`; see
    /// [`crate::CompiledProgram::envelope_box`].
    pub fn envelope_box(&self, t0: f64, t1: f64) -> Aabb {
        ProgramView::envelope_box(self, t0, t1)
    }
}

impl std::fmt::Debug for LazyProgram<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("LazyProgram")
            .field("horizon", &self.opts.horizon)
            .field("pieces", &state.pieces.len())
            .field("end_time", &state.end_time)
            .field("rest", &state.rest)
            .field("exhausted", &state.exhausted)
            .field("chunk_allocs", &state.chunk_allocs)
            .finish_non_exhaustive()
    }
}

/// Pulls pieces until the arena covers past `t`, the producer finishes,
/// or it refuses.
fn ensure(state: &mut LazyState<'_>, opts: &CompileOptions, t: f64) {
    while state.rest.is_none()
        && state.exhausted.is_none()
        && !state.finished
        && state.end_time <= t
    {
        pull(state, opts);
    }
}

/// Materializes exactly one producer event.
fn pull(state: &mut LazyState<'_>, opts: &CompileOptions) {
    match state.stream.next_step() {
        Ok(LoweredStep::Piece { piece, counted }) => {
            if counted && state.pieces.len() == opts.max_pieces {
                // The budget exhausts coverage instead of erroring: the
                // engine refuses queries past the frontier, exactly as
                // with an eager truncated program.
                state.exhausted = Some(CompileError::Budget {
                    pieces: state.pieces.len(),
                    covered: piece.t0,
                });
                return;
            }
            rvz_obs::counter!("rvz_streamed_pieces_total").inc();
            let pieces_cap = state.pieces.capacity();
            let starts_cap = state.starts.capacity();
            state.pieces.push(piece);
            state.starts.push(piece.t0);
            if state.pieces.capacity() != pieces_cap {
                state.chunk_allocs += 1;
            }
            if state.starts.capacity() != starts_cap {
                state.chunk_allocs += 1;
            }
            state.end_time = piece.t1;
            state.open_box = state.open_box.union(&piece.bounding_box());
            if state.pieces.len().is_multiple_of(CHUNK_PIECES) {
                let boxes_cap = state.chunk_boxes.capacity();
                state.chunk_boxes.push(state.open_box);
                if state.chunk_boxes.capacity() != boxes_cap {
                    state.chunk_allocs += 1;
                }
                state.open_box = Aabb::EMPTY;
            }
        }
        Ok(LoweredStep::Rest(p)) => {
            state.rest = Some(p);
            state.finished = true;
            // Match the eager lowering's mark filter (`m <= end_time`)
            // now that the final span is known.
            let end = state.end_time;
            state.marks.retain(|&m| m <= end);
        }
        Ok(LoweredStep::Finished) => {
            state.finished = true;
        }
        Err(e) => {
            state.exhausted = Some(e);
        }
    }
}

/// Union of the materialized piece boxes in the inclusive index range
/// `[l, r]`: whole chunks through the stored chunk boxes, boundary
/// leftovers piece by piece.
fn range_box(state: &LazyState<'_>, l: usize, r: usize) -> Aabb {
    let mut acc = Aabb::EMPTY;
    let mut i = l;
    while i <= r {
        if i.is_multiple_of(CHUNK_PIECES) && i + CHUNK_PIECES - 1 <= r {
            let chunk = i / CHUNK_PIECES;
            if let Some(b) = state.chunk_boxes.get(chunk) {
                acc = acc.union(b);
                i += CHUNK_PIECES;
                continue;
            }
        }
        acc = acc.union(&state.pieces[i].bounding_box());
        i += 1;
    }
    acc
}

/// Mirrors `CompiledProgram::piece_index_at` over the materialized
/// prefix.
fn piece_index_at(state: &LazyState<'_>, t: f64) -> usize {
    state
        .starts
        .partition_point(|&s| s <= t)
        .saturating_sub(1)
        .min(state.pieces.len().saturating_sub(1))
}

/// Mirrors `CompiledProgram::envelope_within` over the materialized
/// prefix.
fn envelope_within(state: &LazyState<'_>, t0: f64, t1: f64) -> Aabb {
    let i0 = piece_index_at(state, t0);
    let i1 = piece_index_at(state, t1);
    let first = state.pieces[i0].chunk_box(t0, t1.min(state.pieces[i0].t1));
    if i0 == i1 {
        return first;
    }
    let last = state.pieces[i1].chunk_box(state.pieces[i1].t0, t1);
    let mut acc = first.union(&last);
    if i1 > i0 + 1 {
        acc = acc.union(&range_box(state, i0 + 1, i1 - 1));
    }
    acc
}

impl ProgramView for LazyProgram<'_> {
    fn speed_bound(&self) -> f64 {
        self.speed_bound
    }

    fn approx_eps(&self) -> f64 {
        // A priori bound: chords never exceed the requested tolerance,
        // and the engine needs the bound *before* the pieces exist.
        self.opts.approx_tolerance.unwrap_or(0.0)
    }

    fn covers(&self, t: f64) -> bool {
        let mut state = self.state.borrow_mut();
        ensure(&mut state, &self.opts, t);
        state.rest.is_some() || (t <= state.end_time && !state.pieces.is_empty())
    }

    fn covered_end(&self) -> f64 {
        self.state.borrow().end_time
    }

    fn probe_from(&self, index: &mut usize, t: f64) -> Probe {
        let mut state = self.state.borrow_mut();
        ensure(&mut state, &self.opts, t);
        probe_pieces(
            &state.pieces,
            &state.starts,
            state.rest,
            state.end_time,
            index,
            t,
        )
    }

    fn envelope_box(&self, t0: f64, t1: f64) -> Aabb {
        let mut state = self.state.borrow_mut();
        let t1 = t1.max(t0);
        ensure(&mut state, &self.opts, t1);
        let state = &*state;
        if state.pieces.is_empty() {
            return Aabb::point(state.rest.unwrap_or(Vec2::ZERO));
        }
        if let Some(p) = state.rest {
            if t0 >= state.end_time {
                return Aabb::point(p);
            }
            return envelope_within(state, t0, t1.min(state.end_time));
        }
        if t0 >= state.end_time {
            let anchor = state.pieces[state.pieces.len() - 1].position_at(state.end_time);
            return grow_box(Aabb::point(anchor), self.speed_bound, t1 - state.end_time);
        }
        if t1 > state.end_time {
            let base = envelope_within(state, t0, state.end_time);
            return grow_box(base, self.speed_bound, t1 - state.end_time);
        }
        envelope_within(state, t0, t1)
    }

    fn next_mark_after(&self, t: f64) -> Option<f64> {
        let state = self.state.borrow();
        let i = state.marks.partition_point(|&m| m <= t);
        state.marks.get(i).copied()
    }

    fn is_streaming(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledProgram, PathBuilder, Trajectory};
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

    fn eager(source: &dyn Compile, opts: &CompileOptions) -> CompiledProgram {
        source.compile(opts).unwrap()
    }

    #[test]
    fn nothing_materializes_before_queries() {
        let p = sample_path();
        let lazy = LazyProgram::new(&p, CompileOptions::to_horizon(100.0));
        assert_eq!(lazy.materialized_pieces(), 0);
        assert_eq!(lazy.covered_end(), 0.0);
        assert!(lazy.exhausted().is_none());
    }

    #[test]
    fn probes_match_eager_prefix_bit_for_bit() {
        let p = sample_path();
        let opts = CompileOptions::to_horizon(100.0);
        let full = eager(&p, &opts);
        let lazy = LazyProgram::new(&p, opts);
        let mut idx = 0;
        let mut eager_idx = 0;
        let horizon = p.duration() + 1.0;
        for i in 0..=777 {
            let t = horizon * i as f64 / 777.0;
            let lp = lazy.probe_from(&mut idx, t);
            let ep = full.probe_from(&mut eager_idx, t);
            assert_eq!(lp, ep, "probe mismatch at t={t}");
        }
        // The materialized prefix is the eager arena, piece for piece.
        let prefix = lazy.pieces_snapshot();
        assert_eq!(&full.pieces()[..prefix.len()], &prefix[..]);
        assert_eq!(lazy.rest(), full.rest());
    }

    #[test]
    fn materialization_tracks_query_depth() {
        // A long wait keeps the piece count proportional to coverage.
        let p = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(1.0, 0.0))
            .line_to(Vec2::new(1.0, 1.0))
            .line_to(Vec2::new(0.0, 1.0))
            .wait(50.0)
            .build();
        let lazy = LazyProgram::new(&p, CompileOptions::to_horizon(100.0));
        let mut idx = 0;
        let _ = lazy.probe_from(&mut idx, 0.5);
        assert_eq!(lazy.materialized_pieces(), 1);
        let _ = lazy.probe_from(&mut idx, 2.5);
        assert_eq!(lazy.materialized_pieces(), 3);
    }

    #[test]
    fn envelopes_match_eager_and_grow_past_exhaustion() {
        let p = sample_path();
        let opts = CompileOptions::to_horizon(100.0);
        let full = eager(&p, &opts);
        let lazy = LazyProgram::new(&p, opts);
        let horizon = p.duration() + 1.0;
        for w in 0..31 {
            let t0 = horizon * w as f64 / 31.0;
            for span in [0.05, 0.9, 4.2, horizon] {
                let lb = lazy.envelope_box(t0, t0 + span);
                let eb = full.envelope_box(t0, t0 + span);
                // Both contain the truth; the lazy chunk union may be
                // at most equal (chunk boxes union the same leaves).
                for i in 0..=20 {
                    let t = (t0 + span * i as f64 / 20.0).min(horizon);
                    assert!(
                        lb.contains(p.position(t), 1e-9),
                        "lazy envelope [{t0}, {}] misses t={t}",
                        t0 + span
                    );
                }
                assert_eq!(lb, eb, "envelope mismatch at [{t0}, {}]", t0 + span);
            }
        }
    }

    #[test]
    fn budget_exhaustion_refuses_instead_of_guessing() {
        let p = sample_path();
        let opts = CompileOptions::to_horizon(100.0).max_pieces(2);
        let lazy = LazyProgram::new(&p, opts);
        assert!(ProgramView::covers(&lazy, 1.0));
        assert!(!ProgramView::covers(&lazy, 99.0));
        assert!(matches!(
            lazy.exhausted(),
            Some(CompileError::Budget { pieces: 2, .. })
        ));
        // The covered prefix still answers.
        let mut idx = 0;
        assert_eq!(lazy.probe_from(&mut idx, 0.5).position, p.position(0.5));
    }

    #[test]
    fn curved_sources_without_tolerance_exhaust_cleanly() {
        let t = crate::FnTrajectory::new(|t| Vec2::new(t.cos(), t.sin()), 1.0);
        let lazy = LazyProgram::new(&t, CompileOptions::to_horizon(10.0));
        assert!(!ProgramView::covers(&lazy, 1.0));
        assert_eq!(lazy.exhausted(), Some(CompileError::Curved { at: 0.0 }));
        // Envelope queries stay sound via the speed bound even with an
        // empty arena... which has no anchor, so they report the rest
        // point convention (empty arena + no rest = Vec2::ZERO point);
        // the engine never gets here because covers() already refused.
    }

    #[test]
    fn warm_queries_do_not_touch_the_stream() {
        let p = sample_path();
        let lazy = LazyProgram::new(&p, CompileOptions::to_horizon(100.0));
        lazy.drive_to(p.duration() + 1.0);
        let allocs_before = lazy.chunk_allocs();
        let pieces_before = lazy.materialized_pieces();
        let mut idx = 0;
        for i in 0..=500 {
            let t = (p.duration() + 1.0) * i as f64 / 500.0;
            let _ = lazy.probe_from(&mut idx, t);
        }
        assert_eq!(lazy.materialized_pieces(), pieces_before);
        assert_eq!(lazy.chunk_allocs(), allocs_before);
    }

    #[test]
    fn freeze_equals_eager_lowering_truncated_at_the_frontier() {
        let p = sample_path();
        let lazy = LazyProgram::new(&p, CompileOptions::to_horizon(100.0));
        let mut idx = 0;
        let _ = lazy.probe_from(&mut idx, 4.0);
        let frozen = lazy.freeze();
        assert_eq!(frozen.pieces(), &lazy.pieces_snapshot()[..]);
        assert_eq!(frozen.end_time(), lazy.covered_end());

        // The frozen prefix is bit-identical to an eager lowering whose
        // horizon is the materialized frontier.
        let end = frozen.end_time();
        let truncated = eager(&p, &CompileOptions::to_horizon(end));
        assert_eq!(frozen.pieces(), truncated.pieces());
        assert_eq!(frozen.rest(), truncated.rest());
        let (mut i1, mut i2) = (0, 0);
        for i in 0..=100 {
            let t = end * i as f64 / 100.0;
            assert_eq!(
                ProgramView::probe_from(&frozen, &mut i1, t),
                ProgramView::probe_from(&truncated, &mut i2, t)
            );
            assert_eq!(frozen.envelope_box(t, end), truncated.envelope_box(t, end));
        }
        // Replay semantics: the frozen handle keeps the lazy view's
        // full mark list so identical queries seed identical windows.
        let mut walked = Vec::new();
        let mut m = ProgramView::next_mark_after(&frozen, 0.0);
        while let Some(mark) = m {
            walked.push(mark);
            m = ProgramView::next_mark_after(&frozen, mark);
        }
        assert_eq!(walked, lazy.marks_snapshot());
    }

    #[test]
    fn chunk_boxes_agree_with_per_piece_union_across_boundaries() {
        // More pieces than one chunk: a path of many tiny legs.
        let mut builder = PathBuilder::at(Vec2::ZERO);
        for i in 0..(3 * CHUNK_PIECES) {
            let x = (i + 1) as f64 * 0.01;
            let y = if i % 2 == 0 { 0.1 } else { -0.1 };
            builder = builder.line_to(Vec2::new(x, y));
        }
        let p = builder.build();
        let opts = CompileOptions::to_horizon(1e4).max_pieces(1 << 20);
        let full = eager(&p, &opts);
        let lazy = LazyProgram::new(&p, opts);
        let d = p.duration();
        for (a, b) in [
            (0.0, d),
            (0.3, d * 0.9),
            (d * 0.4, d * 0.6),
            (0.0, d * 0.03),
        ] {
            assert_eq!(
                lazy.envelope_box(a, b),
                full.envelope_box(a, b),
                "range [{a}, {b}]"
            );
        }
    }
}
