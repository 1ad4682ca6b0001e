//! The lane kernel: the compiled certificate ladder over
//! structure-of-arrays arenas, evaluating up to [`KERNEL_LANES`] merged
//! affine intervals per inner-loop pass.
//!
//! ## What is lane-parallel and what stays scalar
//!
//! The scalar ladder (`crate::compiled`) advances one merged piece
//! interval per step: probe both arenas, try the exact affine root,
//! otherwise jump to the next piece boundary and maybe gallop the
//! envelope-pruning window. On piece-dense schedules (the Θ(4ᵏ)
//! segments of a search round) the per-interval *overhead* — probe
//! reconstruction, branchy certificate selection — dominates the
//! handful of flops each interval actually needs.
//!
//! The kernel keeps the ladder's outer structure and replaces the
//! boundary-limited stepping with a **chunk chain**: it gathers the
//! next [`KERNEL_LANES`] merged intervals from the SoA arrays into
//! fixed lanes and minimizes each lane's relative-distance quadratic
//! **branch-free** (`u* = clamp(−b/a, 0, L)`, one fused min per lane).
//! An affine×affine lane anchors at the pieces' positions and its
//! clamped vertex is the *exact* interval minimum. A lane with a
//! circular side anchors that side at the **circle's static center**
//! and widens the lane's threshold by the circle radius (`pad`): the
//! quadratic then yields a certified *lower bound* on the pair
//! distance — `|Δanchor(u)| − pad ≤ |Δposition(u)|` — which coincides
//! with the scalar ladder's `piece_gap_lower_bound` on every pairing
//! that has no closed-form cosine law. A padded lane whose bound stays
//! above both the threshold and the running minimum is certified clear
//! without a single trig call; a lane that cannot be certified that
//! way is **refined in place** with the *identical* scalar
//! certificates (entry probes, cosine law, interior minima), so
//! inconclusive circular intervals stream through the chain instead of
//! bouncing back through the outer loop. Chunks chain up to
//! `MAX_CHAIN_CHUNKS` chunks per ladder iteration, so dense schedule runs
//! are certified at memory bandwidth instead of one boundary per
//! iteration. Only a genuine contact candidate — an affine vertex or a
//! padded bound inside the threshold, an exact cosine-law crossing, or
//! an entry probe already in contact — hands its interval entry back
//! to the scalar ladder, which re-derives the endgame with the exact
//! same arithmetic the scalar path would have used. The autovectorizer
//! turns the lane loop into SIMD on its own — measured via the two-arm
//! (`-C target-cpu=native` vs baseline) bench smoke in `ci.sh`, not
//! assumed.
//!
//! **Envelope rejection stays scalar.** A pruning probe is two
//! `O(log n)` descents of the baked box trees and a gallop/cooldown
//! state machine — data-dependent, branchy, and already amortized over
//! whole schedule rounds. Vectorizing it would force tree layouts the
//! scalar paths cannot share and would win nothing: pruning fires a few
//! times per query, lanes fire per interval. The kernel therefore runs
//! the *identical* pruning machinery after every clean chunk, seeded
//! from the same round marks.
//!
//! ## Fallback rules
//!
//! * A circular lane whose padded bound cannot disprove the interval
//!   (the pair may touch the circle band, or the bound dips below the
//!   tracked minimum distance) is refined inline with the scalar
//!   cosine-law certificates; only contact candidates leave the chain.
//!   A lane the padded bound leaves inside the threshold without a
//!   cosine law is such a candidate: the scalar tail runs the ladder's
//!   curvature certificate (`crate::engine::curvature_step`) on it, the
//!   same rung at the same place as the cursor engine and the compiled
//!   ladder.
//! * Conservative jumps that outrun the boundary (`(d − r)/s` beyond
//!   the current piece) skip the chain — the scalar jump already
//!   clears more time than the lanes would certify.
//! * Truncated coverage refuses exactly like the scalar ladder
//!   (`None`, never a guess).
//! * On the open prefix of a streamed arena
//!   ([`SoaStream`](rvz_trajectory::SoaStream)) the ladder also refuses
//!   before it reads anything the prefix has not settled — a probe, a
//!   lane, a round mark or an envelope window end at or past the
//!   materialized end. A prefix run therefore either refuses or is the
//!   finished arena's run, step for step
//!   ([`first_contact_streamed`](crate::first_contact_streamed) grows
//!   the prefix on refusal).
//!
//! Outcomes are classification-identical to the scalar ladder with
//! contact times within the engines' shared declaration slack (the
//! kernel reaches an interval at its exact `t0` while the scalar ladder
//! arrives via accumulated `t + Δ` sums, so times differ by ulps);
//! `tests/engine_equivalence.rs` and `tests/differential_fuzz.rs` gate
//! both, and the SoA arena's probes and envelope boxes are gated
//! **bit-for-bit** against the eager program's.

use crate::compiled::EngineScratch;
use crate::engine::{
    circular_pair_law, curvature_step, piece_gap_lower_bound, ContactOptions, EngineStats,
    SimOutcome,
};
use rvz_geometry::Vec2;
use rvz_trajectory::soa::AFFINE;
use rvz_trajectory::{Motion, Probe, ProgramSoA};

/// Merged intervals evaluated per chunk scan. Eight f64 lanes = two
/// AVX2 vectors (or four NEON) per column — wide enough to amortize
/// the gather, narrow enough that a hit lane wastes little work.
pub const KERNEL_LANES: usize = 8;

/// Upper bound on consecutive all-clear chunks certified per ladder
/// iteration before control returns to the outer loop. Chaining
/// amortizes the outer ladder's probe/certificate overhead over up to
/// `MAX_CHAIN_CHUNKS × KERNEL_LANES` intervals; the cap keeps envelope
/// pruning (which can disprove whole schedule rounds in one tree
/// query) in the loop on long quiet stretches.
const MAX_CHAIN_CHUNKS: usize = 8;

/// First contact between two SoA arenas on the lane kernel.
///
/// # Panics
///
/// Panics when either arena does not cover `opts.horizon`; use
/// [`try_first_contact_soa`] for truncated arenas.
pub fn first_contact_soa(
    a: &ProgramSoA,
    b: &ProgramSoA,
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> SimOutcome {
    assert!(
        a.covers(opts.horizon) && b.covers(opts.horizon),
        "arenas must cover the horizon {} (covered: {} / {})",
        opts.horizon,
        a.end_time(),
        b.end_time()
    );
    try_first_contact_soa(a, b, radius, opts, scratch).expect("fully covered arenas always resolve")
}

/// First contact between two SoA arenas, tolerating truncated coverage:
/// the lane-kernel twin of
/// [`try_first_contact_programs`](crate::try_first_contact_programs),
/// with the same refusal contract (`None` when the query needs
/// uncovered time, never a wrong answer).
///
/// # Panics
///
/// On invalid options or radius, as in [`crate::first_contact`].
pub fn try_first_contact_soa(
    a: &ProgramSoA,
    b: &ProgramSoA,
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> Option<SimOutcome> {
    let out = try_first_contact_soa_impl(a, b, radius, opts, scratch).ok();
    crate::telemetry::record(
        crate::telemetry::EnginePath::CompiledSoA,
        out.as_ref(),
        scratch.stats,
    );
    out
}

/// One gathered chunk of merged intervals (fixed arrays so the math
/// loop is branch-free and autovectorizable; unused lanes are poisoned
/// to never register a hit).
struct Chunk {
    /// Interval entry times.
    entry: [f64; KERNEL_LANES],
    /// Relative anchor at entry (positions for affine sides, static
    /// centers for circular sides).
    qx: [f64; KERNEL_LANES],
    qy: [f64; KERNEL_LANES],
    /// Relative anchor velocity over the interval.
    dvx: [f64; KERNEL_LANES],
    dvy: [f64; KERNEL_LANES],
    /// Interval length.
    len: [f64; KERNEL_LANES],
    /// Sum of the sides' circle radii: the anchor-to-position slack,
    /// zero on affine×affine lanes (whose minima are exact).
    pad: [f64; KERNEL_LANES],
    /// Piece indices backing each lane (the arena length denotes the
    /// permanent rest), so inline refinement can reconstruct the exact
    /// scalar probes without re-walking the index.
    ja: [usize; KERNEL_LANES],
    jb: [usize; KERNEL_LANES],
    /// Lanes actually filled.
    n: usize,
    /// Time the chunk certifies up to (end of the last filled lane).
    end: f64,
}

impl Chunk {
    fn poisoned() -> Chunk {
        Chunk {
            entry: [0.0; KERNEL_LANES],
            // Poison: a huge offset keeps every unused lane's minimum
            // far above any finite threshold.
            qx: [1e300; KERNEL_LANES],
            qy: [0.0; KERNEL_LANES],
            dvx: [0.0; KERNEL_LANES],
            dvy: [0.0; KERNEL_LANES],
            len: [0.0; KERNEL_LANES],
            pad: [0.0; KERNEL_LANES],
            ja: [usize::MAX; KERNEL_LANES],
            jb: [usize::MAX; KERNEL_LANES],
            n: 0,
            end: 0.0,
        }
    }
}

/// What a chunk chain concluded.
enum Stream {
    /// Every merged interval up to `until` is certified clear or
    /// exactly refined; the ladder may land there directly.
    Advanced { until: f64 },
    /// The interval starting at `entry` is a contact candidate (or an
    /// entry probe already in contact): the scalar ladder re-derives
    /// the endgame from there with its exact arithmetic. Intervals
    /// before `entry` are fully accounted.
    Candidate { entry: f64 },
    /// Nothing could be gathered at the chain start (coverage end
    /// right away).
    Stalled,
    /// The next lane starts at `at`, which an open arena prefix has not
    /// settled yet: the finished arena would gather it, so the query
    /// refuses rather than diverge.
    Refused { at: f64 },
}

/// Positional state of one arena during the gather walk.
struct Walk<'p> {
    soa: &'p ProgramSoA,
    /// Piece index hint (monotone).
    j: usize,
}

impl Walk<'_> {
    /// Advances to the piece containing `s` and returns its lane view
    /// `(anchor, anchor_vel, pad, end)`: the piece position and
    /// velocity for an affine piece (pad 0 — the anchor *is* the
    /// position), the static center and the circle radius for a
    /// circular piece (a permanent rest is an affine piece ending at
    /// the horizon). `None` on uncovered time.
    #[inline]
    fn lane_at(&mut self, s: f64, horizon: f64) -> Option<(Vec2, Vec2, f64, f64)> {
        let t1 = self.soa.t1s();
        let n = t1.len();
        while self.j < n && s >= t1[self.j] {
            self.j += 1;
        }
        if self.j == n {
            let rest = self.soa.rest()?;
            return Some((rest, Vec2::ZERO, 0.0, horizon));
        }
        let j = self.j;
        if self.soa.circ_column()[j] != AFFINE {
            let law = self.soa.circle(j);
            return Some((law.center, Vec2::ZERO, law.radius, t1[j]));
        }
        let u = s - self.soa.t0s()[j];
        let vel = Vec2::new(self.soa.vxs()[j], self.soa.vys()[j]);
        let pos = Vec2::new(
            self.soa.pos0xs()[j] + vel.x * u,
            self.soa.pos0ys()[j] + vel.y * u,
        );
        Some((pos, vel, 0.0, t1[j]))
    }
}

/// The exact scalar probe for a gathered lane side (`j` = arena length
/// denotes the permanent rest): bit-identical to the probe the scalar
/// ladder would reconstruct at `s`.
#[inline]
fn probe_lane(soa: &ProgramSoA, j: usize, s: f64) -> Probe {
    if j < soa.t1s().len() {
        soa.piece(j).probe_at(s)
    } else {
        Probe {
            position: soa
                .rest()
                .expect("gathered rest lane implies a rest position"),
            piece_end: f64::INFINITY,
            motion: Motion::Affine {
                velocity: Vec2::ZERO,
            },
        }
    }
}

/// Streams merged intervals from `start`, [`KERNEL_LANES`] at a time
/// for up to [`MAX_CHAIN_CHUNKS`] chunks: the branch-free anchor
/// quadratic certifies the easy lanes, and every lane it cannot
/// certify is refined in place with the scalar ladder's own
/// certificates (entry probe, cosine law, interior minimum, or the
/// gap bound the padded anchor quadratic already proved). Returns the
/// stream verdict plus the number of whole intervals accounted —
/// `best` accumulates the tightest exact affine minimum
/// `(distance², time)` and `min_distance` tracks the scalar running
/// minimum, both with the scalar update rules.
#[allow(clippy::too_many_arguments)]
fn chain_scan(
    a: &ProgramSoA,
    b: &ProgramSoA,
    ia: usize,
    ib: usize,
    start: f64,
    threshold: f64,
    thr2: f64,
    horizon: f64,
    min_distance: &mut f64,
    min_distance_time: &mut f64,
    best: &mut (f64, f64),
    stats: &mut EngineStats,
) -> (Stream, u64) {
    let mut wa = Walk { soa: a, j: ia };
    let mut wb = Walk { soa: b, j: ib };
    let mut s = start;
    let mut jumped = 0_u64;
    for _ in 0..MAX_CHAIN_CHUNKS {
        let mut c = Chunk::poisoned();
        while c.n < KERNEL_LANES && s < horizon {
            let (Some((pa, va, ra, ea)), Some((pb, vb, rb, eb))) =
                (wa.lane_at(s, horizon), wb.lane_at(s, horizon))
            else {
                if !a.settled(s) || !b.settled(s) {
                    return (Stream::Refused { at: s }, jumped);
                }
                break;
            };
            let e = ea.min(eb).min(horizon);
            debug_assert!(e > s, "merged interval must advance: [{s}, {e}]");
            let k = c.n;
            c.entry[k] = s;
            c.qx[k] = pb.x - pa.x;
            c.qy[k] = pb.y - pa.y;
            c.dvx[k] = vb.x - va.x;
            c.dvy[k] = vb.y - va.y;
            c.len[k] = e - s;
            c.pad[k] = ra + rb;
            c.ja[k] = wa.j;
            c.jb[k] = wb.j;
            c.n = k + 1;
            c.end = e;
            s = e;
        }
        if c.n == 0 {
            return if jumped > 0 {
                (Stream::Advanced { until: s }, jumped)
            } else {
                (Stream::Stalled, jumped)
            };
        }
        stats.lane_chunks += 1;

        // The branch-free pass: exact minimum of |q + dv·u| over
        // u ∈ [0, L] per lane. `a2.max(TINY)` absorbs the
        // zero-relative-velocity case (then b2 = 0 and u* clamps to 0).
        // No lane reads another — the compiler vectorizes this loop;
        // the two-arm bench smoke measures that it did.
        const TINY: f64 = f64::MIN_POSITIVE;
        let mut m2 = [f64::INFINITY; KERNEL_LANES];
        let mut um = [0.0_f64; KERNEL_LANES];
        for k in 0..KERNEL_LANES {
            let a2 = c.dvx[k] * c.dvx[k] + c.dvy[k] * c.dvy[k];
            let b2 = c.qx[k] * c.dvx[k] + c.qy[k] * c.dvy[k];
            let u = (-b2 / a2.max(TINY)).clamp(0.0, c.len[k]);
            let mx = c.qx[k] + c.dvx[k] * u;
            let my = c.qy[k] + c.dvy[k] * u;
            m2[k] = mx * mx + my * my;
            um[k] = u;
        }

        for k in 0..c.n {
            stats.lane_intervals += 1;
            let entry = c.entry[k];
            if c.pad[k] == 0.0 {
                // Affine×affine: the clamped vertex is the exact
                // interval minimum — inside the threshold it is a
                // genuine contact candidate.
                if m2[k] <= thr2 {
                    return (Stream::Candidate { entry }, jumped);
                }
                if m2[k] < best.0 {
                    *best = (m2[k], entry + um[k]);
                }
                stats.analytic_steps += 1;
                jumped += 1;
                continue;
            }
            let ht = threshold + c.pad[k];
            let contact_possible = m2[k] <= ht * ht;
            if !contact_possible && m2[k].sqrt() - c.pad[k] >= *min_distance {
                // The padded bound clears the threshold *and* the
                // running minimum: the scalar ladder could neither find
                // a crossing here (its law minimum is ≥ this bound) nor
                // tighten its minimum — certified clear, no trig.
                stats.analytic_steps += 1;
                jumped += 1;
                continue;
            }
            // Inline refinement: the scalar ladder's certificates with
            // its exact arithmetic, evaluated at the interval entry.
            let pa = probe_lane(a, c.ja[k], entry);
            let pb = probe_lane(b, c.jb[k], entry);
            let d = pa.position.distance(pb.position);
            if d < *min_distance {
                *min_distance = d;
                *min_distance_time = entry;
            }
            if d <= threshold {
                return (Stream::Candidate { entry }, jumped);
            }
            match circular_pair_law(&pa, &pb, pa.motion, pb.motion) {
                Some(law) => {
                    if law.first_crossing(thr2, c.len[k]).is_some() {
                        return (Stream::Candidate { entry }, jumped);
                    }
                    if law.p - law.q.abs() < *min_distance * *min_distance * (1.0 - 1e-12) {
                        if let Some((dmin, smin)) = law.minimum_within(c.len[k]) {
                            if dmin < *min_distance {
                                *min_distance = dmin;
                                *min_distance_time = entry + smin;
                            }
                        }
                    }
                }
                None => {
                    // No closed form (unequal-rate circles, or a circle
                    // against a moving line). The padded anchor bound
                    // *is* the scalar `piece_gap_lower_bound` here:
                    // above the threshold the scalar ladder steps the
                    // interval on the entry probe alone; inside it, the
                    // scalar ladder takes the curvature or conservative
                    // step, so the interval goes back to it.
                    if contact_possible {
                        return (Stream::Candidate { entry }, jumped);
                    }
                }
            }
            stats.conservative_steps += 1;
            jumped += 1;
        }
        s = c.end;
        if s >= horizon {
            break;
        }
    }
    (Stream::Advanced { until: s }, jumped)
}

/// The lane ladder proper (telemetry recorded by the callers).
/// Structurally the scalar `try_first_contact_programs_impl` with the
/// boundary-limited affine step widened to a chunk scan.
///
/// `Err(t)` is a refusal: the query needed time `t`, which an arena
/// does not cover or — for the open prefix of a
/// [`SoaStream`](rvz_trajectory::SoaStream) — has not settled. Every
/// probe, lane gather, round mark and envelope window end is checked
/// against [`ProgramSoA::settled`] before it is read, so on a prefix the
/// ladder either refuses or runs exactly the computation it runs on
/// the finished arena.
pub(crate) fn try_first_contact_soa_impl(
    a: &ProgramSoA,
    b: &ProgramSoA,
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> Result<SimOutcome, f64> {
    opts.validate();
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive and finite, got {radius}"
    );
    let rel_speed = a.speed_bound() + b.speed_bound();
    assert!(
        rel_speed.is_finite(),
        "speed bounds must be finite, got {rel_speed}"
    );
    let threshold = radius + opts.tolerance;
    let thr2 = threshold * threshold;
    if !a.covers(0.0) || !b.covers(0.0) {
        scratch.stats = EngineStats::default();
        return Err(0.0);
    }

    let mut ia = 0_usize;
    let mut ib = 0_usize;
    let mut t = 0.0_f64;
    let mut min_distance = f64::INFINITY;
    let mut min_distance_time = 0.0;
    // The tightest lane-certified minimum (distance², time): folded
    // into `min_distance` lazily, one sqrt per improvement.
    let mut best = (f64::INFINITY, 0.0_f64);
    let mut steps = 0_u64;
    let mut stats = EngineStats::default();
    let mut window = 0.0_f64;
    let mut cooldown = 0_u32;
    let mut miss_streak = 0_u32;

    let outcome = loop {
        let pa = a.probe_from(&mut ia, t);
        let pb = b.probe_from(&mut ib, t);
        let d = pa.position.distance(pb.position);
        debug_assert!(
            d.is_finite(),
            "SoA arena produced a non-finite position at t={t}"
        );
        if d < min_distance {
            min_distance = d;
            min_distance_time = t;
        }
        if best.0 < min_distance * min_distance {
            min_distance = best.0.sqrt();
            min_distance_time = best.1;
        }
        if d <= threshold {
            break SimOutcome::Contact {
                time: t,
                distance: d,
                steps,
            };
        }
        if t >= opts.horizon {
            break SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            };
        }
        steps += 1;
        if steps > opts.max_steps {
            break SimOutcome::StepBudget {
                time: t,
                min_distance,
                steps: opts.max_steps,
            };
        }
        if let Some(budget) = &opts.budget {
            if budget.fires_at(steps) {
                break SimOutcome::Deadline {
                    time: t,
                    min_distance,
                    steps,
                };
            }
        }

        let conservative = if rel_speed > 0.0 {
            (d - radius) / rel_speed
        } else {
            f64::INFINITY
        };
        let mut exact_root = false;
        let mut curved = false;
        let mut jumped = 0_u64;
        // Chains stream intervals linearly, so they only pay off where
        // envelope pruning cannot skip whole rounds: launch them when
        // pruning is in a miss/cooldown state (envelopes locally
        // overlap), or always when pruning is off.
        let chains_on = !opts.prune || cooldown > 0 || miss_streak > 0;
        // Chunk-chain launch point when this step is boundary-limited
        // (NaN otherwise): chains run after the scalar certificate for
        // the current interval, streaming from the next boundary.
        let mut chain_from = f64::NAN;
        let mut step = match (pa.motion, pb.motion) {
            (Motion::Affine { velocity: va }, Motion::Affine { velocity: vb }) => {
                let boundary = pa.piece_end.min(pb.piece_end).min(opts.horizon);
                let ub = (boundary - t).max(0.0);
                let q0 = pb.position - pa.position;
                let dv = vb - va;
                let a2 = dv.norm_squared();
                let b2 = q0.dot(dv);
                let c2 = q0.norm_squared() - thr2;
                let mut jump = f64::NAN;
                if a2 > 0.0 && b2 < 0.0 {
                    let disc = b2 * b2 - a2 * c2;
                    if disc >= 0.0 {
                        let root = c2 / (-b2 + disc.sqrt());
                        if root <= ub {
                            jump = root;
                            exact_root = true;
                        }
                    }
                    if !exact_root {
                        let vertex = -b2 / a2;
                        if vertex < ub {
                            let dmin = (q0 + dv * vertex).norm();
                            if dmin < min_distance {
                                min_distance = dmin;
                                min_distance_time = t + vertex;
                            }
                        }
                    }
                }
                if exact_root {
                    jump
                } else {
                    if chains_on && conservative <= ub && boundary < opts.horizon {
                        chain_from = boundary;
                    }
                    ub.max(conservative)
                }
            }
            (ma, mb) => {
                let boundary = pa.piece_end.min(pb.piece_end).min(opts.horizon);
                let ub = (boundary - t).max(0.0);
                if let Some(law) = circular_pair_law(&pa, &pb, ma, mb) {
                    match law.first_crossing(thr2, ub) {
                        Some(du) => {
                            exact_root = true;
                            du
                        }
                        None => {
                            if law.p - law.q.abs() < min_distance * min_distance * (1.0 - 1e-12) {
                                if let Some((dmin, smin)) = law.minimum_within(ub) {
                                    if dmin < min_distance {
                                        min_distance = dmin;
                                        min_distance_time = t + smin;
                                    }
                                }
                            }
                            if chains_on && conservative <= ub && boundary < opts.horizon {
                                chain_from = boundary;
                            }
                            ub.max(conservative)
                        }
                    }
                } else if piece_gap_lower_bound(&pa, &pb, ma, mb, ub) > threshold {
                    if chains_on && conservative <= ub && boundary < opts.horizon {
                        chain_from = boundary;
                    }
                    ub.max(conservative)
                } else if conservative.is_finite() {
                    let curvature =
                        curvature_step(&pa, &pb, d, ub, threshold - 0.5 * opts.tolerance);
                    curved = curvature > conservative;
                    curvature.max(conservative)
                } else {
                    break SimOutcome::Horizon {
                        min_distance,
                        min_distance_time,
                        steps,
                    };
                }
            }
        };
        let mut lane_jumped = false;
        if chain_from.is_finite() {
            let (stream, chained) = chain_scan(
                a,
                b,
                ia,
                ib,
                chain_from,
                threshold,
                thr2,
                opts.horizon,
                &mut min_distance,
                &mut min_distance_time,
                &mut best,
                &mut stats,
            );
            jumped = chained;
            steps += chained;
            match stream {
                Stream::Candidate { entry } => {
                    lane_jumped = true;
                    step = entry - t;
                }
                Stream::Advanced { until } => {
                    lane_jumped = true;
                    step = (until - t).max(conservative);
                }
                Stream::Stalled => {}
                Stream::Refused { at } => {
                    scratch.stats = stats;
                    return Err(at);
                }
            }
        }
        if exact_root {
            stats.analytic_steps += 1;
        } else if curved {
            stats.curvature_steps += 1;
        } else {
            stats.conservative_steps += 1;
        }
        if steps > opts.max_steps {
            break SimOutcome::StepBudget {
                time: t,
                min_distance,
                steps: opts.max_steps,
            };
        }
        if let Some(budget) = &opts.budget {
            // Lane jumps can hop over an exact check-interval multiple;
            // fire whenever a chain crossed one.
            let every = budget.check_interval();
            if lane_jumped && (jumped >= every || steps % every < jumped) && budget.exhausted() {
                break SimOutcome::Deadline {
                    time: t,
                    min_distance,
                    steps,
                };
            }
        }
        let floor = 4.0 * f64::EPSILON * (1.0 + t.abs());
        let base = step.max(floor);
        let mut t_next = t + base;

        // The scalar pruning machinery, verbatim: envelope rejection
        // stays scalar by design (see the module docs).
        if opts.prune && !exact_root && t_next < opts.horizon {
            if cooldown > 0 {
                cooldown -= 1;
            } else {
                let mut advanced = false;
                let mut w = window.max(4.0 * base);
                if window == 0.0 {
                    let (ma, mb) = (a.next_mark_after(t_next), b.next_mark_after(t_next));
                    // A prefix does not know yet whether its finished
                    // arena keeps a mark past the materialized end.
                    let unsettled = ma.filter(|&m| !a.settled(m));
                    if let Some(m) = unsettled.or(mb.filter(|&m| !b.settled(m))) {
                        scratch.stats = stats;
                        return Err(m);
                    }
                    let mark = match (ma, mb) {
                        (Some(ma), Some(mb)) => Some(ma.max(mb)),
                        (m, None) | (None, m) => m,
                    };
                    if let Some(m) = mark {
                        w = w.max(m - t_next);
                    }
                }
                loop {
                    let span = w.min(opts.horizon - t_next);
                    if span <= 2.0 * base {
                        break;
                    }
                    let end = t_next + span;
                    if !a.settled(end) || !b.settled(end) {
                        scratch.stats = stats;
                        return Err(end);
                    }
                    stats.envelope_queries += 2;
                    let ea = a.envelope_box(t_next, end);
                    let eb = b.envelope_box(t_next, end);
                    if ea.gap(&eb) > threshold {
                        stats.pruned_intervals += 1;
                        t_next += span;
                        advanced = true;
                        if t_next >= opts.horizon {
                            break;
                        }
                        w *= 2.0;
                    } else {
                        w *= 0.5;
                        break;
                    }
                }
                window = w;
                if advanced {
                    miss_streak = 0;
                } else {
                    miss_streak = (miss_streak + 1).min(3);
                    cooldown = 1 << miss_streak;
                }
            }
        }
        t = t_next.min(opts.horizon);
        if !a.covers(t) || !b.covers(t) {
            scratch.stats = stats;
            return Err(t);
        }
    };
    scratch.stats = stats;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{first_contact_programs, EngineScratch};
    use crate::Stationary;
    use rvz_search::UniversalSearch;
    use rvz_trajectory::{Compile, CompileOptions, PathBuilder, ProgramSoA};

    fn soa<T: Compile + ?Sized>(t: &T, horizon: f64) -> ProgramSoA {
        ProgramSoA::from_program(&t.compile(&CompileOptions::to_horizon(horizon)).unwrap())
    }

    #[test]
    fn head_on_paths_hit_like_the_scalar_ladder() {
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .build();
        let b = PathBuilder::at(Vec2::new(10.0, 0.0))
            .line_to(Vec2::ZERO)
            .build();
        let opts = ContactOptions::default();
        let mut scratch = EngineScratch::new();
        let out = first_contact_soa(
            &soa(&a, opts.horizon),
            &soa(&b, opts.horizon),
            1.0,
            &opts,
            &mut scratch,
        );
        let t = out.contact_time().expect("contact");
        assert!((t - 4.5).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn kernel_matches_scalar_on_schedule_pairs() {
        let horizon = rvz_search::times::rounds_total(4);
        let opts = ContactOptions::with_horizon(horizon);
        let reference = UniversalSearch;
        let cases: Vec<(f64, f64)> = vec![
            (0.35, 1.9),
            (0.8, 0.6),
            (1.7, 3.2),
            (2.5, 0.05),
            (0.05, 7.0),
        ];
        let mut scratch = EngineScratch::new();
        for (i, (speed, offset)) in cases.into_iter().enumerate() {
            let partner = rvz_model::RobotAttributes::reference()
                .with_speed(speed)
                .frame_warp(UniversalSearch, Vec2::new(offset, -offset * 0.5));
            let pa = reference
                .compile(&CompileOptions::to_horizon(horizon))
                .unwrap();
            let pb = partner
                .compile(&CompileOptions::to_horizon(horizon))
                .unwrap();
            let sa = ProgramSoA::from_program(&pa);
            let sb = ProgramSoA::from_program(&pb);
            let scalar = first_contact_programs(&pa, &pb, 0.2, &opts, &mut scratch);
            let kernel = first_contact_soa(&sa, &sb, 0.2, &opts, &mut scratch);
            assert_eq!(
                kernel.classification(),
                scalar.classification(),
                "case {i}: {kernel:?} vs {scalar:?}"
            );
            if let (Some(tk), Some(ts)) = (kernel.contact_time(), scalar.contact_time()) {
                assert!(
                    (tk - ts).abs() <= 1e-9 * (1.0 + ts.abs()) + 1e-9,
                    "case {i}: contact {tk} vs {ts}"
                );
            }
        }
    }

    #[test]
    fn twins_disprove_with_lane_chunks_and_pruning() {
        let horizon = rvz_search::times::rounds_total(4);
        let a = UniversalSearch;
        let b = rvz_model::RobotAttributes::reference()
            .frame_warp(UniversalSearch, Vec2::new(0.0, 2.0));
        let sa = soa(&a, horizon);
        let sb = soa(&b, horizon);
        let opts = ContactOptions::with_horizon(horizon);
        let mut scratch = EngineScratch::new();
        let out = first_contact_soa(&sa, &sb, 0.1, &opts, &mut scratch);
        match out {
            SimOutcome::Horizon { min_distance, .. } => {
                assert!((min_distance - 2.0).abs() < 1e-9, "min {min_distance}");
            }
            other => panic!("twins met: {other:?}"),
        }
        assert!(scratch.last_stats().pruned_intervals > 0, "no pruning");
    }

    #[test]
    fn kernel_refuses_on_truncated_coverage() {
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .wait(100.0)
            .build();
        let truncated =
            ProgramSoA::from_program(&a.compile(&CompileOptions::to_horizon(6.0)).unwrap());
        let far = soa(&Stationary::new(Vec2::new(100.0, 0.0)), 50.0);
        let mut scratch = EngineScratch::new();
        assert_eq!(
            try_first_contact_soa(
                &truncated,
                &far,
                1.0,
                &ContactOptions::with_horizon(50.0),
                &mut scratch
            ),
            None
        );
        // An early contact still resolves on the covered prefix.
        let near = soa(&Stationary::new(Vec2::new(5.5, 0.0)), 50.0);
        let resolved = try_first_contact_soa(
            &truncated,
            &near,
            1.0,
            &ContactOptions::with_horizon(50.0),
            &mut scratch,
        )
        .expect("contact inside the covered span");
        assert!((resolved.contact_time().unwrap() - 4.5).abs() < 1e-6);
    }

    #[test]
    fn deep_affine_runs_register_lane_work() {
        // A zig-zag shadowed by a parallel straight runner: the pair
        // stays persistently near (conservative jumps are short) while
        // the zig-zag's boundaries arrive densely, so every step is
        // boundary-limited and must go through chunk scans.
        let mut builder = PathBuilder::at(Vec2::ZERO);
        for i in 0..100 {
            let x = (i + 1) as f64;
            let y = if i % 2 == 0 { 0.2 } else { -0.2 };
            builder = builder.line_to(Vec2::new(x, y));
        }
        let zig = builder.build();
        let runner = PathBuilder::at(Vec2::new(0.0, 1.0))
            .line_to(Vec2::new(100.0, 1.0))
            .build();
        let horizon = 50.0;
        let sa = soa(&zig, horizon);
        let sb = soa(&runner, horizon);
        let mut opts = ContactOptions::with_horizon(horizon);
        opts.prune = false; // force the stepping path
        let mut scratch = EngineScratch::new();
        let out = first_contact_soa(&sa, &sb, 0.5, &opts, &mut scratch);
        assert!(matches!(out, SimOutcome::Horizon { .. }), "{out:?}");
        let stats = scratch.last_stats();
        assert!(stats.lane_chunks > 0, "no lane chunks ran: {stats:?}");
        assert!(
            stats.lane_intervals >= stats.lane_chunks,
            "inconsistent lane stats: {stats:?}"
        );
    }
}
