//! The first-contact engine: analytic advancement over monotone cursors
//! plus hierarchical swept-envelope pruning, with the original
//! conservative-advancement loop kept as a generic fallback.
//!
//! ## Two engines, one contract
//!
//! * [`first_contact`] — the fast path. Both trajectories provide
//!   [`MonotoneTrajectory`] cursors; the engine probes them at
//!   non-decreasing times (amortized O(1) per probe) and advances with
//!   the strongest certificate available at each step (see below).
//! * [`first_contact_generic`] — the original engine, byte-for-byte: a
//!   pure conservative-advancement loop over random-access
//!   [`Trajectory::position`] queries. It exists for exotic downstream
//!   `Trajectory` impls without cursors and as the reference
//!   implementation the fast path is equivalence-tested against
//!   (alongside the dense-sampling [`crate::verify::first_contact_brute`]
//!   oracle).
//!
//! Both report the same [`SimOutcome`] classification on the same
//! scenario; the fast path may declare a contact the generic engine
//! misses only inside the tolerance band `(radius, radius + tolerance]`,
//! where the conservative step can legitimately jump a sub-tolerance dip
//! (and may complete a disproof the generic loop truncates at its step
//! budget).
//!
//! ## The certificate ladder
//!
//! Each iteration advances by the longest of the applicable
//! contact-free certificates, every one of which is sound on its own:
//!
//! 1. **Affine quadratic** — on two affine pieces the squared distance
//!    is an exact quadratic; jump to its smallest root (the contact) or
//!    past the piece.
//! 2. **Cosine law** — a phase-locked circle pair (equal angular
//!    velocities; exact twins above all) or a circle against a
//!    stationary point obeys `d²(s) = P + Q·cos(ψ + ωs)`; jump to the
//!    first crossing or past the piece overlap. This is what crosses
//!    the dyadic schedules' arc sweeps in one step per piece.
//! 3. **Circular lower bounds** — the remaining circle combinations get
//!    a set-distance bound (circle-to-circle, moving-segment-to-circle)
//!    certifying the whole piece overlap when it clears the threshold.
//! 4. **Curvature bound** — the same pairs, when rung 3 cannot clear the
//!    piece: each piece has a known velocity and an acceleration of at
//!    most `ω²R`, so `|q(s)| ≥ d0 + d0'·s − M·s²/2` on the overlap; step
//!    to that bound's first root at `radius + tolerance/2` (see
//!    `curvature_step`). An arc pair then approaches contact like a
//!    second-order method instead of crawling at the speed bound. On
//!    two circles of unequal rates the engine then walks both along
//!    their own laws, `c + Rot(ω·s)(p − c)`, and chains the same bound
//!    from each walked point without probing a cursor (`law_walk`).
//!    [`Motion::Curved`] pieces get no such bound.
//! 5. **Wait window** — while exactly one probe is a wait (a zero
//!    velocity affine piece, the resting stationary target included),
//!    the pair is the other robot's plain search for a fixed point:
//!    [`Cursor::first_visit`] on the moving cursor clears the time
//!    before it can come within `radius + tolerance` of the waiting
//!    position, up to the wait's end, in one closed-form query. A
//!    clearance only: the contact itself is declared by 1–2.
//! 6. **Conservative step** — with relative speed at most `s`, a gap
//!    `D − radius` cannot close within `(D − radius)/s`; always taken
//!    when it is the longest (so the cursor engine never steps more
//!    often than the generic loop).
//! 7. **Swept-envelope pruning** (when [`ContactOptions::prune`] is on)
//!    — starting from the certified advance, test
//!    `b.gap_to(window, &envelope_a) > radius + tolerance` (the disk
//!    gap, or a map-aware bound through a singular frame warp; see
//!    [`Cursor::gap_to`]) over a galloping
//!    look-ahead window: success skips the window wholesale (entire
//!    sub-rounds of `Search(k)` at the top of the hierarchy) and doubles
//!    it, failure halves it — coarse-to-fine descent that hands off to
//!    certificates 1–6 at leaf scale. Complete misses back off
//!    exponentially so unprunable stretches pay almost nothing. Against
//!    a fixed `a` (speed bound 0) a skipped window's gap is a lower
//!    bound on the distance over the window, so it is folded into the
//!    `Horizon` minimum: a one-step disproof on the Lemma 4 relative
//!    trajectory still reports the closest approach.
//!
//! The progress floor (a few ulps of `t`) guarantees termination exactly
//! as before; the horizon endpoint is always sampled.

use rvz_geometry::Vec2;
use rvz_trajectory::monotone::{Cursor, MonotoneTrajectory, Motion, Probe};
use rvz_trajectory::Trajectory;
use std::fmt;
use std::time::{Duration, Instant};

/// A cooperative wall-clock budget for one first-contact query (or one
/// batch of queries sharing the same deadline).
///
/// The engines check the clock every [`Budget::check_every`] advancement
/// steps; when the budget's `limit` has elapsed since construction they
/// return [`SimOutcome::Deadline`] instead of continuing. The check can
/// only cause an early return — it never perturbs the stepping
/// arithmetic — so a budget that never fires (e.g. `Duration::MAX`)
/// yields bit-identical outcomes to running with no budget at all.
///
/// The deadline is absolute: cloning the `Budget` into per-pair or
/// per-worker option structs shares the original deadline, which is what
/// a per-request server deadline wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    started: Instant,
    limit: Duration,
    check_every: u64,
}

impl Budget {
    /// Steps between wall-clock checks when not overridden: cheap enough
    /// to bound deadline overrun tightly, rare enough to keep
    /// `Instant::now` off the per-step hot path.
    pub const DEFAULT_CHECK_EVERY: u64 = 1024;

    /// A budget expiring `limit` after *now*.
    ///
    /// `Duration::MAX` is a valid, never-expiring budget (exactly
    /// equivalent to no budget).
    pub fn new(limit: Duration) -> Budget {
        Budget {
            started: Instant::now(),
            limit,
            check_every: Budget::DEFAULT_CHECK_EVERY,
        }
    }

    /// Sets the number of advancement steps between wall-clock checks.
    ///
    /// # Panics
    ///
    /// Panics immediately when `steps` is zero (eager validation, as for
    /// [`ContactOptions::tolerance`]).
    pub fn check_every(mut self, steps: u64) -> Budget {
        assert!(steps > 0, "budget check interval must be positive");
        self.check_every = steps;
        self
    }

    /// The configured check interval in steps.
    pub fn check_interval(&self) -> u64 {
        self.check_every
    }

    /// `true` once the wall-clock limit has elapsed.
    pub fn exhausted(&self) -> bool {
        self.started.elapsed() >= self.limit
    }

    /// Wall-clock time left before the deadline (zero once exhausted).
    pub fn remaining(&self) -> Duration {
        self.limit.saturating_sub(self.started.elapsed())
    }

    /// `(steps, budget)` gate shared by every engine loop: `true` when
    /// this step lands on a check boundary and the deadline has passed.
    #[inline]
    pub(crate) fn fires_at(&self, steps: u64) -> bool {
        steps.is_multiple_of(self.check_every) && self.exhausted()
    }
}

/// Tuning for [`first_contact`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactOptions {
    /// Contact is declared when the distance falls to `radius + tolerance`.
    ///
    /// The reported time precedes the exact `D = radius` crossing by at
    /// most `tolerance / relative_speed`. Defaults to `1e-9`.
    pub tolerance: f64,
    /// Simulated-time horizon; beyond it the engine reports
    /// [`SimOutcome::Horizon`]. Defaults to `1e9`.
    pub horizon: f64,
    /// Hard cap on advancement steps (a safety net against pathological
    /// grazing configurations). Defaults to `50_000_000`.
    pub max_steps: u64,
    /// Enables the swept-envelope pruning layer (cursor engine only).
    ///
    /// On by default; an escape hatch for A/B measurements
    /// (`rvz sweep --no-prune`, `rvz serve --no-prune`) and for
    /// exotic cursors whose envelope fallback is slower than stepping.
    /// Pruning never changes which contacts exist — envelopes are sound
    /// over-approximations — but `Horizon` outcomes may observe their
    /// `min_distance` at a different (sparser) set of sample times.
    /// Against a fixed first trajectory each skipped window contributes
    /// its certified gap instead, so the minimum is not overstated.
    /// Turning it off can change a classification: disproofs that
    /// pruning certifies in one step (a mirror twin with `|d⃗·û| > r`)
    /// step instead, and can end as [`SimOutcome::StepBudget`] where the
    /// pruned run reports [`SimOutcome::Horizon`].
    pub prune: bool,
    /// Optional wall-clock budget; when it expires the engines surface
    /// [`SimOutcome::Deadline`] instead of running to the horizon or
    /// step budget. `None` (the default) never checks the clock.
    pub budget: Option<Budget>,
}

impl Default for ContactOptions {
    fn default() -> Self {
        ContactOptions {
            tolerance: 1e-9,
            horizon: 1e9,
            max_steps: 50_000_000,
            prune: true,
            budget: None,
        }
    }
}

impl ContactOptions {
    /// Options with a custom horizon and defaults elsewhere.
    ///
    /// # Panics
    ///
    /// Panics immediately when `horizon` is not positive and finite —
    /// construction-time validation, so a bad horizon fails at the call
    /// site that introduced it rather than at the first simulation.
    pub fn with_horizon(horizon: f64) -> Self {
        let opts = ContactOptions {
            horizon,
            ..ContactOptions::default()
        };
        opts.validate();
        opts
    }

    /// Sets the declaration tolerance.
    ///
    /// # Panics
    ///
    /// Panics immediately when `tolerance` is not positive and finite
    /// (including NaN) — every builder setter validates eagerly, so a
    /// bad value fails at the call site that introduced it rather than
    /// at the first simulation that happens to use it.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0 && tolerance.is_finite(),
            "tolerance must be positive and finite, got {tolerance}"
        );
        self.tolerance = tolerance;
        self
    }

    /// Sets the advancement-step budget.
    ///
    /// # Panics
    ///
    /// Panics immediately when `max_steps` is zero (eager validation,
    /// as for [`ContactOptions::tolerance`]).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        assert!(max_steps > 0, "max_steps must be positive");
        self.max_steps = max_steps;
        self
    }

    /// Enables or disables the swept-envelope pruning layer.
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Attaches a wall-clock [`Budget`]; the engines surface
    /// [`SimOutcome::Deadline`] once it expires.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.tolerance > 0.0 && self.tolerance.is_finite(),
            "tolerance must be positive and finite, got {}",
            self.tolerance
        );
        assert!(
            self.horizon > 0.0 && self.horizon.is_finite(),
            "horizon must be positive and finite, got {}",
            self.horizon
        );
        assert!(self.max_steps > 0, "max_steps must be positive");
    }
}

/// The result of a first-contact query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimOutcome {
    /// The trajectories came within `radius + tolerance` of each other.
    Contact {
        /// Time of the declared contact.
        time: f64,
        /// The actual distance at that time (≤ radius + tolerance).
        distance: f64,
        /// Advancement steps used.
        steps: u64,
    },
    /// No contact up to the horizon.
    Horizon {
        /// The smallest distance observed at any step (on analytically
        /// solved pieces this includes the true within-piece closest
        /// approach, not just the sampled endpoints; against a fixed
        /// first trajectory, a pruned window's certified lower bound).
        min_distance: f64,
        /// When that minimum was observed (for a pruned window, the
        /// window's start).
        min_distance_time: f64,
        /// Advancement steps used.
        steps: u64,
    },
    /// The step budget ran out before the horizon (grazing pathologies).
    StepBudget {
        /// Simulated time reached.
        time: f64,
        /// The smallest distance observed at any step.
        min_distance: f64,
        /// Advancement steps used (the configured budget).
        steps: u64,
    },
    /// The wall-clock [`Budget`] expired before the query resolved
    /// (cooperative cancellation — e.g. a per-request server deadline).
    Deadline {
        /// Simulated time reached when the deadline fired.
        time: f64,
        /// The smallest distance observed at any step.
        min_distance: f64,
        /// Advancement steps used (a multiple of the budget's check
        /// interval: the clock is only consulted on check boundaries).
        steps: u64,
    },
}

impl SimOutcome {
    /// The contact time, if a contact occurred.
    pub fn contact_time(&self) -> Option<f64> {
        match self {
            SimOutcome::Contact { time, .. } => Some(*time),
            _ => None,
        }
    }

    /// `true` for the contact outcome.
    pub fn is_contact(&self) -> bool {
        matches!(self, SimOutcome::Contact { .. })
    }

    /// Advancement steps used, whatever the outcome.
    pub fn steps(&self) -> u64 {
        match *self {
            SimOutcome::Contact { steps, .. }
            | SimOutcome::Horizon { steps, .. }
            | SimOutcome::StepBudget { steps, .. }
            | SimOutcome::Deadline { steps, .. } => steps,
        }
    }

    /// The outcome's stable classification label
    /// (`"contact"` / `"horizon"` / `"step-budget"` / `"deadline"`), as
    /// used by the engine-equivalence tests and engine telemetry.
    pub fn classification(&self) -> &'static str {
        match self {
            SimOutcome::Contact { .. } => "contact",
            SimOutcome::Horizon { .. } => "horizon",
            SimOutcome::StepBudget { .. } => "step-budget",
            SimOutcome::Deadline { .. } => "deadline",
        }
    }
}

impl fmt::Display for SimOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimOutcome::Contact { time, distance, steps } => {
                write!(f, "contact at t={time:.6} (distance {distance:.3e}, {steps} steps)")
            }
            SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            } => write!(
                f,
                "no contact before horizon (min distance {min_distance:.6} at t={min_distance_time:.3}, {steps} steps)"
            ),
            SimOutcome::StepBudget {
                time,
                min_distance,
                steps,
            } => {
                write!(f, "step budget exhausted at t={time:.3} (min distance {min_distance:.6}, {steps} steps)")
            }
            SimOutcome::Deadline {
                time,
                min_distance,
                steps,
            } => {
                write!(f, "deadline exceeded at t={time:.3} (min distance {min_distance:.6}, {steps} steps)")
            }
        }
    }
}

/// Finds the first time `|a(t) − b(t)| ≤ radius (+ tolerance)` on the
/// monotone-cursor fast path.
///
/// Builds one cursor per trajectory and runs
/// [`first_contact_cursors`]; see the [module docs](self) for the
/// algorithm and its soundness argument. For a `Trajectory` without a
/// [`MonotoneTrajectory`] impl use [`first_contact_generic`] (or wrap it
/// in [`rvz_trajectory::GenericCursor`]).
///
/// # Panics
///
/// Panics on invalid options, a non-positive `radius`, or a trajectory
/// producing a non-finite position.
pub fn first_contact<A, B>(a: &A, b: &B, radius: f64, opts: &ContactOptions) -> SimOutcome
where
    A: MonotoneTrajectory + ?Sized,
    B: MonotoneTrajectory + ?Sized,
{
    first_contact_cursors(&mut a.cursor(), &mut b.cursor(), radius, opts)
}

/// Work counters for the cursor engine, reported by
/// [`first_contact_cursors_instrumented`].
///
/// `steps` (probe iterations) live in the [`SimOutcome`]; these count
/// the envelope layer's extra work so benchmarks can attribute a
/// speedup: many pruned intervals with few queries means the hierarchy
/// certified separation coarsely, many queries with few pruned
/// intervals means the windows kept collapsing to leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Intervals skipped wholesale on an envelope separation certificate.
    pub pruned_intervals: u64,
    /// Individual `envelope(t0, t1)` queries issued (two per tested
    /// interval — one per cursor).
    pub envelope_queries: u64,
    /// Steps advanced by an exact analytic root (affine quadratic or
    /// cosine-law crossing): the ladder's certificates 1–2.
    pub analytic_steps: u64,
    /// Steps advanced by the curvature certificate (4) where it
    /// outreached the speed bound.
    pub curvature_steps: u64,
    /// Steps advanced by the wait-window certificate (5) where it
    /// outreached the rest of the ladder.
    pub window_steps: u64,
    /// Steps advanced by the piece-boundary and conservative
    /// certificates (3, 6) — the remainder of the ladder.
    pub conservative_steps: u64,
    /// Lane-kernel chunks evaluated (each chunk is up to
    /// [`crate::kernel::KERNEL_LANES`] merged affine intervals minimized
    /// branch-free in one pass). Zero on the scalar paths.
    pub lane_chunks: u64,
    /// Whole intervals certified (or localized) by lane chunks — the
    /// kernel's share of the total steps. Zero on the scalar paths.
    pub lane_intervals: u64,
    /// Advancement steps by the kind of piece pair they started on,
    /// indexed by [`PairKind`] (`pair_steps[PairKind::Wait as usize]`).
    /// Counted by the cursor engine, where the kinds partition the
    /// steps the step-choice counters count; zero on the compiled paths.
    pub pair_steps: [u64; PairKind::ALL.len()],
}

/// The kind of piece pair an advancement step starts on, as
/// [`EngineStats::pair_steps`] and `rvz_engine_steps_by_pair_total`
/// count it. The first matching kind in declaration order wins: a
/// circle against a wait counts as [`PairKind::Wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// Either side is a [`Motion::Curved`] piece.
    Curved,
    /// Either side is a wait (a zero-velocity affine piece).
    Wait,
    /// Two circular pieces.
    CircleCircle,
    /// A circular piece against a moving leg.
    CircleLeg,
    /// Two moving legs.
    LegLeg,
}

impl PairKind {
    /// Every kind, in index order.
    pub const ALL: [PairKind; 5] = [
        PairKind::Curved,
        PairKind::Wait,
        PairKind::CircleCircle,
        PairKind::CircleLeg,
        PairKind::LegLeg,
    ];

    /// The stable label used in metrics.
    pub fn label(self) -> &'static str {
        match self {
            PairKind::Curved => "curved",
            PairKind::Wait => "wait",
            PairKind::CircleCircle => "circle-circle",
            PairKind::CircleLeg => "circle-leg",
            PairKind::LegLeg => "leg-leg",
        }
    }

    /// The kind of the pair `(ma, mb)`.
    pub(crate) fn of(ma: Motion, mb: Motion) -> PairKind {
        match (ma, mb) {
            (Motion::Curved, _) | (_, Motion::Curved) => PairKind::Curved,
            _ if is_wait(ma) || is_wait(mb) => PairKind::Wait,
            (Motion::Circular { .. }, Motion::Circular { .. }) => PairKind::CircleCircle,
            (Motion::Circular { .. }, _) | (_, Motion::Circular { .. }) => PairKind::CircleLeg,
            _ => PairKind::LegLeg,
        }
    }
}

/// The cursor-level engine behind [`first_contact`].
///
/// Takes the two cursors directly, which lets heterogeneous callers
/// (e.g. `dyn MonotoneDyn` robots) drive the fast path through boxed
/// [`dyn_cursor`](rvz_trajectory::MonotoneDyn::dyn_cursor) cursors.
///
/// # Panics
///
/// As for [`first_contact`].
pub fn first_contact_cursors<A, B>(
    a: &mut A,
    b: &mut B,
    radius: f64,
    opts: &ContactOptions,
) -> SimOutcome
where
    A: Cursor + ?Sized,
    B: Cursor + ?Sized,
{
    first_contact_cursors_instrumented(a, b, radius, opts).0
}

/// [`first_contact_cursors`] plus the pruning-layer work counters —
/// the entry point the step and telemetry-identity tests use to read
/// pruned intervals and envelope queries alongside steps.
///
/// # Panics
///
/// As for [`first_contact`].
pub fn first_contact_cursors_instrumented<A, B>(
    a: &mut A,
    b: &mut B,
    radius: f64,
    opts: &ContactOptions,
) -> (SimOutcome, EngineStats)
where
    A: Cursor + ?Sized,
    B: Cursor + ?Sized,
{
    let (out, stats) = cursors_instrumented_impl(a, b, radius, opts);
    crate::telemetry::record(crate::telemetry::EnginePath::Cursor, Some(&out), stats);
    (out, stats)
}

/// The cursor engine loop proper (telemetry recorded by the public
/// wrapper above).
fn cursors_instrumented_impl<A, B>(
    a: &mut A,
    b: &mut B,
    radius: f64,
    opts: &ContactOptions,
) -> (SimOutcome, EngineStats)
where
    A: Cursor + ?Sized,
    B: Cursor + ?Sized,
{
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
    // A fixed `a` (a stationary target) has a point envelope, so a
    // skipped window's gap bounds `b`'s distance to it over the whole
    // window: the skip folds that bound into `min_distance`.
    let fixed_a = a.speed_bound() == 0.0;

    let mut t = 0.0_f64;
    let mut min_distance = f64::INFINITY;
    let mut min_distance_time = 0.0;
    let mut steps = 0_u64;
    let mut stats = EngineStats::default();
    // Adaptive pruning state: the galloping window doubles while
    // envelope certificates keep succeeding and halves when they fail;
    // after a complete miss the next attempts back off exponentially so
    // regions the envelopes cannot separate (close approaches, twins on
    // big sweeps) pay almost nothing for the layer.
    let mut window = 0.0_f64;
    let mut cooldown = 0_u32;
    let mut miss_streak = 0_u32;

    loop {
        let pa = a.probe(t);
        let pb = b.probe(t);
        let d = pa.position.distance(pb.position);
        assert!(
            d.is_finite(),
            "trajectory produced a non-finite position at t={t}"
        );
        if d < min_distance {
            min_distance = d;
            min_distance_time = t;
        }
        if d <= threshold {
            return (
                SimOutcome::Contact {
                    time: t,
                    distance: d,
                    steps,
                },
                stats,
            );
        }
        if t >= opts.horizon {
            return (
                SimOutcome::Horizon {
                    min_distance,
                    min_distance_time,
                    steps,
                },
                stats,
            );
        }
        steps += 1;
        if steps > opts.max_steps {
            return (
                SimOutcome::StepBudget {
                    time: t,
                    min_distance,
                    steps: opts.max_steps,
                },
                stats,
            );
        }
        if let Some(budget) = &opts.budget {
            if budget.fires_at(steps) {
                return (
                    SimOutcome::Deadline {
                        time: t,
                        min_distance,
                        steps,
                    },
                    stats,
                );
            }
        }

        // The conservative certificate holds regardless of piece shape:
        // with relative speed at most `rel_speed`, the gap `d − radius`
        // cannot close sooner. `∞` when neither robot can move.
        let conservative = if rel_speed > 0.0 {
            (d - radius) / rel_speed
        } else {
            f64::INFINITY
        };
        let mut exact_root = false;
        let mut curved = false;
        let mut windowed = false;
        let mut step = match (pa.motion, pb.motion) {
            (Motion::Affine { velocity: va }, Motion::Affine { velocity: vb }) => {
                // Both pieces are exact linear motions until `boundary`
                // (never past the horizon — the horizon endpoint itself
                // must be sampled so `min_distance` covers it).
                let boundary = pa.piece_end.min(pb.piece_end).min(opts.horizon);
                let ub = (boundary - t).max(0.0);
                // Relative motion q(u) = q0 + dv·u for u ∈ [0, ub].
                let q0 = pb.position - pa.position;
                let dv = vb - va;
                let a2 = dv.norm_squared();
                let b2 = q0.dot(dv);
                let c2 = q0.norm_squared() - threshold * threshold; // > 0 here
                let mut jump = f64::NAN;
                // A first crossing of |q| = threshold needs the distance
                // to be shrinking (b2 < 0) and a real root.
                if a2 > 0.0 && b2 < 0.0 {
                    let disc = b2 * b2 - a2 * c2;
                    if disc >= 0.0 {
                        // Smallest root, in the cancellation-free form.
                        let root = c2 / (-b2 + disc.sqrt());
                        if root <= ub {
                            jump = root;
                            exact_root = true;
                        }
                    }
                    if !exact_root {
                        // No contact inside the piece: still record the
                        // true closest approach (the quadratic's vertex)
                        // if it falls inside, so Horizon outcomes report
                        // a faithful minimum despite the long jumps.
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
                    // No contact within the piece (analytic) and none
                    // within the conservative span (speed bound): both
                    // certificates are sound, take the longer one — this
                    // is what keeps the cursor engine's step count at or
                    // below the generic loop's even when the schedule
                    // chops time into slivers of pieces.
                    ub.max(conservative)
                }
            }
            (ma, mb) => {
                // At least one non-affine piece. Circular pieces still
                // admit closed forms over the overlap of the two pieces:
                // a phase-locked circle pair or a circle against a
                // stationary point obeys the exact cosine law
                // `d²(s) = P + Q·cos(ψ + ω·s)` (solved like the affine
                // quadratic — jump to the first crossing or prove there
                // is none), and the remaining circular combinations get
                // a sound distance lower bound. Either way a certified
                // piece is crossed in one step instead of a conservative
                // crawl through the schedules' arc sweeps.
                let boundary = pa.piece_end.min(pb.piece_end).min(opts.horizon);
                let ub = (boundary - t).max(0.0);
                if let Some(law) = circular_pair_law(&pa, &pb, ma, mb) {
                    match law.first_crossing(threshold * threshold, ub) {
                        Some(du) => {
                            exact_root = true;
                            du
                        }
                        None => {
                            // No contact within the overlap: fold the
                            // law's true in-piece minimum into the
                            // Horizon bookkeeping (the circular analogue
                            // of the affine vertex) and jump the piece.
                            // The cheap `p − |q|` bound skips the phase
                            // arithmetic when the law cannot improve the
                            // running minimum.
                            if law.p - law.q.abs() < min_distance * min_distance * (1.0 - 1e-12) {
                                if let Some((dmin, smin)) = law.minimum_within(ub) {
                                    if dmin < min_distance {
                                        min_distance = dmin;
                                        min_distance_time = t + smin;
                                    }
                                }
                            }
                            ub.max(conservative)
                        }
                    }
                } else if piece_gap_lower_bound(&pa, &pb, ma, mb, ub) > threshold {
                    ub.max(conservative)
                } else if conservative.is_finite() {
                    // No closed form and no whole-piece bound: the
                    // curvature certificate, when it outreaches the speed
                    // bound. Aimed mid-band, like every declared contact.
                    let target = threshold - 0.5 * opts.tolerance;
                    let curvature = law_walk(
                        &pa,
                        &pb,
                        curvature_step(&pa, &pb, d, ub, target),
                        ub,
                        target,
                    );
                    curved = curvature > conservative;
                    curvature.max(conservative)
                } else {
                    // Neither can move: the distance can never change.
                    return (
                        SimOutcome::Horizon {
                            min_distance,
                            min_distance_time,
                            steps,
                        },
                        stats,
                    );
                }
            }
        };
        // The wait-window certificate: while one robot waits, the pair
        // is the other robot's plain search for a fixed point, and its
        // cursor clears the wait in one closed-form query. A clearance
        // only: inside a window the mover is on a leg or an arc against
        // a fixed point, where certificates 1–2 declare the contact.
        if !exact_root {
            let clear = match (is_wait(pa.motion), is_wait(pb.motion)) {
                (true, false) => window_clearance(b, &pa, t, step, threshold, opts.horizon),
                (false, true) => window_clearance(a, &pb, t, step, threshold, opts.horizon),
                _ => 0.0,
            };
            if clear > step {
                step = clear;
                windowed = true;
            }
        }
        stats.pair_steps[PairKind::of(pa.motion, pb.motion) as usize] += 1;
        if exact_root {
            stats.analytic_steps += 1;
        } else if windowed {
            stats.window_steps += 1;
        } else if curved {
            stats.curvature_steps += 1;
        } else {
            stats.conservative_steps += 1;
        }
        // Progress floor: a few ulps of the current time.
        let floor = 4.0 * f64::EPSILON * (1.0 + t.abs());
        let base = step.max(floor);
        let mut t_next = t + base;

        // Coarse-to-fine envelope pruning: starting from the already
        // certified `t_next`, test whether `b`'s trajectory stays
        // separated from `a`'s swept envelope over a look-ahead window.
        // Success skips the window wholesale (an entire sub-round in one
        // query at the top of the hierarchy) and doubles the next
        // window; failure halves it — the bisection half of the
        // coarse-to-fine descent — until the window collapses to leaf
        // scale and the analytic/conservative machinery above takes
        // over. Skips never pass a declarable
        // contact: a gap above `threshold` excludes every point the
        // sampling engines could declare on. Not attempted past an exact
        // root — `t_next` *is* the contact time there.
        if opts.prune && !exact_root && t_next < opts.horizon {
            if cooldown > 0 {
                cooldown -= 1;
            } else {
                let mut advanced = false;
                let mut w = window.max(4.0 * base);
                loop {
                    let span = w.min(opts.horizon - t_next);
                    if span <= 2.0 * base {
                        // A skip this short cannot beat just stepping:
                        // two envelope queries cost about two probes.
                        break;
                    }
                    stats.envelope_queries += 2;
                    let ea = a.envelope(t_next, t_next + span);
                    let gap = b.gap_to(t_next, t_next + span, &ea);
                    if gap > threshold {
                        if fixed_a && gap < min_distance {
                            min_distance = gap;
                            min_distance_time = t_next;
                        }
                        stats.pruned_intervals += 1;
                        t_next += span;
                        advanced = true;
                        if t_next >= opts.horizon {
                            break;
                        }
                        w *= 2.0;
                    } else {
                        // The obstruction usually sits right at the
                        // front of the window; halving once and retrying
                        // next iteration beats bisecting to the leaf now.
                        w *= 0.5;
                        break;
                    }
                }
                window = w;
                if advanced {
                    miss_streak = 0;
                } else {
                    // Complete miss: back off exponentially (up to 8
                    // iterations). A longer backoff would eliminate the
                    // last few percent of futile queries on cursors with
                    // only the speed-bound fallback envelope (which can
                    // never certify a span the conservative step doesn't
                    // already cover), but measurably delays re-detection
                    // of prunable structure on the schedule workloads —
                    // the 8-iteration cap is the better trade.
                    miss_streak = (miss_streak + 1).min(3);
                    cooldown = 1 << miss_streak;
                }
            }
        }
        t = t_next.min(opts.horizon);
    }
}

/// `true` for a wait: an affine piece with zero velocity (a schedule's
/// wait segment, or the permanent rest of a stationary target).
fn is_wait(motion: Motion) -> bool {
    matches!(motion, Motion::Affine { velocity } if velocity == Vec2::ZERO)
}

/// The wait-window certificate's advance from `t`: how long `mover`
/// provably stays farther than `threshold` from the waiting probe's
/// position before its wait ends (or the horizon comes). `0` when that
/// cannot beat the `step` already certified, so the query is skipped.
fn window_clearance<C: Cursor + ?Sized>(
    mover: &mut C,
    waiting: &Probe,
    t: f64,
    step: f64,
    threshold: f64,
    horizon: f64,
) -> f64 {
    let end = waiting.piece_end.min(horizon);
    if end - t <= step {
        return 0.0;
    }
    mover.first_visit(t, end, waiting.position, threshold) - t
}

/// The exact pair-distance law on a piece overlap where it reduces to a
/// single cosine: `d²(s) = p + q·cos(ψ + ω·s)` for `s` time units past
/// the probe.
///
/// Produced by [`circular_pair_law`] for a phase-locked circle pair
/// (equal angular velocities — exact twins and identically scheduled
/// pairs) and for a circle against a stationary point; both reduce to
/// the law of cosines with a uniformly rotating angle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CosineLaw {
    pub(crate) p: f64,
    pub(crate) q: f64,
    omega: f64,
    /// Phase proxies: `ψ = atan2(y, x)`, evaluated lazily — most pieces
    /// resolve on the `p`/`q` magnitudes alone, without trigonometry.
    y: f64,
    x: f64,
}

impl CosineLaw {
    /// `(|q|, ψ')` with the sign of `q` folded into the phase.
    fn normalized(&self) -> (f64, f64) {
        let psi = self.y.atan2(self.x);
        if self.q >= 0.0 {
            (self.q, psi)
        } else {
            (-self.q, psi + std::f64::consts::PI)
        }
    }

    /// The smallest `s ∈ [0, span]` with `d²(s) ≤ thr2`, or `None` when
    /// the law proves there is no such time in the span.
    pub(crate) fn first_crossing(&self, thr2: f64, span: f64) -> Option<f64> {
        if self.omega == 0.0 {
            // The phase never moves and the caller already measured
            // d(0) > threshold.
            return None;
        }
        let q = self.q.abs();
        if q == 0.0 {
            // Constant distance, again > threshold at the probe.
            return None;
        }
        let cstar = (thr2 - self.p) / q;
        if cstar < -1.0 {
            return None;
        }
        if cstar >= 1.0 {
            return Some(0.0);
        }
        let (_, psi) = self.normalized();
        // Contact set in phase space: x ∈ [β, 2π − β] (mod 2π), the far
        // side of the cosine.
        let beta = cstar.acos();
        let tau = std::f64::consts::TAU;
        let x0 = psi.rem_euclid(tau);
        if (beta..=tau - beta).contains(&x0) {
            return Some(0.0);
        }
        let arc = if self.omega > 0.0 {
            if x0 < beta {
                beta - x0
            } else {
                beta + tau - x0
            }
        } else if x0 < beta {
            x0 + beta
        } else {
            x0 - (tau - beta)
        };
        let s = arc / self.omega.abs();
        (s <= span).then_some(s)
    }

    /// The true distance minimum attained strictly inside `[0, span]`
    /// (at the phase `x = π`), if the phase reaches it; endpoints are
    /// sampled by the engine anyway.
    pub(crate) fn minimum_within(&self, span: f64) -> Option<(f64, f64)> {
        if self.omega == 0.0 {
            return None;
        }
        let (q, psi) = self.normalized();
        let pi = std::f64::consts::PI;
        let arc = if self.omega > 0.0 {
            (pi - psi).rem_euclid(std::f64::consts::TAU)
        } else {
            (psi - pi).rem_euclid(std::f64::consts::TAU)
        };
        let s = arc / self.omega.abs();
        (s <= span).then(|| ((self.p - q).max(0.0).sqrt(), s))
    }
}

/// The [`CosineLaw`] governing the pair distance on the current piece
/// overlap, when one exists.
pub(crate) fn circular_pair_law(
    pa: &Probe,
    pb: &Probe,
    ma: Motion,
    mb: Motion,
) -> Option<CosineLaw> {
    match (ma, mb) {
        (
            Motion::Circular {
                center: ca,
                angular_velocity: wa,
                ..
            },
            Motion::Circular {
                center: cb,
                angular_velocity: wb,
                ..
            },
        ) if wa == wb => {
            // Relative displacement: fixed center offset plus a vector
            // of constant magnitude rotating at ω.
            let c = cb - ca;
            let v0 = (pb.position - cb) - (pa.position - ca);
            Some(CosineLaw {
                p: c.norm_squared() + v0.norm_squared(),
                q: 2.0 * c.norm() * v0.norm(),
                omega: wa,
                // ψ = angle(v0) − angle(c), deferred.
                y: c.cross(v0),
                x: c.dot(v0),
            })
        }
        (
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                ..
            },
            Motion::Affine { velocity },
        ) if velocity == Vec2::ZERO => Some(point_circle_law(
            pb.position,
            pa.position,
            center,
            radius,
            angular_velocity,
        )),
        (
            Motion::Affine { velocity },
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                ..
            },
        ) if velocity == Vec2::ZERO => Some(point_circle_law(
            pa.position,
            pb.position,
            center,
            radius,
            angular_velocity,
        )),
        _ => None,
    }
}

/// Law of cosines for a point on a circle (currently at `on_circle`)
/// against a fixed point `p`: `d²(s) = R² + D² − 2RD·cos(θ(s) − φ_D)`.
fn point_circle_law(p: Vec2, on_circle: Vec2, center: Vec2, radius: f64, omega: f64) -> CosineLaw {
    let d = p - center;
    let rel = on_circle - center;
    CosineLaw {
        p: radius * radius + d.norm_squared(),
        q: -2.0 * radius * d.norm(),
        omega,
        // ψ = θ − angle(d) = angle(rel) − angle(d), deferred.
        y: d.cross(rel),
        x: d.dot(rel),
    }
}

/// A sound lower bound on the pair distance over the next `ub` time
/// units when at least one active piece is circular; `−∞` when no
/// closed form applies (an opaque [`Motion::Curved`] piece).
pub(crate) fn piece_gap_lower_bound(
    pa: &Probe,
    pb: &Probe,
    ma: Motion,
    mb: Motion,
    ub: f64,
) -> f64 {
    match (ma, mb) {
        (
            Motion::Circular {
                center: ca,
                radius: ra,
                ..
            },
            Motion::Circular {
                center: cb,
                radius: rb,
                ..
            },
        ) => {
            // Equal-rate pairs never reach here (they get the exact
            // cosine law); for unequal rates only the two circles bound
            // the motion.
            ca.distance(cb) - ra - rb
        }
        (Motion::Circular { center, radius, .. }, Motion::Affine { velocity }) => {
            segment_point_distance(pb.position, velocity, ub, center) - radius
        }
        (Motion::Affine { velocity }, Motion::Circular { center, radius, .. }) => {
            segment_point_distance(pa.position, velocity, ub, center) - radius
        }
        _ => f64::NEG_INFINITY,
    }
}

/// Relative slack on a circular piece's acceleration bound `ω²R`: covers
/// the rounding of a probe that sits a few ulps off its reported circle.
const CURVATURE_SLACK: f64 = 1e-9;

/// The second-order (curvature) certificate: a contact-free advance for
/// a piece pair without a closed form (unequal-rate circles, a circle
/// against a moving line), or `0` when a side is [`Motion::Curved`].
///
/// Each side has a known velocity (`ω·perp(p − c)` on an arc, no trig)
/// and an acceleration of at most `ω²R` (`0` on an affine piece). With
/// `q` the relative position, `d0 = |q0| = d`, `d0' = q0·(v_b − v_a)/d0`
/// and `M = a_a + a_b`, the projection of `q(s)` on `q0/d0` has second
/// derivative at most `M` in magnitude, so over the piece overlap
/// `|q(s)| ≥ d0 + d0'·s − M·s²/2`. The step is the first root of that
/// bound at `target`, capped at `ub`. Callers aim `target` inside the
/// declaration band (`tolerance/2` above the radius), so rounding in the
/// bound cannot land a declared contact below the radius.
pub(crate) fn curvature_step(pa: &Probe, pb: &Probe, d: f64, ub: f64, target: f64) -> f64 {
    let (Some((va, acc_a)), Some((vb, acc_b))) = (kinematics(pa), kinematics(pb)) else {
        return 0.0;
    };
    let rate = (pb.position - pa.position).dot(vb - va) / d;
    bound_root(rate, d - target, acc_a + acc_b).min(ub)
}

/// Curvature steps a circle pair may chain after the probe's own.
const LAW_WALK_STEPS: usize = 6;

/// A chained step covering less than this share of the first one ends
/// the walk: the pair is closing in, and the next probe is cheaper than
/// further walking.
const LAW_WALK_FLOOR: f64 = 0.25;

/// Extends a curvature step `first` on an unequal-rate circle pair by
/// walking both circles along their own laws: each piece is at
/// `c + Rot(ω·s)·(p − c)` after `s` time units, so the pair's position,
/// velocities and distance are known in closed form anywhere on the
/// overlap without probing a cursor. From each walked point the same
/// bound `d0 + d0'·s − M·s²/2` (the acceleration bound `M` does not
/// change along a circle) certifies the next stretch at `target`. The
/// walk stops at the overlap end `ub`, after [`LAW_WALK_STEPS`] links,
/// or once a link covers less than [`LAW_WALK_FLOOR`] of `first`. A
/// clearance only: a contact is declared where a probe measures it.
/// Any other pair returns `first` unchanged.
pub(crate) fn law_walk(pa: &Probe, pb: &Probe, first: f64, ub: f64, target: f64) -> f64 {
    let (
        Motion::Circular {
            center: ca,
            angular_velocity: wa,
            ..
        },
        Motion::Circular {
            center: cb,
            angular_velocity: wb,
            ..
        },
    ) = (pa.motion, pb.motion)
    else {
        return first;
    };
    let (Some((_, acc_a)), Some((_, acc_b))) = (kinematics(pa), kinematics(pb)) else {
        return first;
    };
    let m = acc_a + acc_b;
    let (ra, rb) = (pa.position - ca, pb.position - cb);
    let mut s = first;
    for _ in 0..LAW_WALK_STEPS {
        if s >= ub {
            break;
        }
        let (ra_s, rb_s) = (ra.rotated(wa * s), rb.rotated(wb * s));
        let q = (cb + rb_s) - (ca + ra_s);
        let d = q.norm();
        let gap = d - target;
        if gap <= 0.0 {
            break;
        }
        let rate = q.dot(rb_s.perp() * wb - ra_s.perp() * wa) / d;
        let link = bound_root(rate, gap, m);
        s += link.min(ub - s);
        if link < LAW_WALK_FLOOR * first {
            break;
        }
    }
    s.min(ub)
}

/// The first positive root of `m/2·s² − rate·s − gap` (`gap > 0`), in
/// the cancellation-free form for each sign of `rate`: the time the
/// curvature bound `gap + rate·s − m·s²/2` reaches zero (`∞` when
/// nothing bends or closes).
fn bound_root(rate: f64, gap: f64, m: f64) -> f64 {
    let sqrt_disc = (rate * rate + 2.0 * m * gap).sqrt();
    if rate <= 0.0 {
        2.0 * gap / (sqrt_disc - rate)
    } else {
        (rate + sqrt_disc) / m
    }
}

/// A piece's velocity and acceleration bound at the probe, or `None`
/// for a [`Motion::Curved`] piece.
fn kinematics(p: &Probe) -> Option<(Vec2, f64)> {
    match p.motion {
        Motion::Affine { velocity } => Some((velocity, 0.0)),
        Motion::Circular {
            center,
            radius,
            angular_velocity: w,
            ..
        } => {
            let rel = p.position - center;
            let reach = radius.max(rel.norm()) * (1.0 + CURVATURE_SLACK);
            Some((rel.perp() * w, w * w * reach))
        }
        Motion::Curved => None,
    }
}

/// Minimum distance from the moving point `p + v·u`, `u ∈ [0, ub]`, to
/// the fixed point `c`.
fn segment_point_distance(p: Vec2, v: Vec2, ub: f64, c: Vec2) -> f64 {
    let vv = v.norm_squared();
    if vv == 0.0 || ub == 0.0 {
        return p.distance(c);
    }
    let proj = ((c - p).dot(v) / vv).clamp(0.0, ub);
    (p + v * proj).distance(c)
}

/// The original conservative-advancement engine over random-access
/// [`Trajectory::position`] queries — the generic fallback and reference
/// implementation.
///
/// Soundness: with `s = a.speed_bound() + b.speed_bound()`, the distance
/// can decrease at rate at most `s`, so after observing gap `D − radius`
/// the engine may skip `(D − radius)/s` time units without a contact
/// being possible in between. The step also never falls below ~4 ulps of
/// the current time so the loop always makes progress; the extra skip
/// this introduces is below any physically meaningful scale.
///
/// # Panics
///
/// Panics on invalid options or a non-positive `radius`.
pub fn first_contact_generic<A, B>(a: &A, b: &B, radius: f64, opts: &ContactOptions) -> SimOutcome
where
    A: Trajectory + ?Sized,
    B: Trajectory + ?Sized,
{
    let out = first_contact_generic_impl(a, b, radius, opts);
    // Every generic step is a conservative advance; the path has no
    // analytic or pruning machinery to attribute work to.
    let stats = EngineStats {
        conservative_steps: out.steps(),
        ..EngineStats::default()
    };
    crate::telemetry::record(crate::telemetry::EnginePath::Generic, Some(&out), stats);
    out
}

/// The conservative-advancement loop proper (telemetry recorded by the
/// public wrapper above).
fn first_contact_generic_impl<A, B>(a: &A, b: &B, radius: f64, opts: &ContactOptions) -> SimOutcome
where
    A: Trajectory + ?Sized,
    B: Trajectory + ?Sized,
{
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

    let mut t = 0.0_f64;
    let mut min_distance = f64::INFINITY;
    let mut min_distance_time = 0.0;
    let mut steps = 0_u64;

    loop {
        let d = a.position(t).distance(b.position(t));
        assert!(
            d.is_finite(),
            "trajectory produced a non-finite position at t={t}"
        );
        if d < min_distance {
            min_distance = d;
            min_distance_time = t;
        }
        if d <= radius + opts.tolerance {
            return SimOutcome::Contact {
                time: t,
                distance: d,
                steps,
            };
        }
        if t >= opts.horizon {
            return SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            };
        }
        steps += 1;
        if steps > opts.max_steps {
            return SimOutcome::StepBudget {
                time: t,
                min_distance,
                steps: opts.max_steps,
            };
        }
        if let Some(budget) = &opts.budget {
            if budget.fires_at(steps) {
                return SimOutcome::Deadline {
                    time: t,
                    min_distance,
                    steps,
                };
            }
        }
        let gap = d - radius;
        let step = if rel_speed > 0.0 {
            gap / rel_speed
        } else {
            // Both stationary: the distance can never change.
            return SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            };
        };
        // Progress floor: a few ulps of the current time.
        let floor = 4.0 * f64::EPSILON * (1.0 + t.abs());
        t = (t + step.max(floor)).min(opts.horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_experiments::SplitMix64;
    use rvz_geometry::Vec2;
    use rvz_trajectory::{FnTrajectory, PathBuilder};

    /// A piece for the curvature property: its probe at `s = 0` and its
    /// exact position at any `s` in the overlap.
    struct Piece {
        probe: Probe,
        at: Box<dyn Fn(f64) -> Vec2>,
    }

    fn arc(rng: &mut SplitMix64, omega: f64) -> Piece {
        let center = Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0));
        let radius = rng.next_range(0.05, 4.0);
        let angle = rng.next_range(0.0, std::f64::consts::TAU);
        let at = move |s: f64| center + Vec2::from_polar(radius, angle + omega * s);
        Piece {
            probe: Probe {
                position: at(0.0),
                piece_end: f64::INFINITY,
                motion: Motion::Circular {
                    center,
                    radius,
                    angular_velocity: omega,
                    angle,
                },
            },
            at: Box::new(at),
        }
    }

    fn line(rng: &mut SplitMix64, speed: f64) -> Piece {
        let start = Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0));
        let velocity = Vec2::from_polar(speed, rng.next_range(0.0, std::f64::consts::TAU));
        Piece {
            probe: Probe {
                position: start,
                piece_end: f64::INFINITY,
                motion: Motion::Affine { velocity },
            },
            at: Box::new(move |s| start + velocity * s),
        }
    }

    fn signed_rate(rng: &mut SplitMix64) -> f64 {
        let w = rng.next_range(0.05, 5.0);
        if rng.next_below(2) == 0 {
            w
        } else {
            -w
        }
    }

    /// The curvature certificate against the true distance: on random
    /// unequal-rate arc pairs, arc vs line, arc vs wait and line vs arc,
    /// the pair never comes closer than the target anywhere in the step
    /// it certifies (sampled densely on `[0, step]`, the step capped at a
    /// random piece overlap). 256 draws in debug, 10,000 in release.
    #[test]
    fn curvature_step_never_passes_the_target() {
        let cases = if cfg!(debug_assertions) { 256 } else { 10_000 };
        let mut rng = SplitMix64::new(0xC0A7_5EED);
        let mut long = 0_usize;
        for case in 0..cases {
            let w = signed_rate(&mut rng);
            let speed = rng.next_range(0.05, 3.0);
            let (a, b) = match case % 4 {
                0 => {
                    // Either sense of rotation; equal rates have a
                    // closed form and never reach this rung.
                    let wb = signed_rate(&mut rng);
                    (arc(&mut rng, w), arc(&mut rng, wb))
                }
                1 => (arc(&mut rng, w), line(&mut rng, speed)),
                2 => (arc(&mut rng, w), line(&mut rng, 0.0)),
                _ => (line(&mut rng, speed), arc(&mut rng, w)),
            };
            let d = a.probe.position.distance(b.probe.position);
            let target = d * rng.next_range(0.02, 0.98);
            let ub = rng.next_range(0.01, 10.0);
            let step = curvature_step(&a.probe, &b.probe, d, ub, target);
            assert!(
                step > 0.0 && step <= ub,
                "case {case}: step {step} (ub {ub})"
            );
            const SAMPLES: usize = 512;
            for i in 0..=SAMPLES {
                let s = step * i as f64 / SAMPLES as f64;
                let gap = (a.at)(s).distance((b.at)(s));
                assert!(
                    gap >= target * (1.0 - 1e-12),
                    "case {case}: distance {gap} < target {target} at s = {s} of {step}"
                );
            }
            long += usize::from(step == ub);
        }
        // Some draws certify the whole overlap, most stop short of it.
        assert!(
            long * 50 >= cases && long * 2 <= cases,
            "{long} of {cases} steps reached ub"
        );
    }

    /// The law walk against the true distance: on random unequal-rate
    /// arc pairs, the pair never comes closer than the target anywhere
    /// on the span the walk certifies (513 samples on `[0, walked]`,
    /// capped at a random piece overlap), the walk never ends short of
    /// the probe's own curvature step, and it extends most of them.
    /// 256 draws in debug, 10,000 in release.
    #[test]
    fn law_walk_never_passes_the_target() {
        let cases = if cfg!(debug_assertions) { 256 } else { 10_000 };
        let mut rng = SplitMix64::new(0x01A3_3A1C);
        let mut extended = 0_usize;
        for case in 0..cases {
            let (wa, wb) = (signed_rate(&mut rng), signed_rate(&mut rng));
            let (a, b) = (arc(&mut rng, wa), arc(&mut rng, wb));
            let d = a.probe.position.distance(b.probe.position);
            let target = d * rng.next_range(0.02, 0.98);
            let ub = rng.next_range(0.01, 10.0);
            let first = curvature_step(&a.probe, &b.probe, d, ub, target);
            let walked = law_walk(&a.probe, &b.probe, first, ub, target);
            assert!(
                walked >= first && walked <= ub,
                "case {case}: walked {walked} from {first} (ub {ub})"
            );
            const SAMPLES: usize = 512;
            for i in 0..=SAMPLES {
                let s = walked * i as f64 / SAMPLES as f64;
                let gap = (a.at)(s).distance((b.at)(s));
                assert!(
                    gap >= target * (1.0 - 1e-12),
                    "case {case}: distance {gap} < target {target} at s = {s} of {walked}"
                );
            }
            extended += usize::from(walked > first);
        }
        assert!(
            extended * 2 >= cases,
            "{extended} of {cases} walks went past the first step"
        );
    }

    /// Which map a [`first_visit_never_clears_past_a_sampled_visit`]
    /// draw puts between the schedule and the query.
    #[derive(Debug, Clone, Copy)]
    enum VisitFrame {
        Direct,
        Similarity,
        Reflected,
        Generic,
        Drift,
        DriftUnderSimilarity,
    }

    /// `v·Rot(φ)`, reflected first when `mirror`.
    fn similarity(rng: &mut SplitMix64, mirror: bool) -> rvz_geometry::Mat2 {
        use rvz_geometry::Mat2;
        let m = Mat2::rotation(rng.next_range(0.0, std::f64::consts::TAU))
            * Mat2::scaling(rng.next_range(0.3, 1.5));
        if mirror {
            m * Mat2::chirality_reflection(-1.0)
        } else {
            m
        }
    }

    /// A random invertible map with condition number below 20.
    fn generic_map(rng: &mut SplitMix64) -> rvz_geometry::Mat2 {
        loop {
            let m = rvz_geometry::Mat2::new(
                rng.next_range(-1.5, 1.5),
                rng.next_range(-1.5, 1.5),
                rng.next_range(-1.5, 1.5),
                rng.next_range(-1.5, 1.5),
            );
            let norm = m.operator_norm();
            if m.det().abs() * 20.0 > norm * norm {
                return m;
            }
        }
    }

    fn drifted<T>(inner: T, rng: &mut SplitMix64) -> rvz_trajectory::ClockDrift<T> {
        let rates: Vec<(f64, f64)> = (0..rng.next_below(4))
            .map(|_| (rng.next_range(1.0, 3000.0), rng.next_range(0.5, 1.5)))
            .collect();
        rvz_trajectory::ClockDrift::from_rates(inner, &rates, rng.next_range(0.5, 1.5))
    }

    /// One clearance query on `traj` against the trajectory's own
    /// random-access positions: no sampled position before the answer
    /// lies within the radius, and a constructed visit bounds it.
    /// Returns `(answer > t0, answer == t1)`.
    fn check_visit<T: MonotoneTrajectory>(
        traj: &T,
        rng: &mut SplitMix64,
        horizon: f64,
        label: &str,
    ) -> (bool, bool) {
        let t0 = rng.next_range(0.0, horizon);
        let t1 = t0 + rng.next_range(0.0, 5.0).exp();
        let radius = rng.next_range(0.02, 0.5);
        let visit = rng.next_range(t0, t1);
        let planted = rng.next_below(2) == 0;
        let center = if planted {
            traj.position(visit)
                + Vec2::from_polar(radius * rng.next_f64(), rng.next_range(0.0, 6.3))
        } else {
            Vec2::new(rng.next_range(-4.0, 4.0), rng.next_range(-4.0, 4.0))
        };
        let mut cursor = traj.cursor();
        let _ = cursor.probe(t0);
        let s = cursor.first_visit(t0, t1, center, radius);
        assert!(
            t0 <= s && s <= t1,
            "{label}: answer {s} outside [{t0}, {t1}]"
        );
        if planted {
            assert!(
                s <= visit,
                "{label}: cleared to {s} past the visit at {visit}"
            );
        }
        const SAMPLES: usize = 1024;
        // `[t0, s)` is empty when the answer is "unknown".
        for i in (0..SAMPLES).filter(|_| s > t0) {
            let u = t0 + (s - t0) * i as f64 / SAMPLES as f64;
            let gap = traj.position(u).distance(center);
            assert!(
                gap > radius,
                "{label}: distance {gap} ≤ {radius} at {u}, before the answer {s} (t0 = {t0})"
            );
        }
        (s > t0, s == t1)
    }

    /// Draws one schedule behind one frame and checks a query on it.
    fn visit_draw<A: MonotoneTrajectory + Copy>(
        algorithm: A,
        rng: &mut SplitMix64,
        frame: VisitFrame,
        horizon: f64,
    ) -> (bool, bool) {
        use rvz_trajectory::FrameWarp;
        let offset = Vec2::new(rng.next_range(-2.0, 2.0), rng.next_range(-2.0, 2.0));
        let tau = rng.next_range(0.4, 1.6);
        let label = format!("{frame:?}");
        match frame {
            VisitFrame::Direct => check_visit(&algorithm, rng, horizon, &label),
            VisitFrame::Similarity | VisitFrame::Reflected => {
                let m = similarity(rng, matches!(frame, VisitFrame::Reflected));
                let warp = FrameWarp::new(algorithm, m, offset, tau);
                check_visit(&warp, rng, horizon * tau, &label)
            }
            VisitFrame::Generic => {
                let warp = FrameWarp::new(algorithm, generic_map(rng), offset, tau);
                check_visit(&warp, rng, horizon * tau, &label)
            }
            VisitFrame::Drift => check_visit(&drifted(algorithm, rng), rng, horizon, &label),
            VisitFrame::DriftUnderSimilarity => {
                let mirror = rng.next_below(2) == 0;
                let m = similarity(rng, mirror);
                let warp = FrameWarp::new(drifted(algorithm, rng), m, offset, tau);
                check_visit(&warp, rng, horizon * tau, &label)
            }
        }
    }

    /// The wait-window certificate's cursor query against dense
    /// samples: on Algorithm 4 and Algorithm 7, directly, through
    /// random similarity, reflected and generic invertible frame warps
    /// and through drifting clocks, `first_visit` never answers past a
    /// sampled visit to the disk, nor past a visit planted by centering
    /// the disk near the trajectory. The samples come from
    /// `Trajectory::position`, which shares no code with the contact
    /// windows. A rank-1 warp answers "unknown". 256 draws in debug,
    /// 10,000 in release.
    #[test]
    fn first_visit_never_clears_past_a_sampled_visit() {
        use rvz_geometry::Mat2;
        let cases = if cfg!(debug_assertions) { 256 } else { 10_000 };
        let frames = [
            VisitFrame::Direct,
            VisitFrame::Similarity,
            VisitFrame::Reflected,
            VisitFrame::Generic,
            VisitFrame::Drift,
            VisitFrame::DriftUnderSimilarity,
        ];
        let mut rng = SplitMix64::new(0xF1A5_7515);
        let (mut cleared, mut whole) = (0_usize, 0_usize);
        for case in 0..cases {
            let frame = frames[case % frames.len()];
            let (some, all) = if (case / frames.len()).is_multiple_of(2) {
                let horizon = rvz_search::times::rounds_total(6);
                visit_draw(rvz_search::UniversalSearch, &mut rng, frame, horizon)
            } else {
                let horizon = rvz_core::completion_time(4);
                visit_draw(rvz_core::WaitAndSearch, &mut rng, frame, horizon)
            };
            cleared += usize::from(some);
            whole += usize::from(all);
        }
        // The certificate is not vacuous: it clears some windows whole
        // and stops inside many others.
        assert!(
            cleared * 2 >= cases && whole * 20 >= cases && whole < cleared,
            "{cleared} of {cases} cleared something, {whole} the whole window"
        );
        // A rank-1 warp confines the robot to a line and has no
        // preimage disk: it answers t0 ("unknown").
        for (i, m) in [
            Mat2::new(1.0, 2.0, 2.0, 4.0),
            Mat2::IDENTITY - Mat2::rotation(0.7) * Mat2::chirality_reflection(-1.0),
            Mat2::ZERO,
        ]
        .into_iter()
        .enumerate()
        {
            let warp =
                rvz_trajectory::FrameWarp::new(rvz_search::UniversalSearch, m, Vec2::ZERO, 1.0);
            let t0 = 10.0 * i as f64;
            let s = warp
                .cursor()
                .first_visit(t0, t0 + 1e4, Vec2::new(40.0, 0.0), 0.1);
            assert_eq!(s, t0, "rank-1 map {m:?}");
        }
    }

    #[test]
    fn curvature_step_declines_curved_pieces() {
        let curved = Probe {
            position: Vec2::new(1.0, 0.0),
            piece_end: 1.0,
            motion: Motion::Curved,
        };
        let rest = Probe::resting(Vec2::ZERO);
        assert_eq!(curvature_step(&curved, &rest, 1.0, 1.0, 0.5), 0.0);
        assert_eq!(curvature_step(&rest, &curved, 1.0, 1.0, 0.5), 0.0);
    }

    #[test]
    fn head_on_contact_time_is_exact() {
        // Two robots approaching along the x-axis at unit speed each,
        // starting 10 apart with radius 1: contact at t = 4.5.
        let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
        let b = FnTrajectory::new(|t| Vec2::new(10.0 - t, 0.0), 1.0);
        let out = first_contact(&a, &b, 1.0, &ContactOptions::default());
        let t = out.contact_time().expect("contact");
        assert!((t - 4.5).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn head_on_paths_solve_in_one_analytic_step() {
        // The same configuration as closed-form paths: the fast engine
        // must jump straight to the crossing instead of crawling.
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .build();
        let b = PathBuilder::at(Vec2::new(10.0, 0.0))
            .line_to(Vec2::ZERO)
            .build();
        let out = first_contact(&a, &b, 1.0, &ContactOptions::default());
        match out {
            SimOutcome::Contact { time, steps, .. } => {
                assert!((time - 4.5).abs() < 1e-6, "t = {time}");
                assert!(steps <= 3, "analytic path took {steps} steps");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parallel_motion_never_contacts() {
        let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
        let b = FnTrajectory::new(|t| Vec2::new(t, 5.0), 1.0);
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(100.0));
        match out {
            SimOutcome::Horizon { min_distance, .. } => {
                assert!((min_distance - 5.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn grazing_paths_report_true_minimum_without_crawling() {
        // Closest approach 1.0 + 1e-7 > threshold: no contact, but the
        // Horizon outcome must carry the *true* within-piece minimum and
        // the engine must not ulp-crawl to find it.
        let h = 1.0 + 1e-7;
        let a = PathBuilder::at(Vec2::new(-50.0, h))
            .line_to(Vec2::new(50.0, h))
            .build();
        let b = PathBuilder::at(Vec2::ZERO).wait(500.0).build();
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(200.0));
        match out {
            SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            } => {
                assert!((min_distance - h).abs() < 1e-9, "min {min_distance}");
                assert!((min_distance_time - 50.0).abs() < 1e-6);
                assert!(steps < 10, "grazing pass took {steps} steps");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stationary_pair_terminates_immediately() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let b = FnTrajectory::new(|_| Vec2::new(3.0, 0.0), 0.0);
        let out = first_contact(&a, &b, 1.0, &ContactOptions::default());
        assert!(matches!(out, SimOutcome::Horizon { steps: 1, .. }));
    }

    #[test]
    fn contact_at_time_zero() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let b = FnTrajectory::new(|_| Vec2::new(0.5, 0.0), 0.0);
        let out = first_contact(&a, &b, 1.0, &ContactOptions::default());
        assert_eq!(out.contact_time(), Some(0.0));
    }

    #[test]
    fn grazing_pass_is_not_reported_as_contact() {
        // Closest approach 1.2 > radius 1.0.
        let a = FnTrajectory::new(|t| Vec2::new(t - 20.0, 0.0), 1.0);
        let b = FnTrajectory::new(|_| Vec2::new(0.0, 1.2), 0.0);
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(60.0));
        match out {
            SimOutcome::Horizon { min_distance, .. } => {
                // min_distance is sampled at step times only, so it is an
                // upper estimate of the true closest approach (1.2).
                assert!(
                    (1.2 - 1e-9..1.21).contains(&min_distance),
                    "min {min_distance}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tangential_contact_is_found() {
        // Closest approach exactly r − ε: a brief dip below the radius.
        let a = FnTrajectory::new(|t| Vec2::new(t - 20.0, 0.0), 1.0);
        let b = FnTrajectory::new(|_| Vec2::new(0.0, 0.95), 0.0);
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(60.0));
        assert!(out.is_contact(), "{out}");
        // Contact must happen near the predicted geometry:
        // |x| = sqrt(1 − 0.95²) ≈ 0.312 before the origin crossing at t=20.
        let t = out.contact_time().unwrap();
        assert!((t - (20.0 - 0.312_25)).abs() < 1e-2, "t = {t}");
    }

    #[test]
    fn works_with_paths_and_waits() {
        // A goes out and comes back; B waits within reach of the far end.
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(5.0, 0.0))
            .line_to(Vec2::ZERO)
            .build();
        let b = FnTrajectory::new(|_| Vec2::new(6.0, 0.0), 0.0);
        let out = first_contact(&a, &b, 1.5, &ContactOptions::default());
        // Contact when A reaches x = 4.5, i.e. t = 4.5.
        let t = out.contact_time().unwrap();
        assert!((t - 4.5).abs() < 1e-6);
    }

    #[test]
    fn horizon_is_respected() {
        let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
        let b = FnTrajectory::new(|t| Vec2::new(t + 100.0, 0.0), 1.0);
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(10.0));
        assert!(!out.is_contact());
    }

    #[test]
    fn horizon_endpoint_is_sampled_exactly() {
        // A closes on B but the horizon cuts the approach short: the
        // minimum over [0, horizon] sits exactly at the horizon, and both
        // engines must sample it there rather than overshoot past it.
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(100.0, 0.0))
            .build();
        let b = PathBuilder::at(Vec2::new(200.0, 0.0)).wait(1000.0).build();
        let opts = ContactOptions::with_horizon(10.0);
        for out in [
            first_contact(&a, &b, 1.0, &opts),
            first_contact_generic(&a, &b, 1.0, &opts),
        ] {
            match out {
                SimOutcome::Horizon {
                    min_distance,
                    min_distance_time,
                    ..
                } => {
                    assert_eq!(min_distance_time, 10.0);
                    assert!((min_distance - 190.0).abs() < 1e-9, "min {min_distance}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn analytic_contact_never_declared_past_horizon() {
        // The within-piece root lies beyond the horizon: must be Horizon.
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(100.0, 0.0))
            .build();
        let b = PathBuilder::at(Vec2::new(50.0, 0.0)).wait(1000.0).build();
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(20.0));
        assert!(!out.is_contact(), "{out}");
    }

    #[test]
    fn generic_and_fast_agree_on_classification() {
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(5.0, 0.0))
            .wait(2.0)
            .line_to(Vec2::new(5.0, 5.0))
            .build();
        let b = PathBuilder::at(Vec2::new(8.0, 4.0))
            .line_to(Vec2::new(2.0, 4.0))
            .build();
        let opts = ContactOptions::with_horizon(50.0);
        let fast = first_contact(&a, &b, 0.5, &opts);
        let generic = first_contact_generic(&a, &b, 0.5, &opts);
        assert_eq!(fast.is_contact(), generic.is_contact());
        if let (Some(tf), Some(tg)) = (fast.contact_time(), generic.contact_time()) {
            assert!((tf - tg).abs() < 1e-6, "{tf} vs {tg}");
        }
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let _ = first_contact(&a, &a, 0.0, &ContactOptions::default());
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn bad_options_rejected() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let opts = ContactOptions::default().tolerance(0.0);
        let _ = first_contact(&a, &a, 1.0, &opts);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn with_horizon_validates_eagerly() {
        // The satellite bugfix: a bad horizon must fail at construction,
        // not at the first simulation that happens to use it.
        let _ = ContactOptions::with_horizon(-1.0);
    }

    #[test]
    fn circle_vs_stationary_contact_solves_in_closed_form() {
        // A full circle of radius 2 around the origin; the target sits
        // 3.5 away from the center, so the closest approach is 1.5 at
        // the quarter turn (arc time π). With radius 1.6 the cosine law
        // must find the crossing just before that, without crawling.
        let a = PathBuilder::at(Vec2::new(2.0, 0.0))
            .full_circle(Vec2::ZERO)
            .build();
        let b = crate::Stationary::new(Vec2::new(0.0, 3.5));
        let out = first_contact(&a, &b, 1.6, &ContactOptions::default());
        match out {
            SimOutcome::Contact { time, steps, .. } => {
                assert!(time < std::f64::consts::PI, "t = {time}");
                assert!(time > 2.0, "t = {time}");
                assert!(steps <= 3, "cosine-law contact took {steps} steps");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn circle_vs_stationary_miss_reports_true_minimum() {
        // Same geometry, radius below the closest approach: one step
        // per piece, and the Horizon minimum is the law's exact 1.5 —
        // not a sampled over-estimate.
        let a = PathBuilder::at(Vec2::new(2.0, 0.0))
            .full_circle(Vec2::ZERO)
            .build();
        let b = crate::Stationary::new(Vec2::new(0.0, 3.5));
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(30.0));
        match out {
            SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            } => {
                assert!((min_distance - 1.5).abs() < 1e-9, "min {min_distance}");
                assert!(
                    (min_distance_time - std::f64::consts::PI).abs() < 1e-9,
                    "at t = {min_distance_time}"
                );
                assert!(steps < 10, "arc miss took {steps} steps");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn phase_locked_circles_cross_in_one_step_per_piece() {
        // Exact-twin geometry: identical circles offset by 5 — the
        // relative displacement is constant, so each piece is certified
        // in a single step.
        let a = PathBuilder::at(Vec2::new(2.0, 0.0))
            .full_circle(Vec2::ZERO)
            .build();
        let b = PathBuilder::at(Vec2::new(2.0, 5.0))
            .full_circle(Vec2::new(0.0, 5.0))
            .build();
        let out = first_contact(&a, &b, 1.0, &ContactOptions::with_horizon(100.0));
        match out {
            SimOutcome::Horizon {
                min_distance,
                steps,
                ..
            } => {
                assert!((min_distance - 5.0).abs() < 1e-9, "min {min_distance}");
                assert!(steps <= 5, "phase-locked pair took {steps} steps");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pruning_escape_hatch_preserves_outcomes() {
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(5.0, 0.0))
            .wait(2.0)
            .line_to(Vec2::new(5.0, 5.0))
            .build();
        let b = PathBuilder::at(Vec2::new(8.0, 4.0))
            .line_to(Vec2::new(2.0, 4.0))
            .build();
        let opts = ContactOptions::with_horizon(50.0);
        let on = first_contact(&a, &b, 0.5, &opts.prune(true));
        let off = first_contact(&a, &b, 0.5, &opts.prune(false));
        assert_eq!(on.is_contact(), off.is_contact());
        if let (Some(t1), Some(t2)) = (on.contact_time(), off.contact_time()) {
            assert!((t1 - t2).abs() < 1e-9);
        }
    }

    #[test]
    fn instrumented_engine_reports_pruning_work() {
        // Algorithm 4 against a far-away stationary point: the target
        // waits forever, so the wait-window certificate asks the search
        // cursor when it first comes within reach, and Search(1..5)
        // never does: one closed-form step clears the whole horizon.
        let a = rvz_search::UniversalSearch;
        let b = crate::Stationary::new(Vec2::new(50.0, 0.0));
        let opts = ContactOptions::with_horizon(rvz_search::times::rounds_total(5));
        let (out, stats) =
            first_contact_cursors_instrumented(&mut a.cursor(), &mut b.cursor(), 0.5, &opts);
        assert!(!out.is_contact());
        assert_eq!((out.steps(), stats.window_steps), (1, 1), "{stats:?}");
        assert_eq!(stats.pair_steps[PairKind::Wait as usize], 1, "{stats:?}");
        // Against a far-away robot walking off instead nothing waits for
        // long: the schedule envelope (reach ≤ 2^k) certifies huge
        // windows against the 50-unit separation, so the instrumented
        // entry point must report pruned intervals.
        let b = PathBuilder::at(Vec2::new(50.0, 0.0))
            .line_to(Vec2::new(50.0, 1e4))
            .build();
        let (out, stats) =
            first_contact_cursors_instrumented(&mut a.cursor(), &mut b.cursor(), 0.5, &opts);
        assert!(!out.is_contact());
        assert!(stats.envelope_queries > 0);
        assert!(stats.pruned_intervals > 0);
        // The step-choice counters partition the advancement steps, and
        // so do the pair kinds.
        assert_eq!(
            stats.analytic_steps
                + stats.curvature_steps
                + stats.window_steps
                + stats.conservative_steps,
            out.steps()
        );
        assert_eq!(stats.pair_steps.iter().sum::<u64>(), out.steps());
        // With pruning off the same query reports zero envelope work
        // (the step-choice counters still account for every step).
        let (silent_out, silent) = first_contact_cursors_instrumented(
            &mut a.cursor(),
            &mut b.cursor(),
            0.5,
            &opts.prune(false),
        );
        assert_eq!(silent.envelope_queries, 0);
        assert_eq!(silent.pruned_intervals, 0);
        assert_eq!(
            silent.analytic_steps
                + silent.curvature_steps
                + silent.window_steps
                + silent.conservative_steps,
            silent_out.steps()
        );
        assert_eq!(silent.pair_steps.iter().sum::<u64>(), silent_out.steps());
    }

    #[test]
    fn curvature_certificate_steps_arcs_against_a_moving_leg() {
        // Algorithm 4's arcs against a robot crossing its search area:
        // circle vs moving line has no closed form, so the curvature
        // certificate takes steps, and the step-choice counters still
        // partition every step.
        let a = rvz_search::UniversalSearch;
        let b = PathBuilder::at(Vec2::new(6.0, 0.0))
            .line_to(Vec2::new(-6.0, 0.3))
            .build();
        let opts = ContactOptions::with_horizon(rvz_search::times::rounds_total(4));
        let (out, stats) =
            first_contact_cursors_instrumented(&mut a.cursor(), &mut b.cursor(), 0.05, &opts);
        assert!(stats.curvature_steps > 0, "{out}: {stats:?}");
        assert_eq!(
            stats.analytic_steps
                + stats.curvature_steps
                + stats.window_steps
                + stats.conservative_steps,
            out.steps()
        );
    }

    #[test]
    fn expired_budget_fires_on_the_first_check_boundary() {
        // Parallel motion never contacts, so without the budget the
        // engine would run to the 1e9 horizon. An already-expired budget
        // with a 4-step check interval must stop both engines at exactly
        // step 4 — the first check boundary.
        let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
        let b = FnTrajectory::new(|t| Vec2::new(t, 5.0), 1.0);
        let opts =
            ContactOptions::default().with_budget(Budget::new(Duration::ZERO).check_every(4));
        for out in [
            first_contact(&a, &b, 1.0, &opts),
            first_contact_generic(&a, &b, 1.0, &opts),
        ] {
            match out {
                SimOutcome::Deadline { steps, .. } => assert_eq!(steps, 4),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "check interval must be positive")]
    fn zero_check_interval_rejected() {
        let _ = Budget::new(Duration::from_millis(1)).check_every(0);
    }

    #[test]
    fn outcome_display() {
        let c = SimOutcome::Contact {
            time: 1.0,
            distance: 0.5,
            steps: 10,
        };
        assert!(c.to_string().contains("contact at"));
        assert_eq!(c.steps(), 10);
        let h = SimOutcome::Horizon {
            min_distance: 2.0,
            min_distance_time: 5.0,
            steps: 3,
        };
        assert!(h.to_string().contains("no contact"));
        assert_eq!(h.steps(), 3);
        let d = SimOutcome::Deadline {
            time: 7.0,
            min_distance: 2.0,
            steps: 4096,
        };
        assert!(d.to_string().contains("deadline exceeded"));
        assert_eq!(d.classification(), "deadline");
        assert_eq!(d.steps(), 4096);
    }
}
