//! The canonical first-contact cases shared by the step and
//! compiled-arm gates in `engine_equivalence.rs` and the telemetry
//! byte-identity gate in `telemetry_identity.rs`.
//!
//! Seven trajectory pairs, each stressing one engine branch: grazing
//! passes just above and just below the declaration threshold, an
//! Algorithm 7 pair near and far, exact Algorithm 4 twins disproved to
//! a shallow and a deep horizon, and a fully curved spiral. Spans and
//! horizons are sized so the seed conservative loop finishes all seven
//! in well under a second in the debug test profile.

use plane_rendezvous::baselines::ArchimedeanSpiral;
use plane_rendezvous::core::completion_time;
use plane_rendezvous::prelude::*;
use plane_rendezvous::sim::{first_contact_cursors_instrumented, EngineStats};
use plane_rendezvous::trajectory::{Compile, CompileOptions, CompiledProgram};

/// Piece budget for a case's lowering unless the case needs more.
const CASE_PIECE_BUDGET: usize = 1 << 19;

/// One trajectory pair plus the engine options it runs under.
pub struct EngineCase {
    /// Stable identifier, used in assertion messages.
    pub name: &'static str,
    /// Contact radius.
    pub radius: f64,
    /// Engine options (`prune` set by [`canonical_cases`]).
    pub opts: ContactOptions,
    /// First trajectory.
    pub a: Box<dyn Compile>,
    /// Second trajectory.
    pub b: Box<dyn Compile>,
    /// Piece budget for this case's lowering.
    pub piece_budget: usize,
    /// Certified-approximation tolerance for curved sources (`None`
    /// for exactly piecewise pairs).
    pub approx_tolerance: Option<f64>,
}

impl EngineCase {
    /// The seed conservative-advancement loop on this pair.
    pub fn run_generic(&self) -> SimOutcome {
        first_contact_generic(&*self.a, &*self.b, self.radius, &self.opts)
    }

    /// The cursor engine on this pair (scoped stack cursors, as sweeps
    /// run it), with its pruning-layer work counters.
    pub fn run_cursor(&self) -> (SimOutcome, EngineStats) {
        let mut out = None;
        self.a.with_cursor(&mut |ca| {
            self.b.with_cursor(&mut |cb| {
                out = Some(first_contact_cursors_instrumented(
                    ca,
                    cb,
                    self.radius,
                    &self.opts,
                ));
            });
        });
        out.expect("with_cursor always invokes its closure")
    }

    /// Lowers both trajectories for the compiled engines, to the case's
    /// horizon and piece budget (plus its approximation tolerance when
    /// it declares one).
    // Used by `engine_equivalence.rs` only; each test binary compiles
    // this module on its own.
    #[allow(dead_code)]
    pub fn lower(&self) -> (CompiledProgram, CompiledProgram) {
        let mut copts = CompileOptions::to_horizon(self.opts.horizon).max_pieces(self.piece_budget);
        if let Some(eps) = self.approx_tolerance {
            copts = copts.approx_tolerance(eps);
        }
        let lower = |t: &dyn Compile| {
            t.compile(&copts)
                .unwrap_or_else(|e| panic!("{}: lowering failed: {e:?}", self.name))
        };
        (lower(&*self.a), lower(&*self.b))
    }
}

/// The seven canonical cases, with the cursor engine's envelope
/// pruning layer on or off.
pub fn canonical_cases(prune: bool) -> Vec<EngineCase> {
    let tol = 1e-9;
    let span = 2.0;
    // A straight pass at height `h` by a stationary target at the origin.
    let grazing = |name, h: f64| EngineCase {
        name,
        radius: 1.0,
        opts: ContactOptions::with_horizon(4.0 * span).tolerance(tol),
        a: Box::new(
            PathBuilder::at(Vec2::new(-span, h))
                .line_to(Vec2::new(span, h))
                .build(),
        ),
        b: Box::new(Stationary::new(Vec2::ZERO)),
        piece_budget: CASE_PIECE_BUDGET,
        approx_tolerance: None,
    };
    // Exact twins under Algorithm 4: contact must be disproved all the
    // way to the horizon.
    let twins = |name, rounds, max_steps, piece_budget| EngineCase {
        name,
        radius: 0.1,
        opts: ContactOptions {
            tolerance: tol,
            horizon: completion_time(rounds),
            max_steps,
            ..ContactOptions::default()
        },
        a: Box::new(UniversalSearch),
        b: Box::new(RobotAttributes::reference().frame_warp(UniversalSearch, Vec2::new(0.0, 2.0))),
        piece_budget,
        approx_tolerance: None,
    };
    let slower = RobotAttributes::reference().with_speed(0.5);
    let spiral_radius = 0.02;
    let mut cases = vec![
        // Closest approach half a tolerance above the threshold: the
        // seed loop crawls at tolerance scale near the graze, the cursor
        // engine proves the miss per piece in closed form.
        grazing("grazing_near_miss", 1.0 + 1.5 * tol),
        // The same pass dipping half a tolerance below the threshold:
        // the cursor engine solves the crossing quadratic.
        grazing("grazing_contact", 1.0 + 0.5 * tol),
        EngineCase {
            name: "algorithm7_feasible",
            radius: 0.05,
            opts: ContactOptions::with_horizon(completion_time(6)).tolerance(tol),
            a: Box::new(WaitAndSearch),
            b: Box::new(slower.frame_warp(WaitAndSearch, Vec2::new(0.3, 0.85))),
            piece_budget: CASE_PIECE_BUDGET,
            approx_tolerance: None,
        },
        twins("universal_twins_horizon", 4, 2_000_000, CASE_PIECE_BUDGET),
        // A fully curved trajectory: the cursor layer's warm-started
        // Newton inversion.
        EngineCase {
            name: "spiral_search",
            radius: spiral_radius,
            opts: ContactOptions::with_horizon(1e5).tolerance(tol),
            a: Box::new(ArchimedeanSpiral::for_visibility(spiral_radius)),
            b: Box::new(Stationary::new(Vec2::new(0.3, 0.4))),
            piece_budget: CASE_PIECE_BUDGET,
            // Certified chords: the engine folds the realized bound
            // into its contact threshold.
            approx_tolerance: Some(spiral_radius * 1e-4),
        },
        // Rounds where one `Search(k)` holds many segments: the envelope
        // hierarchy must skip the sub-`d` sweeps wholesale.
        twins("universal_deep_twins", 5, 5_000_000, 1 << 21),
        // Whole rounds sweep radii far below the separation before the
        // searches reach it: round and sub-round certificates dominate.
        EngineCase {
            name: "algorithm7_far_pair",
            radius: 0.1,
            opts: ContactOptions::with_horizon(completion_time(7)).tolerance(tol),
            a: Box::new(WaitAndSearch),
            b: Box::new(slower.frame_warp(WaitAndSearch, Vec2::new(8.0, 6.0))),
            piece_budget: CASE_PIECE_BUDGET,
            approx_tolerance: None,
        },
    ];
    for case in &mut cases {
        case.opts.prune = prune;
    }
    cases
}
