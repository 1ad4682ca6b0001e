//! Compilation soundness: the flat piecewise IR must be a *faithful*
//! lowering of every schedule in the workspace.
//!
//! Property tests over dense time grids: compiled positions match the
//! interpreted trajectories within `1e-12` (relative to the sweep
//! radius scale) — including full `FrameWarp ∘ ClockDrift` attribute
//! stacks — and the baked envelope trees contain every sampled
//! position. The spiral, the one transcendental trajectory, refuses to
//! lower by name; silent guessing is never an option.

use plane_rendezvous::core::WaitAndSearch;
use plane_rendezvous::prelude::*;
use plane_rendezvous::trajectory::{ClockDrift, Compile, CompileOptions, CompiledProgram};

/// Dense position agreement between a trajectory and its lowering.
fn assert_positions_match<T: Trajectory + ?Sized>(
    label: &str,
    interpreted: &T,
    program: &CompiledProgram,
    horizon: f64,
    samples: usize,
) {
    for i in 0..=samples {
        // The division can land an ulp past the horizon; clamp so the
        // sample stays inside the covered span.
        let t = (horizon * i as f64 / samples as f64).min(horizon);
        let d = program.position(t).distance(interpreted.position(t));
        // The lowering re-anchors each piece at its start; the only
        // noise is one extra rounding per evaluation.
        let scale = 1.0 + interpreted.position(t).norm();
        assert!(
            d <= 1e-12 * scale,
            "{label}: compiled drifts {d:.3e} from interpreted at t={t}"
        );
    }
}

/// Envelope containment over sliding windows of several spans.
fn assert_envelopes_contain<T: Trajectory + ?Sized>(
    label: &str,
    interpreted: &T,
    program: &CompiledProgram,
    horizon: f64,
) {
    for w in 0..29 {
        let t0 = horizon * w as f64 / 29.0;
        for span in [0.1, 3.7, horizon / 7.0, horizon] {
            let disk = program.envelope(t0, t0 + span);
            let boxed = program.envelope_box(t0, t0 + span);
            for i in 0..=20 {
                let t = (t0 + span * i as f64 / 20.0).min(horizon);
                let p = interpreted.position(t);
                assert!(
                    disk.contains(p, 1e-9),
                    "{label}: envelope [{t0}, {}] misses t={t}",
                    t0 + span
                );
                assert!(
                    boxed.contains(p, 1e-9),
                    "{label}: envelope box [{t0}, {}] misses t={t}",
                    t0 + span
                );
            }
        }
    }
}

#[test]
fn universal_search_lowers_faithfully() {
    let horizon = times::rounds_total(3);
    let program = UniversalSearch
        .compile(&CompileOptions::to_horizon(horizon))
        .expect("rounds 1..=3 fit the default budget");
    assert!(program.covers(horizon));
    assert!(!program.round_marks().is_empty(), "schedule marks recorded");
    assert_positions_match("alg4", &UniversalSearch, &program, horizon, 4000);
    assert_envelopes_contain("alg4", &UniversalSearch, &program, horizon);
}

#[test]
fn wait_and_search_lowers_faithfully() {
    let horizon = plane_rendezvous::core::completion_time(3);
    let program = WaitAndSearch
        .compile(&CompileOptions::to_horizon(horizon))
        .expect("rounds 1..=3 fit the default budget");
    assert!(program.covers(horizon));
    assert_positions_match("alg7", &WaitAndSearch, &program, horizon, 4000);
    assert_envelopes_contain("alg7", &WaitAndSearch, &program, horizon);
}

#[test]
fn warp_drift_stacks_lower_faithfully() {
    // The full beyond-paper stack: Algorithm 4 through a drifting clock
    // inside a mirrored, scaled, rotated, time-dilated frame — warp and
    // drift must be applied at lowering time, exactly.
    let horizon = times::rounds_total(3);
    let drift = ClockDrift::from_rates(UniversalSearch, &[(10.0, 0.7), (25.0, 1.3)], 0.9);
    let stack = RobotAttributes::new(0.8, 1.25, 1.1, Chirality::Mirrored)
        .frame_warp(drift, Vec2::new(0.4, -0.7));
    let program = stack
        .compile(&CompileOptions::to_horizon(horizon))
        .expect("the stack lowers piece for piece");
    assert!(program.covers(horizon));
    assert_positions_match("warp∘drift", &stack, &program, horizon, 4000);
    assert_envelopes_contain("warp∘drift", &stack, &program, horizon);
    // The warp maps the inner marks through the time dilation.
    assert!(!program.round_marks().is_empty());
}

#[test]
fn warped_partner_matches_frame_warp_of_reference() {
    // The sweep executor's partner lowering: attribute frame applied at
    // lowering time must equal evaluating through the warp per query.
    let attrs = RobotAttributes::reference()
        .with_speed(0.6)
        .with_time_unit(1.4)
        .with_orientation(2.2);
    let warped = attrs.frame_warp(WaitAndSearch, Vec2::new(0.2, 0.9));
    let horizon = plane_rendezvous::core::completion_time(3);
    let program = warped
        .compile(&CompileOptions::to_horizon(horizon))
        .expect("lowering succeeds");
    assert_positions_match("partner", &warped, &program, horizon, 3000);
}

#[test]
fn spiral_refuses_to_lower_without_a_tolerance() {
    // Curved spans always refuse: no lowering approximates them.
    use plane_rendezvous::trajectory::CompileError;
    use rvz_oracles::ArchimedeanSpiral;
    let err = ArchimedeanSpiral::with_pitch(0.5)
        .compile(&CompileOptions::to_horizon(100.0))
        .unwrap_err();
    assert!(
        matches!(err, CompileError::Curved { .. }),
        "the spiral must take the escape hatch, got {err}"
    );
}

#[test]
fn truncated_lowering_stays_faithful_on_its_prefix() {
    let horizon = times::rounds_total(4);
    let budget = 256;
    let program = UniversalSearch
        .compile(&CompileOptions::to_horizon(horizon).max_pieces(budget))
        .expect("the budget truncates the lowering");
    assert_eq!(program.pieces().len(), budget);
    assert!(!program.covers(horizon));
    let covered = program.end_time();
    assert_positions_match("truncated", &UniversalSearch, &program, covered, 2000);
    // Envelope queries may look past the truncation and stay sound
    // (speed-bound growth).
    let disk = program.envelope(covered * 0.5, covered + 10.0);
    for i in 0..=40 {
        let t = covered * 0.5 + (covered * 0.5 + 10.0) * i as f64 / 40.0;
        assert!(disk.contains(UniversalSearch.position(t), 1e-9), "t={t}");
    }
}

#[test]
fn compiled_program_flows_through_generic_engine_entry_points() {
    // A compiled program is itself a MonotoneTrajectory: the generic
    // cursor engine must produce the same classification as running the
    // interpreted pair.
    let horizon = times::rounds_total(3);
    let opts = ContactOptions::with_horizon(horizon);
    let attrs = RobotAttributes::reference().with_speed(0.5);
    let partner = attrs.frame_warp(UniversalSearch, Vec2::new(0.3, 0.6));
    let copts = CompileOptions::to_horizon(horizon);
    let pa = UniversalSearch.compile(&copts).unwrap();
    let pb = partner.compile(&copts).unwrap();
    let through_programs = first_contact(&pa, &pb, 0.05, &opts);
    let interpreted = first_contact(&UniversalSearch, &partner, 0.05, &opts);
    assert_eq!(
        through_programs.classification(),
        interpreted.classification()
    );
    if let (Some(tc), Some(ti)) = (through_programs.contact_time(), interpreted.contact_time()) {
        assert!((tc - ti).abs() < 1e-6 * (1.0 + ti), "{tc} vs {ti}");
    }
}
