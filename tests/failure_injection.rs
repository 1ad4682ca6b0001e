//! Failure injection: the library must fail *loudly and precisely* on
//! bad inputs and resource exhaustion, never silently mis-simulate.

use plane_rendezvous::prelude::*;
use plane_rendezvous::trajectory::FnTrajectory;

#[test]
fn engine_reports_step_budget_exhaustion() {
    // A grazing oscillation keeps the gap just above the radius so the
    // engine takes many small steps; a tiny budget must surface as
    // StepBudget, not hang or mis-report contact.
    let a = FnTrajectory::new(|t: f64| Vec2::new(t.sin() * 0.4, 0.0), 0.4);
    let b = FnTrajectory::new(|_| Vec2::new(1.5, 0.0), 0.0);
    let mut opts = ContactOptions::with_horizon(1e6);
    opts.max_steps = 50;
    match first_contact(&a, &b, 1.0, &opts) {
        SimOutcome::StepBudget {
            time,
            min_distance,
            steps,
        } => {
            assert!(time < 1e6);
            assert!(min_distance >= 0.1 - 1e-9);
            assert_eq!(steps, 50, "StepBudget must report the exhausted budget");
        }
        other => panic!("expected StepBudget, got {other}"),
    }
}

#[test]
#[should_panic(expected = "non-finite position")]
fn engine_rejects_nan_positions() {
    let bad = FnTrajectory::new(
        |t| {
            if t > 1.0 {
                Vec2::new(f64::NAN, 0.0)
            } else {
                Vec2::new(t, 0.0)
            }
        },
        1.0,
    );
    let target = FnTrajectory::new(|_| Vec2::new(100.0, 0.0), 0.0);
    let _ = first_contact(&bad, &target, 1.0, &ContactOptions::with_horizon(100.0));
}

#[test]
#[should_panic(expected = "horizon must be positive")]
fn engine_rejects_bad_horizon() {
    let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
    let _ = first_contact(&a, &a, 1.0, &ContactOptions::with_horizon(f64::INFINITY));
}

#[test]
fn engine_makes_progress_at_large_times() {
    // Near t = 1e9 the conservative step can fall below one ulp of t;
    // the progress floor must keep the loop advancing to the horizon.
    let a = FnTrajectory::new(|t| Vec2::new((t * 1e-9).sin(), 0.0), 1e-9);
    let b = FnTrajectory::new(|_| Vec2::new(10.0, 0.0), 0.0);
    let opts = ContactOptions::with_horizon(1e9);
    let out = first_contact(&a, &b, 1.0, &opts);
    assert!(matches!(out, SimOutcome::Horizon { .. }), "{out}");
}

#[test]
#[should_panic(expected = "beyond the supported horizon")]
fn universal_search_horizon_is_loud() {
    use plane_rendezvous::trajectory::Trajectory;
    let s = UniversalSearch;
    let _ = s.position(f64::MAX);
}

#[test]
#[should_panic(expected = "beyond the supported horizon")]
fn algorithm7_horizon_is_loud() {
    use plane_rendezvous::trajectory::Trajectory;
    let _ = WaitAndSearch.position(f64::MAX);
}

#[test]
fn instances_reject_all_degenerate_inputs() {
    // Coincident starts.
    assert!(RendezvousInstance::new(Vec2::ZERO, 0.1, RobotAttributes::reference()).is_err());
    // Non-finite offsets.
    assert!(RendezvousInstance::new(
        Vec2::new(f64::INFINITY, 0.0),
        0.1,
        RobotAttributes::reference()
    )
    .is_err());
    // Bad visibility.
    for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            RendezvousInstance::new(Vec2::UNIT_X, r, RobotAttributes::reference()).is_err(),
            "r={r} accepted"
        );
    }
}

#[test]
fn attribute_constructors_reject_nonsense() {
    use std::panic::catch_unwind;
    assert!(catch_unwind(|| RobotAttributes::reference().with_speed(f64::NAN)).is_err());
    assert!(catch_unwind(|| RobotAttributes::reference().with_speed(-1.0)).is_err());
    assert!(catch_unwind(|| RobotAttributes::reference().with_time_unit(0.0)).is_err());
    assert!(catch_unwind(|| RobotAttributes::reference().with_orientation(f64::INFINITY)).is_err());
}

#[test]
fn bound_calculators_reject_out_of_domain_parameters() {
    use std::panic::catch_unwind;
    // Theorem 1 needs d²/r ≥ 2.
    assert!(catch_unwind(|| coverage::theorem1_bound(1.0, 10.0)).is_err());
    // Lemma 13 needs τ ∈ (0, 1).
    assert!(catch_unwind(|| lemma13_round_bound(1.0, 3)).is_err());
    assert!(catch_unwind(|| lemma13_round_bound(0.0, 3)).is_err());
    // τ decomposition likewise.
    assert!(catch_unwind(|| tau_decomposition(2.0)).is_err());
}

#[test]
fn all_four_engine_paths_surface_deadline_precisely() {
    use plane_rendezvous::sim::{
        first_contact_cursors, first_contact_streamed, try_first_contact_programs,
        try_first_contact_soa, Budget, EngineScratch,
    };
    use plane_rendezvous::trajectory::{Compile, CompileOptions, ProgramSoA, SoaStream};
    use std::time::Duration;

    // An already-expired budget checked every 4 steps: the scalar paths
    // must stop at exactly their first check boundary — `steps == 4` —
    // and every path must report Deadline, not Horizon/StepBudget/hang.
    let attrs = RobotAttributes::new(0.8, 1.1, 0.3, Chirality::Consistent);
    let partner = attrs.frame_warp(UniversalSearch, Vec2::new(1.5, 0.9));
    let horizon = times::rounds_total(3);
    let radius = 0.05;
    let opts = ContactOptions::with_horizon(horizon)
        .tolerance(1e-9)
        .with_budget(Budget::new(Duration::ZERO).check_every(4));

    let assert_deadline = |label: &str, out: SimOutcome| match out {
        SimOutcome::Deadline { steps, time, .. } => {
            assert_eq!(
                steps, 4,
                "{label}: deadline must fire at the check boundary"
            );
            assert!(time >= 0.0 && time <= horizon, "{label}: time {time}");
        }
        other => panic!("{label}: expected Deadline, got {other}"),
    };

    assert_deadline(
        "cursor",
        first_contact_cursors(
            &mut *UniversalSearch.dyn_cursor(),
            &mut *partner.dyn_cursor(),
            radius,
            &opts,
        ),
    );

    let copts = CompileOptions::to_horizon(horizon).max_pieces(1 << 18);
    let ea = UniversalSearch.compile(&copts).expect("reference compiles");
    let eb = partner.compile(&copts).expect("warped partner compiles");
    let mut scratch = EngineScratch::new();
    assert_deadline(
        "compiled-eager",
        try_first_contact_programs(&ea, &eb, radius, &opts, &mut scratch)
            .expect("deadline is a definitive outcome, not a coverage refusal"),
    );

    // The lane kernel checks the budget at lane-jump granularity, so its
    // step count at the first check past the boundary is its own; the
    // streamed partner (the serve miss path) must report exactly the
    // kernel's Deadline on the eager arenas, every field.
    let sa = ProgramSoA::from_program(&ea);
    let sb = ProgramSoA::from_program(&eb);
    let kernel = try_first_contact_soa(&sa, &sb, radius, &opts, &mut scratch)
        .expect("deadline is a definitive outcome, not a coverage refusal");
    let mut stream = SoaStream::new(&partner, copts);
    let streamed = first_contact_streamed(&sa, &mut stream, radius, &opts, &mut scratch)
        .expect("deadline is a definitive outcome, not a coverage refusal");
    match streamed {
        SimOutcome::Deadline { time, .. } => {
            assert!(time >= 0.0 && time <= horizon, "streamed: time {time}")
        }
        other => panic!("streamed: expected Deadline, got {other}"),
    }
    assert_eq!(
        format!("{streamed:?}"),
        format!("{kernel:?}"),
        "streamed deadline must equal the kernel's on the eager arenas"
    );
}

#[test]
fn unlimited_budget_is_bit_identical_to_no_budget() {
    use plane_rendezvous::experiments::{
        latin_hypercube, record_to_json, run_sweep, SampleSpace, SweepOptions,
    };
    use plane_rendezvous::sim::Budget;
    use std::time::Duration;

    // `Duration::MAX` never expires, so the budget checks are dead
    // branches: the sweep output must be byte-for-byte the same JSON as
    // a run with no budget at all — same outcomes, times, step counts.
    let scenarios = latin_hypercube(&SampleSpace::default(), 24, 0xC0FFEE);
    let base = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    let with_budget = SweepOptions {
        contact: base.contact.with_budget(Budget::new(Duration::MAX)),
        ..base
    };
    let plain = run_sweep(&scenarios, &base);
    let budgeted = run_sweep(&scenarios, &with_budget);
    assert_eq!(plain.len(), budgeted.len());
    for (p, b) in plain.iter().zip(budgeted.iter()) {
        assert_eq!(
            record_to_json(p).render(),
            record_to_json(b).render(),
            "an unlimited budget must not perturb the record"
        );
    }
}

#[test]
fn zero_tolerance_rejected_but_small_tolerance_works() {
    let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
    let b = FnTrajectory::new(|_| Vec2::new(5.0, 0.0), 0.0);
    assert!(std::panic::catch_unwind(|| {
        first_contact(&a, &b, 1.0, &ContactOptions::default().tolerance(0.0))
    })
    .is_err());
    let out = first_contact(&a, &b, 1.0, &ContactOptions::default().tolerance(1e-15));
    assert!(out.is_contact());
}
