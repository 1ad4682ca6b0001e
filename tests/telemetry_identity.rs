//! Telemetry is observation-only: flipping the process-wide metrics
//! kill switch ([`plane_rendezvous::obs::set_enabled`]) must not change
//! a single engine decision.
//!
//! Every engine runs once with metrics on and once with metrics off:
//! the cursor engine on the canonical cases, and the
//! scalar compiled ladder, the SoA lane kernel and the arena batch loop
//! on warm-batch-sized Algorithm 4 rendezvous pairs. Outcomes, work
//! counters ([`EngineStats`]) and lowered piece counts must be equal.
//!
//! The switch is global, so this binary holds exactly one test: no
//! other test can observe the switched-off state or race the flip.

mod common;

use plane_rendezvous::prelude::*;
use plane_rendezvous::sim::{
    compile_rendezvous_partner, first_contact_batch_soa, first_contact_programs, first_contact_soa,
    EngineScratch, EngineStats,
};
use plane_rendezvous::trajectory::{Compile, CompileOptions, ProgramSoA};

/// One engine run's deterministic fields.
#[derive(Debug, PartialEq)]
struct Run {
    label: String,
    outcome: Option<SimOutcome>,
    stats: EngineStats,
    pieces: usize,
}

/// Runs every engine once under the current kill-switch setting.
fn run_all_engines() -> Vec<Run> {
    let mut runs = Vec::new();
    for case in common::canonical_cases(true) {
        let (outcome, stats) = case.run_cursor();
        runs.push(Run {
            label: format!("cursor/{}", case.name),
            outcome: Some(outcome),
            stats,
            pieces: 0,
        });
    }

    // Six Algorithm 4 scenarios sharing one reference lowering, three
    // rounds deep: the warm-cache shape of the serve stack.
    let horizon = times::rounds_total(3);
    let opts = ContactOptions::with_horizon(horizon);
    let copts = CompileOptions::to_horizon(horizon).max_pieces(1 << 19);
    let reference = UniversalSearch.compile(&copts).expect("covers the horizon");
    let soa_reference = ProgramSoA::from_program(&reference);
    let mut soa_partners = Vec::new();
    let mut scratch = EngineScratch::new();
    for speed in [0.5, 0.6, 0.75, 0.9, 1.1, 1.25] {
        let attrs = RobotAttributes::reference().with_speed(speed);
        let instance = RendezvousInstance::new(Vec2::new(0.3, 0.85), 0.05, attrs).unwrap();
        let partner = compile_rendezvous_partner(&UniversalSearch, &instance, &copts)
            .expect("covers the horizon");
        let pieces = reference.pieces().len() + partner.pieces().len();
        let radius = instance.visibility();
        let outcome = first_contact_programs(&reference, &partner, radius, &opts, &mut scratch);
        runs.push(Run {
            label: format!("compiled/v={speed}"),
            outcome: Some(outcome),
            stats: scratch.last_stats(),
            pieces,
        });
        let soa_partner = ProgramSoA::from_program(&partner);
        let outcome = first_contact_soa(&soa_reference, &soa_partner, radius, &opts, &mut scratch);
        runs.push(Run {
            label: format!("soa/v={speed}"),
            outcome: Some(outcome),
            stats: scratch.last_stats(),
            pieces: soa_reference.len() + soa_partner.len(),
        });
        soa_partners.push(soa_partner);
    }
    let batch = first_contact_batch_soa(&soa_reference, &soa_partners, 0.05, &opts, &mut scratch);
    for (k, outcome) in batch.into_iter().enumerate() {
        runs.push(Run {
            label: format!("batch/{k}"),
            outcome,
            stats: EngineStats::default(),
            pieces: 0,
        });
    }
    runs
}

#[test]
fn engine_results_are_identical_with_metrics_off() {
    let cursor_queries = || {
        plane_rendezvous::obs::registry()
            .counter("rvz_engine_queries_total", &[("path", "cursor")])
            .get()
    };

    plane_rendezvous::obs::set_enabled(true);
    let before = cursor_queries();
    let on = run_all_engines();
    let recorded = cursor_queries() - before;

    plane_rendezvous::obs::set_enabled(false);
    let before = cursor_queries();
    let off = run_all_engines();
    let recorded_off = cursor_queries() - before;
    plane_rendezvous::obs::set_enabled(true);

    // Positive control: the switch really gates recording, so the
    // comparison below is between two different telemetry regimes.
    assert_eq!(
        recorded, 7,
        "metrics-on run recorded {recorded} cursor queries"
    );
    assert_eq!(recorded_off, 0, "metrics-off run recorded cursor queries");

    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a, b, "telemetry changed a deterministic field");
    }
}
