//! Old engine vs. new engine: `SimOutcome` equivalence over a
//! Latin-hypercube of rendezvous scenarios.
//!
//! The monotone-cursor fast path (`first_contact`) must classify every
//! scenario — contact / horizon / step-budget — exactly as the original
//! conservative-advancement loop (`first_contact_generic`), report
//! contact times within the tolerance-derived slack, and never contact
//! later than the dense-sampling brute oracle.
//!
//! The one theoretical divergence is a dip entirely inside the
//! declaration band `(radius, radius + tolerance]`, which the generic
//! engine may legitimately step over; Latin-hypercube scenarios are not
//! knife-edge, and any such case would surface here as a classification
//! mismatch.

mod common;

use plane_rendezvous::experiments::{latin_hypercube, Algorithm, SampleSpace, Scenario};
use plane_rendezvous::prelude::*;

/// The fast path, via the public rendezvous runner.
fn run_fast(scenario: &Scenario, opts: &ContactOptions) -> SimOutcome {
    let instance = scenario.instance().expect("valid scenario");
    match scenario.algorithm {
        Algorithm::WaitAndSearch => simulate_rendezvous(WaitAndSearch, &instance, opts),
        Algorithm::UniversalSearch => simulate_rendezvous(UniversalSearch, &instance, opts),
    }
}

/// The seed engine on the identical pair of trajectories.
fn run_generic(scenario: &Scenario, opts: &ContactOptions) -> SimOutcome {
    let instance = scenario.instance().expect("valid scenario");
    match scenario.algorithm {
        Algorithm::WaitAndSearch => {
            let partner = instance
                .attributes()
                .frame_warp(WaitAndSearch, instance.offset());
            first_contact_generic(&WaitAndSearch, &partner, instance.visibility(), opts)
        }
        Algorithm::UniversalSearch => {
            let partner = instance
                .attributes()
                .frame_warp(UniversalSearch, instance.offset());
            first_contact_generic(&UniversalSearch, &partner, instance.visibility(), opts)
        }
    }
}

#[test]
fn fast_and_generic_engines_classify_identically() {
    let space = SampleSpace {
        visibility: 0.2,
        ..Default::default()
    };
    let scenarios = latin_hypercube(&space, 48, 0xE9E9);
    let opts = ContactOptions {
        tolerance: 1e-9,
        horizon: plane_rendezvous::core::completion_time(7),
        max_steps: 5_000_000,
        ..ContactOptions::default()
    };
    let mut contacts = 0_usize;
    for scenario in &scenarios {
        let fast = run_fast(scenario, &opts);
        let generic = run_generic(scenario, &opts);
        assert_eq!(
            fast.classification(),
            generic.classification(),
            "scenario {scenario:?}: fast {fast} vs generic {generic}"
        );
        if let (
            SimOutcome::Contact { time: tf, .. },
            SimOutcome::Contact {
                time: tg,
                distance: dg,
                ..
            },
        ) = (fast, generic)
        {
            contacts += 1;
            // The fast engine resolves the crossing analytically; the
            // generic engine lands within tolerance/rel_speed of it. Both
            // must agree to the engines' shared declaration slack.
            let slack = (opts.tolerance * 10.0).max(1e-9 * tg.abs()) + 1e-6;
            assert!(
                tf <= tg + slack,
                "fast contact later than generic: {tf} vs {tg} ({scenario:?})"
            );
            assert!(dg <= scenario.visibility + opts.tolerance);
        }
    }
    // The hypercube must actually exercise the contact branch.
    assert!(contacts >= 10, "only {contacts} contact scenarios sampled");
}

#[test]
fn fast_engine_never_later_than_brute_oracle() {
    let space = SampleSpace {
        visibility: 0.25,
        ..Default::default()
    };
    let scenarios = latin_hypercube(&space, 12, 0xB07);
    let horizon = plane_rendezvous::core::completion_time(5);
    let opts = ContactOptions {
        tolerance: 1e-9,
        horizon,
        max_steps: 5_000_000,
        ..ContactOptions::default()
    };
    for scenario in &scenarios {
        let instance = scenario.instance().expect("valid scenario");
        let (fast, brute) = match scenario.algorithm {
            Algorithm::WaitAndSearch => {
                let partner = instance
                    .attributes()
                    .frame_warp(WaitAndSearch, instance.offset());
                (
                    first_contact(&WaitAndSearch, &partner, instance.visibility(), &opts),
                    plane_rendezvous::sim::first_contact_brute(
                        &WaitAndSearch,
                        &partner,
                        instance.visibility(),
                        horizon,
                        horizon / 400_000.0,
                    ),
                )
            }
            Algorithm::UniversalSearch => {
                let partner = instance
                    .attributes()
                    .frame_warp(UniversalSearch, instance.offset());
                (
                    first_contact(&UniversalSearch, &partner, instance.visibility(), &opts),
                    plane_rendezvous::sim::first_contact_brute(
                        &UniversalSearch,
                        &partner,
                        instance.visibility(),
                        horizon,
                        horizon / 400_000.0,
                    ),
                )
            }
        };
        if let Some(tb) = brute {
            // One-sided soundness: where coarse sampling sees a contact,
            // the sound engine must have found one no later.
            let tf = fast
                .contact_time()
                .unwrap_or_else(|| panic!("engine missed brute contact at {tb} ({scenario:?})"));
            assert!(tf <= tb + 1e-9, "late contact: {tf} vs brute {tb}");
        }
    }
}

/// The generic fallback itself still matches the brute oracle — the
/// cross-check required for exotic `Trajectory` impls that bypass the
/// cursor layer.
#[test]
fn generic_fallback_agrees_with_brute_oracle() {
    use plane_rendezvous::trajectory::FnTrajectory;
    let a = FnTrajectory::new(|t: f64| Vec2::new(t.sin() * 3.0, t.cos() * 2.0), 3.0);
    let b = FnTrajectory::new(|t: f64| Vec2::new(4.0 - 0.2 * t, 0.1 * t), 0.25);
    let opts = ContactOptions::with_horizon(50.0);
    let engine = first_contact_generic(&a, &b, 0.5, &opts);
    let brute = plane_rendezvous::sim::first_contact_brute(&a, &b, 0.5, 50.0, 1e-4);
    match (engine.contact_time(), brute) {
        (Some(te), Some(tb)) => assert!(te <= tb + 1e-9, "{te} vs {tb}"),
        (Some(_), None) => {} // engine is allowed to be sharper
        (None, Some(tb)) => panic!("generic engine missed brute contact at {tb}"),
        (None, None) => {}
    }
}

/// Pruning on vs pruning off over the Latin-hypercube: contacts must
/// agree within the engines' shared declaration slack (skips only
/// remove certified contact-free intervals; on most scenarios the leaf
/// arithmetic resolves the identical crossing, but a conservative crawl
/// into the tolerance band may land ulps apart), and non-contact
/// scenarios may differ only by pruning upgrading a `step-budget`
/// truncation into a completed `horizon` disproof.
#[test]
fn pruned_and_unpruned_engines_agree() {
    let space = SampleSpace {
        visibility: 0.2,
        ..Default::default()
    };
    let scenarios = latin_hypercube(&space, 48, 0xE9E9);
    let base = ContactOptions {
        tolerance: 1e-9,
        horizon: plane_rendezvous::core::completion_time(7),
        max_steps: 5_000_000,
        ..ContactOptions::default()
    };
    for scenario in &scenarios {
        let pruned = run_fast(scenario, &base.prune(true));
        let unpruned = run_fast(scenario, &base.prune(false));
        match (pruned, unpruned) {
            (
                SimOutcome::Contact {
                    time: tp,
                    distance: dp,
                    ..
                },
                SimOutcome::Contact {
                    time: tu,
                    distance: du,
                    ..
                },
            ) => {
                let slack = base.tolerance * 10.0 + 1e-9 * tu.abs() + 1e-6;
                assert!((tp - tu).abs() <= slack, "{tp} vs {tu} ({scenario:?})");
                assert!(dp <= scenario.visibility + base.tolerance);
                assert!(du <= scenario.visibility + base.tolerance);
            }
            (SimOutcome::Contact { .. }, other) | (other, SimOutcome::Contact { .. }) => {
                panic!("pruning changed a contact verdict: {other} ({scenario:?})")
            }
            (SimOutcome::Horizon { .. }, SimOutcome::StepBudget { .. }) => {}
            (SimOutcome::StepBudget { .. }, SimOutcome::Horizon { .. }) => {
                panic!("pruning lost a completed disproof ({scenario:?})")
            }
            _ => {}
        }
        // The pruned engine must never take more steps.
        assert!(
            pruned.steps() <= unpruned.steps(),
            "pruning increased steps on {scenario:?}: {} vs {}",
            pruned.steps(),
            unpruned.steps()
        );
    }
}

/// The step gate on the canonical cases: with pruning on and off, the
/// cursor engine classifies every case exactly as the seed loop and
/// never takes more advancement steps. On the grazing passes, which
/// the closed-form piece certificates exist for, it takes under 1% of
/// the seed loop's steps. Unpruned runs issue no envelope queries, and
/// pruning fires on the twin disproofs.
#[test]
fn cursor_engine_never_takes_more_steps_than_generic_on_canonical_cases() {
    for prune in [true, false] {
        for case in common::canonical_cases(prune) {
            let name = case.name;
            let generic = case.run_generic();
            let (cursor, stats) = case.run_cursor();
            assert_eq!(
                cursor.classification(),
                generic.classification(),
                "{name} (prune {prune}): cursor {cursor} vs generic {generic}"
            );
            assert!(
                cursor.steps() <= generic.steps(),
                "{name} (prune {prune}): cursor {} vs generic {} steps",
                cursor.steps(),
                generic.steps()
            );
            if name.starts_with("grazing") {
                assert!(
                    cursor.steps() * 100 < generic.steps().max(100),
                    "{name} (prune {prune}): cursor {} vs generic {} steps",
                    cursor.steps(),
                    generic.steps()
                );
            }
            if !prune {
                assert_eq!(stats.pruned_intervals, 0, "{name}");
                assert_eq!(stats.envelope_queries, 0, "{name}");
            } else if name.starts_with("universal") {
                assert!(stats.pruned_intervals > 0, "{name} pruned nothing");
            }
        }
    }
}

/// The compiled arms on the canonical cases: every case lowers, and
/// both the scalar compiled ladder and the SoA lane kernel (on arenas
/// built from the same programs) resolve it with the seed loop's
/// classification. This covers the knife-edge grazing passes, which
/// Latin-hypercube scenarios never hit. The spiral lowers through
/// certified chords with ε in `(0, tolerance]`; every exact lowering
/// carries ε = 0.
#[test]
fn compiled_and_lane_engines_classify_canonical_cases_like_generic() {
    use plane_rendezvous::sim::{try_first_contact_programs, try_first_contact_soa, EngineScratch};
    use plane_rendezvous::trajectory::ProgramSoA;

    let mut scratch = EngineScratch::new();
    for case in common::canonical_cases(true) {
        let name = case.name;
        let generic = case.run_generic();
        let (a, b) = case.lower();
        let eps = a.approx_eps().max(b.approx_eps());
        match case.approx_tolerance {
            Some(tol) => assert!(eps > 0.0 && eps <= tol, "{name}: eps {eps} vs {tol}"),
            None => assert_eq!(eps, 0.0, "{name}"),
        }
        let compiled = try_first_contact_programs(&a, &b, case.radius, &case.opts, &mut scratch)
            .unwrap_or_else(|| panic!("{name}: compiled ladder refused"));
        assert_eq!(
            compiled.classification(),
            generic.classification(),
            "{name}: compiled {compiled} vs generic {generic}"
        );
        let (sa, sb) = (ProgramSoA::from_program(&a), ProgramSoA::from_program(&b));
        let lane = try_first_contact_soa(&sa, &sb, case.radius, &case.opts, &mut scratch)
            .unwrap_or_else(|| panic!("{name}: lane kernel refused"));
        assert_eq!(
            lane.classification(),
            generic.classification(),
            "{name}: lane kernel {lane} vs generic {generic}"
        );
    }
}

/// Compiled vs. cursor engine: `SimOutcome` equivalence over a seeded
/// Latin hypercube — the acceptance test of the flat piecewise IR.
///
/// Every scenario the compiled path can resolve must classify exactly
/// as the cursor engine and agree on contact times within the shared
/// declaration slack; partial lowerings may *refuse* (fall back) but
/// never answer differently.
#[test]
fn compiled_and_cursor_engines_classify_identically() {
    use plane_rendezvous::sim::{try_first_contact_programs, EngineScratch};
    use plane_rendezvous::trajectory::{Compile, CompileOptions};

    let space = SampleSpace {
        visibility: 0.2,
        algorithms: vec![Algorithm::WaitAndSearch, Algorithm::UniversalSearch],
        ..Default::default()
    };
    let scenarios = latin_hypercube(&space, 32, 0xC0DE);
    let opts = ContactOptions {
        tolerance: 1e-9,
        horizon: plane_rendezvous::core::completion_time(4),
        max_steps: 5_000_000,
        ..ContactOptions::default()
    };
    let copts = CompileOptions::to_horizon(opts.horizon).max_pieces(1 << 17);
    let ref_ws = WaitAndSearch.compile(&copts).expect("alg7 rounds <= 4 fit");
    let ref_us = UniversalSearch.compile(&copts).expect("truncation allowed");
    let mut scratch = EngineScratch::new();
    let mut resolved = 0_usize;
    for scenario in &scenarios {
        let instance = scenario.instance().expect("valid scenario");
        let compiled = match scenario.algorithm {
            Algorithm::WaitAndSearch => {
                plane_rendezvous::sim::compile_rendezvous_partner(&WaitAndSearch, &instance, &copts)
                    .ok()
                    .and_then(|partner| {
                        try_first_contact_programs(
                            &ref_ws,
                            &partner,
                            instance.visibility(),
                            &opts,
                            &mut scratch,
                        )
                    })
            }
            Algorithm::UniversalSearch => plane_rendezvous::sim::compile_rendezvous_partner(
                &UniversalSearch,
                &instance,
                &copts,
            )
            .ok()
            .and_then(|partner| {
                try_first_contact_programs(
                    &ref_us,
                    &partner,
                    instance.visibility(),
                    &opts,
                    &mut scratch,
                )
            }),
        };
        let Some(compiled) = compiled else {
            continue; // coverage refusal: the cursor fallback handles it
        };
        resolved += 1;
        let cursor = run_fast(scenario, &opts);
        assert_eq!(
            compiled.classification(),
            cursor.classification(),
            "scenario {scenario:?}: compiled {compiled} vs cursor {cursor}"
        );
        if let (Some(tc), Some(tk)) = (compiled.contact_time(), cursor.contact_time()) {
            let slack = opts.tolerance * 10.0 + 1e-9 * tk.abs() + 1e-6;
            assert!(
                (tc - tk).abs() <= slack,
                "contact times diverge: {tc} vs {tk} ({scenario:?})"
            );
        }
        // The compiled ladder must never out-step the cursor ladder by
        // more than the mark-seeded pruning can shift windows.
        assert!(
            compiled.steps() <= cursor.steps() * 2 + 64,
            "compiled engine stepped wildly more on {scenario:?}: {} vs {}",
            compiled.steps(),
            cursor.steps()
        );
    }
    assert!(
        resolved >= scenarios.len() / 2,
        "only {resolved}/{} scenarios resolved on the compiled path",
        scenarios.len()
    );
}

/// The SoA arena vs the eager program it was transposed from, on the
/// Latin-hypercube partners: bit-for-bit identical probes and envelope
/// boxes on a time grid, and the same coverage, marks, speed bound and
/// certified ε.
///
/// `ProgramSoA::from_program` carries the exact `f64` columns of the
/// source program's pieces and the identical envelope tree, so this is
/// an `assert_eq!` on every answer, not a tolerance comparison. (The
/// *lane* kernel is gated separately below: its chunk entries anchor at
/// exact piece start times where the scalar ladder arrives via
/// accumulated sums, which legitimately differ by ulps.)
#[test]
fn soa_arena_probes_and_envelopes_match_the_program() {
    use plane_rendezvous::trajectory::{Compile, CompileOptions, CompiledProgram, ProgramSoA};

    fn assert_same_answers(program: &CompiledProgram, label: &str) {
        let soa = ProgramSoA::from_program(program);
        assert_eq!(soa.speed_bound(), program.speed_bound(), "{label}");
        assert_eq!(soa.approx_eps(), program.approx_eps(), "{label}");
        let end = program.end_time();
        for t in [0.0, end * 0.5, end, end * 2.0] {
            assert_eq!(soa.covers(t), program.covers(t), "{label}: covers({t})");
            assert_eq!(
                soa.next_mark_after(t),
                program.next_mark_after(t),
                "{label}: mark after {t}"
            );
        }
        let (mut hint_soa, mut hint_program) = (0usize, 0usize);
        for i in 0..=512 {
            let t = end * i as f64 / 512.0;
            assert_eq!(
                soa.probe_from(&mut hint_soa, t),
                program.probe_from(&mut hint_program, t),
                "{label}: probe diverges at t={t}"
            );
        }
        for w in 0..31 {
            let t0 = end * w as f64 / 31.0;
            for span in [0.0, 0.07, end / 13.0, end / 2.0, end] {
                assert_eq!(
                    soa.envelope_box(t0, t0 + span),
                    program.envelope_box(t0, t0 + span),
                    "{label}: envelope diverges on [{t0}, {}]",
                    t0 + span
                );
            }
        }
    }

    let space = SampleSpace {
        visibility: 0.2,
        algorithms: vec![Algorithm::WaitAndSearch, Algorithm::UniversalSearch],
        ..Default::default()
    };
    let scenarios = latin_hypercube(&space, 32, 0xC0DE);
    let horizon = plane_rendezvous::core::completion_time(4);
    let copts = CompileOptions::to_horizon(horizon).max_pieces(1 << 17);
    let ref_ws = WaitAndSearch.compile(&copts).expect("alg7 rounds <= 4 fit");
    let ref_us = UniversalSearch.compile(&copts).expect("truncation allowed");
    assert_same_answers(&ref_ws, "alg7 reference");
    assert_same_answers(&ref_us, "alg4 reference");
    let mut checked = 0_usize;
    for scenario in &scenarios {
        let instance = scenario.instance().expect("valid scenario");
        let partner = match scenario.algorithm {
            Algorithm::WaitAndSearch => {
                plane_rendezvous::sim::compile_rendezvous_partner(&WaitAndSearch, &instance, &copts)
            }
            Algorithm::UniversalSearch => plane_rendezvous::sim::compile_rendezvous_partner(
                &UniversalSearch,
                &instance,
                &copts,
            ),
        };
        let Ok(partner) = partner else {
            continue;
        };
        assert_same_answers(&partner, &format!("{scenario:?}"));
        checked += 1;
    }
    assert!(
        checked >= scenarios.len() / 2,
        "only {checked} partners lowered"
    );
}

/// The lane kernel vs the scalar compiled ladder over the Latin
/// hypercube: identical classifications, contact times within the
/// engines' shared declaration slack, refusals in lockstep.
#[test]
fn lane_kernel_and_scalar_ladder_classify_identically() {
    use plane_rendezvous::sim::{try_first_contact_programs, try_first_contact_soa, EngineScratch};
    use plane_rendezvous::trajectory::{Compile, CompileOptions, ProgramSoA};

    let space = SampleSpace {
        visibility: 0.2,
        algorithms: vec![Algorithm::WaitAndSearch, Algorithm::UniversalSearch],
        ..Default::default()
    };
    let scenarios = latin_hypercube(&space, 32, 0xC0DE);
    let opts = ContactOptions {
        tolerance: 1e-9,
        horizon: plane_rendezvous::core::completion_time(4),
        max_steps: 5_000_000,
        ..ContactOptions::default()
    };
    let copts = CompileOptions::to_horizon(opts.horizon).max_pieces(1 << 17);
    let ref_ws = WaitAndSearch.compile(&copts).expect("alg7 rounds <= 4 fit");
    let ref_us = UniversalSearch.compile(&copts).expect("truncation allowed");
    let soa_ws = ProgramSoA::from_program(&ref_ws);
    let soa_us = ProgramSoA::from_program(&ref_us);
    let mut scratch = EngineScratch::new();
    let mut resolved = 0_usize;
    for scenario in &scenarios {
        let instance = scenario.instance().expect("valid scenario");
        let (reference, soa_ref, partner) = match scenario.algorithm {
            Algorithm::WaitAndSearch => {
                let Ok(partner) = plane_rendezvous::sim::compile_rendezvous_partner(
                    &WaitAndSearch,
                    &instance,
                    &copts,
                ) else {
                    continue;
                };
                (&ref_ws, &soa_ws, partner)
            }
            Algorithm::UniversalSearch => {
                let Ok(partner) = plane_rendezvous::sim::compile_rendezvous_partner(
                    &UniversalSearch,
                    &instance,
                    &copts,
                ) else {
                    continue;
                };
                (&ref_us, &soa_us, partner)
            }
        };
        let soa_partner = ProgramSoA::from_program(&partner);
        let scalar = try_first_contact_programs(
            reference,
            &partner,
            instance.visibility(),
            &opts,
            &mut scratch,
        );
        let kernel = try_first_contact_soa(
            soa_ref,
            &soa_partner,
            instance.visibility(),
            &opts,
            &mut scratch,
        );
        match (&scalar, &kernel) {
            (None, None) => continue,
            (Some(s), Some(k)) => {
                resolved += 1;
                assert_eq!(
                    k.classification(),
                    s.classification(),
                    "scenario {scenario:?}: kernel {k} vs scalar {s}"
                );
                if let (Some(tk), Some(ts)) = (k.contact_time(), s.contact_time()) {
                    let slack = opts.tolerance * 10.0 + 1e-9 * ts.abs() + 1e-6;
                    assert!(
                        (tk - ts).abs() <= slack,
                        "contact times diverge: {tk} vs {ts} ({scenario:?})"
                    );
                }
            }
            (s, k) => panic!("refusals diverged on {scenario:?}: scalar {s:?} vs kernel {k:?}"),
        }
    }
    assert!(resolved >= scenarios.len() / 2, "only {resolved} resolved");
}

/// The many-vs-many batch entry against the per-pair scalar ladder: the
/// window-table prefilter and shared-arena streaming must not change a
/// single verdict.
#[test]
fn batch_kernel_matches_per_pair_scalar_ladder() {
    use plane_rendezvous::sim::{
        first_contact_batch_soa, try_first_contact_programs, EngineScratch,
    };
    use plane_rendezvous::trajectory::{Compile, CompileOptions, ProgramSoA};

    let space = SampleSpace {
        visibility: 0.2,
        algorithms: vec![Algorithm::UniversalSearch],
        ..Default::default()
    };
    let scenarios = latin_hypercube(&space, 24, 0xBA7C);
    let opts = ContactOptions {
        tolerance: 1e-9,
        horizon: plane_rendezvous::core::completion_time(4),
        max_steps: 5_000_000,
        ..ContactOptions::default()
    };
    let copts = CompileOptions::to_horizon(opts.horizon).max_pieces(1 << 17);
    let reference = UniversalSearch.compile(&copts).expect("covers");
    let soa_reference = ProgramSoA::from_program(&reference);
    let mut partners = Vec::new();
    let mut programs = Vec::new();
    let mut visibilities = Vec::new();
    for scenario in &scenarios {
        let instance = scenario.instance().expect("valid scenario");
        if let Ok(partner) =
            plane_rendezvous::sim::compile_rendezvous_partner(&UniversalSearch, &instance, &copts)
        {
            partners.push(ProgramSoA::from_program(&partner));
            programs.push(partner);
            visibilities.push(instance.visibility());
        }
    }
    assert!(partners.len() >= scenarios.len() / 2, "too few partners");
    // One shared visibility for the batch call (the grid holds it fixed).
    let radius = visibilities[0];
    assert!(visibilities.iter().all(|&v| v == radius));
    let mut scratch = EngineScratch::new();
    let batch = first_contact_batch_soa(&soa_reference, &partners, radius, &opts, &mut scratch);
    let mut contacts = 0_usize;
    for (k, partner) in programs.iter().enumerate() {
        let scalar = try_first_contact_programs(&reference, partner, radius, &opts, &mut scratch);
        match (&batch[k], &scalar) {
            (None, None) => continue,
            (Some(b), Some(s)) => {
                assert_eq!(
                    b.classification(),
                    s.classification(),
                    "partner {k}: batch {b} vs scalar {s}"
                );
                if let (Some(tb), Some(ts)) = (b.contact_time(), s.contact_time()) {
                    contacts += 1;
                    let slack = opts.tolerance * 10.0 + 1e-9 * ts.abs() + 1e-6;
                    assert!(
                        (tb - ts).abs() <= slack,
                        "partner {k}: contact {tb} vs {ts}"
                    );
                }
            }
            (b, s) => panic!("partner {k}: refusals diverged: batch {b:?} vs scalar {s:?}"),
        }
    }
    assert!(contacts >= 5, "only {contacts} batch contacts sampled");
}

/// The full sweep executor with pruning on vs off: feasible records are
/// identical, infeasible records stay (strictly) consistent in both
/// modes.
#[test]
fn sweep_records_equivalent_with_and_without_pruning() {
    use plane_rendezvous::experiments::{run_sweep, ScenarioGrid, SweepOptions};
    let scenarios = ScenarioGrid::new()
        .speeds(&[0.5, 1.0])
        .clocks(&[1.0])
        .orientations(&[0.0])
        .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
        .distances(&[0.9])
        .visibilities(&[0.25])
        .build();
    let mut opts = SweepOptions {
        threads: 2,
        ..SweepOptions::default()
    };
    let on = run_sweep(&scenarios, &opts);
    opts.contact.prune = false;
    let off = run_sweep(&scenarios, &opts);
    assert_eq!(on.len(), off.len());
    let mut upgrades = 0_usize;
    for (a, b) in on.iter().zip(off.iter()) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.outcome.is_contact(), b.outcome.is_contact());
        if a.outcome.is_contact() {
            assert_eq!(a.outcome.contact_time(), b.outcome.contact_time());
        }
        assert_eq!(a.consistent(), b.consistent());
        assert_eq!(a.strictly_consistent(), b.strictly_consistent());
        if let (SimOutcome::Horizon { .. }, SimOutcome::StepBudget { .. }) =
            (&a.outcome, &b.outcome)
        {
            upgrades += 1;
        }
    }
    // The grid's exact twins burn the whole step budget unpruned; the
    // envelope layer must complete their disproof to the horizon.
    assert!(upgrades > 0, "no step-budget upgrades sampled");
}
