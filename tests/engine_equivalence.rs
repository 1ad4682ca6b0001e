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

use plane_rendezvous::experiments::{
    latin_hypercube, Algorithm, SampleSpace, Scenario, ScenarioGrid, SweepOptions,
};
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
/// Latin-hypercube scenarios never hit. The spiral is one curved piece:
/// it refuses to lower by name and runs on the cursor engines only.
#[test]
fn compiled_and_lane_engines_classify_canonical_cases_like_generic() {
    use plane_rendezvous::sim::{try_first_contact_programs, try_first_contact_soa, EngineScratch};
    use plane_rendezvous::trajectory::{CompileError, ProgramSoA};

    let mut scratch = EngineScratch::new();
    for case in common::canonical_cases(true) {
        let name = case.name;
        let generic = case.run_generic();
        let (a, b) = match case.lower() {
            Ok(pair) => pair,
            Err(CompileError::Curved { .. }) if name == "spiral_search" => continue,
            Err(e) => panic!("{name}: lowering failed: {e}"),
        };
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

/// The curvature certificate on the sweep path: an Algorithm 4 pair
/// whose arcs approach contact near-tangentially crosses to the contact
/// in a handful of steps instead of crawling at the speed bound (95
/// steps on the speed bound alone), and over a seeded batch every
/// declared contact lies in the declaration band `[radius, radius +
/// tolerance]`: the certificate aims inside the band, so rounding never
/// lands a contact below the radius.
#[test]
fn curvature_certificate_stops_the_arc_crawl_and_declares_inside_the_band() {
    use plane_rendezvous::experiments::run_sweep;

    let opts = SweepOptions::default();
    let pinned = Scenario {
        id: 0,
        algorithm: Algorithm::UniversalSearch,
        speed: 0.3503251654930681,
        time_unit: 1.7192999907007946,
        orientation: 4.073873481958583,
        chirality: Chirality::Consistent,
        distance: 0.6041149166889439,
        bearing: 1.375558837784862,
        visibility: 0.2,
    };
    let out = run_fast(&pinned, &opts.contact);
    assert!(
        out.is_contact() && out.steps() <= 16,
        "pinned arc pair: {out}"
    );

    let space = SampleSpace {
        visibility: 0.2,
        algorithms: vec![Algorithm::WaitAndSearch, Algorithm::UniversalSearch],
        ..Default::default()
    };
    let mut contacts = 0_usize;
    for record in run_sweep(&latin_hypercube(&space, 256, 0xA4C5), &opts) {
        if let SimOutcome::Contact { distance, .. } = record.outcome {
            contacts += 1;
            let r = record.scenario.visibility;
            assert!(
                (r..=r + opts.contact.tolerance).contains(&distance),
                "{:?}: declared at {distance} for radius {r}",
                record.scenario
            );
        }
    }
    assert!(contacts >= 64, "only {contacts} batch contacts sampled");
}

/// The wait-window certificate on the sweep path: while one robot of an
/// Algorithm 7 pair waits, the other's cursor clears the wait in one
/// closed-form query, so over a seeded τ ≠ 1 batch at the default depth
/// the pairs average at most 30 steps (about 76 stepping through every
/// wait), and every declared contact still lies in the declaration band
/// `[radius, radius + tolerance]`: the certificate only clears, and the
/// closed-form rungs declare.
#[test]
fn wait_window_certificate_crosses_waits_and_declares_inside_the_band() {
    use plane_rendezvous::experiments::run_sweep;

    let opts = SweepOptions::default();
    let space = SampleSpace {
        speed: (0.3, 0.9),
        time_unit: (0.4, 0.9),
        algorithms: vec![Algorithm::WaitAndSearch],
        visibility: 0.1,
        ..Default::default()
    };
    let records = run_sweep(&latin_hypercube(&space, 256, 0x3A17), &opts);
    let steps: u64 = records.iter().map(|r| r.outcome.steps()).sum();
    let mean = steps as f64 / records.len() as f64;
    assert!(mean <= 30.0, "Algorithm 7 pairs take {mean:.1} steps each");
    for record in &records {
        let r = record.scenario.visibility;
        match record.outcome {
            SimOutcome::Contact { distance, .. } => assert!(
                (r..=r + opts.contact.tolerance).contains(&distance),
                "{:?}: declared at {distance} for radius {r}",
                record.scenario
            ),
            other => panic!("{:?}: feasible pair ended {other}", record.scenario),
        }
    }
}

/// The law walk on the sweep path: when an Algorithm 4 τ ≠ 1 pair has
/// no closed form on two arcs of unequal rates, the engine walks both
/// circles along their own laws past the probe's curvature step, so a
/// seeded batch at the default depth averages at most 50 steps per pair
/// (about 57 with one curvature step per probe), and every declared
/// contact still lies in the declaration band `[radius, radius +
/// tolerance]`: the walk only clears, and probes declare.
#[test]
fn circle_pairs_walk_their_laws_and_declare_inside_the_band() {
    use plane_rendezvous::experiments::run_sweep;

    let opts = SweepOptions::default();
    let space = SampleSpace {
        speed: (0.3, 0.9),
        time_unit: (0.4, 0.9),
        algorithms: vec![Algorithm::UniversalSearch],
        visibility: 0.1,
        ..Default::default()
    };
    let records = run_sweep(&latin_hypercube(&space, 256, 0x1A3), &opts);
    let steps: u64 = records.iter().map(|r| r.outcome.steps()).sum();
    let mean = steps as f64 / records.len() as f64;
    assert!(mean <= 50.0, "Algorithm 4 pairs take {mean:.1} steps each");
    for record in &records {
        let r = record.scenario.visibility;
        match record.outcome {
            SimOutcome::Contact { distance, .. } => assert!(
                (r..=r + opts.contact.tolerance).contains(&distance),
                "{:?}: declared at {distance} for radius {r}",
                record.scenario
            ),
            other => panic!("{:?}: feasible pair ended {other}", record.scenario),
        }
    }
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
/// identical, infeasible records are (strictly) consistent alike in
/// both modes, and the grid's exact twins, a fixed point on the relative
/// trajectory, are disproved in at most two steps either way.
#[test]
fn sweep_records_equivalent_with_and_without_pruning() {
    use plane_rendezvous::experiments::run_sweep;
    // Bearing 0 is the invariant direction of the φ = 0 mirror twin.
    let scenarios = ScenarioGrid::new()
        .speeds(&[0.5, 1.0])
        .clocks(&[1.0])
        .orientations(&[0.0])
        .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
        .distances(&[0.9])
        .bearings(&[0.0, std::f64::consts::FRAC_PI_3])
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
    let mut exact_twins = Vec::new();
    for (a, b) in on.iter().zip(off.iter()) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.outcome.is_contact(), b.outcome.is_contact());
        if a.outcome.is_contact() {
            assert_eq!(a.outcome.contact_time(), b.outcome.contact_time());
        }
        assert_eq!(a.consistent(), b.consistent());
        // Off the invariant direction (bearing π/3) the mirror twin dips
        // to `|d⃗·û|` = 0.45: the pruned one-step disproof must observe
        // that dip as the unpruned run does.
        assert_eq!(
            a.strictly_consistent(),
            b.strictly_consistent(),
            "{:?}: pruned {}, unpruned {}",
            a.scenario,
            a.outcome,
            b.outcome
        );
        if a.scenario.attributes().is_reference() {
            exact_twins.push(a.scenario);
            for out in [&a.outcome, &b.outcome] {
                assert!(
                    matches!(out, SimOutcome::Horizon { .. }) && out.steps() <= 2,
                    "{:?}: {out}",
                    a.scenario
                );
            }
        }
    }
    assert_eq!(exact_twins.len(), 2);
    // On two cursors the exact twins still burn the whole step budget
    // unpruned; the envelope layer must complete their disproof to the
    // horizon.
    for scenario in &exact_twins {
        let pruned = run_two_cursor(scenario, &opts.contact.prune(true));
        let unpruned = run_two_cursor(scenario, &opts.contact.prune(false));
        assert!(
            matches!(
                (pruned, unpruned),
                (SimOutcome::Horizon { .. }, SimOutcome::StepBudget { .. })
            ),
            "{scenario:?}: pruned {pruned}, unpruned {unpruned}"
        );
    }
}

/// The query every scenario ran before τ = 1 moved to the Lemma 4
/// relative trajectory: the reference robot and its frame-warped
/// partner on two cursors. The Lemma 4 tests below use it as the
/// oracle.
fn run_two_cursor(scenario: &Scenario, opts: &ContactOptions) -> SimOutcome {
    let instance = scenario.instance().expect("valid scenario");
    let (attrs, offset, r) = (
        instance.attributes(),
        instance.offset(),
        instance.visibility(),
    );
    match scenario.algorithm {
        Algorithm::WaitAndSearch => first_contact(
            &WaitAndSearch,
            &attrs.frame_warp(WaitAndSearch, offset),
            r,
            opts,
        ),
        Algorithm::UniversalSearch => first_contact(
            &UniversalSearch,
            &attrs.frame_warp(UniversalSearch, offset),
            r,
            opts,
        ),
    }
}

/// Exact twins (`v = τ = 1`, `φ = 0`, `χ = +1`): both algorithms, five
/// distances, four bearings, `r = 0.25`.
fn exact_twins() -> Vec<Scenario> {
    ScenarioGrid::new()
        .algorithms(&Algorithm::ALL)
        .distances(&[0.5, 0.9, 1.3, 1.7, 2.0])
        .bearings(&[0.0, 1.0, 2.5, 4.0])
        .visibilities(&[0.25])
        .build()
}

/// Mirror twins (`v = τ = 1`, `χ = −1`), `r = 0.25`: both algorithms,
/// `φ ∈ {1, 2, 3}`, `d ∈ {0.5, 1, 2}`, and five bearings per `φ` — on
/// the invariant direction `û = (cos φ/2, sin φ/2)` and at four angles
/// off it. Returns `(on_axis, off_axis)`.
fn mirror_twins() -> (Vec<Scenario>, Vec<Scenario>) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for phi in [1.0, 2.0, 3.0] {
        let grid = |bearings: &[f64]| {
            ScenarioGrid::new()
                .algorithms(&Algorithm::ALL)
                .orientations(&[phi])
                .chiralities(&[Chirality::Mirrored])
                .distances(&[0.5, 1.0, 2.0])
                .bearings(bearings)
                .visibilities(&[0.25])
                .build()
        };
        let axis = phi / 2.0;
        on.extend(grid(&[axis]));
        off.extend(grid(&[axis + 0.3, axis + 0.9, axis + 1.4, axis + 2.6]));
    }
    (on, off)
}

/// `|d⃗·û| > r`: the relative trajectory of a mirror twin lies on the
/// line through the origin orthogonal to `û`, so the pair never comes
/// within `r`.
fn mirror_twin_is_disprovable(s: &Scenario) -> bool {
    let u = Vec2::from_polar(1.0, s.orientation / 2.0);
    Vec2::from_polar(s.distance, s.bearing).dot(u).abs() > s.visibility
}

/// Lemma 4 on production: every exact twin with `d > r` and every
/// mirror twin with `|d⃗·û| > r`, on the invariant direction or off
/// it, completes its disproof to the horizon in a handful of steps and
/// reports the true closest approach (`d`, or `|d⃗·û|`) although it
/// samples almost nothing.
/// The two-cursor engine takes ≥ 100k steps or exhausts the step
/// budget on each of them.
#[test]
fn relative_trajectory_disproves_twins_in_a_few_steps() {
    let opts = SweepOptions::default().contact;
    let (on, off) = mirror_twins();
    let twins: Vec<Scenario> = exact_twins()
        .into_iter()
        .filter(|s| s.distance > s.visibility)
        .chain(on.into_iter().chain(off).filter(mirror_twin_is_disprovable))
        .collect();
    assert_eq!(twins.len(), 40 + 18 + 60);
    for scenario in &twins {
        let out = run_fast(scenario, &opts);
        let closest = if scenario.chirality == Chirality::Mirrored {
            let u = Vec2::from_polar(1.0, scenario.orientation / 2.0);
            Vec2::from_polar(scenario.distance, scenario.bearing)
                .dot(u)
                .abs()
        } else {
            scenario.distance
        };
        match out {
            SimOutcome::Horizon {
                min_distance,
                steps,
                ..
            } => assert!(
                steps <= 64 && (min_distance - closest).abs() <= 1e-9,
                "{scenario:?}: {out}, closest approach {closest}"
            ),
            _ => panic!("{scenario:?}: {out}"),
        }
    }
}

/// Lemma 4 as a metamorphic check: production (the relative trajectory
/// for τ = 1) against the two-cursor oracle on τ = 1 Latin-hypercube
/// draws, near-boundary feasible pairs, exact twins and mirror twins.
/// Wherever the oracle finishes, both give the same outcome kind and
/// contact times agree within the engines' declaration slack;
/// production never truncates at the step budget where the oracle
/// completes a disproof. Debug builds run a sample of each set (the
/// oracle costs tens of ms per twin even in release); the release run
/// in ci.sh runs them in full.
#[test]
fn relative_trajectory_matches_the_two_cursor_oracle() {
    let opts = SweepOptions::default().contact;
    let full = !cfg!(debug_assertions);
    // A debug sample skips `d = 0.5`, where the oracle exhausts its
    // step budget on most twins and so checks nothing.
    let sample = |set: Vec<Scenario>, n: usize| -> Vec<Scenario> {
        if full {
            return set;
        }
        let set: Vec<Scenario> = set.into_iter().filter(|s| s.distance > 0.5).collect();
        let step = set.len().div_ceil(n);
        set.into_iter().step_by(step).collect()
    };
    let lhs = latin_hypercube(
        &SampleSpace {
            time_unit: (1.0, 1.0),
            algorithms: Algorithm::ALL.to_vec(),
            ..Default::default()
        },
        if full { 4000 } else { 40 },
        7,
    );
    let near_boundary = ScenarioGrid::new()
        .algorithms(&Algorithm::ALL)
        .speeds(&[0.9, 0.97, 0.99, 0.999])
        .orientations(&[0.0, 0.01, 0.1])
        .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
        .distances(&[1.0, 3.0])
        .bearings(&[0.0, 1.5])
        .build();
    let (on, off) = mirror_twins();
    let sets = [
        ("lhs", lhs),
        ("near-boundary", sample(near_boundary, 16)),
        ("exact twins", sample(exact_twins(), 4)),
        ("on-axis mirror twins", sample(on, 3)),
        ("off-axis mirror twins", sample(off, 6)),
    ];
    for (name, set) in sets {
        let mut finished = 0_usize;
        for scenario in &set {
            assert_eq!(scenario.time_unit, 1.0);
            let oracle = run_two_cursor(scenario, &opts);
            let production = run_fast(scenario, &opts);
            match (oracle, production) {
                (SimOutcome::StepBudget { .. }, _) => continue,
                (SimOutcome::Horizon { .. }, SimOutcome::StepBudget { .. }) => {
                    panic!("{name}: production truncated a completed disproof ({scenario:?})")
                }
                (
                    SimOutcome::Contact { time: to, .. },
                    SimOutcome::Contact {
                        time: tp, distance, ..
                    },
                ) => {
                    let slack = opts.tolerance * 10.0 + 1e-9 * to.abs() + 1e-6;
                    assert!(
                        (tp - to).abs() <= slack,
                        "{name}: contact {tp} vs oracle {to} ({scenario:?})"
                    );
                    assert!(distance <= scenario.visibility + opts.tolerance);
                }
                (o, p) => assert_eq!(
                    p.classification(),
                    o.classification(),
                    "{name}: production {p} vs oracle {o} ({scenario:?})"
                ),
            }
            finished += 1;
        }
        assert!(finished > 0, "{name}: the oracle finished nothing");
    }
}
