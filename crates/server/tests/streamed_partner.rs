//! Exactness of the streamed partner path behind every `rvz serve` miss.
//!
//! The service lowers each miss's partner as a [`SoaStream`] and runs
//! [`first_contact_streamed`] on it; when the kernel refuses on a
//! finished arena, or the partner does not lower, the cursor engine
//! answers. The rule is exactness, not tolerance: every answer — each
//! `SimOutcome` field, `steps` included, compared through its `Debug`
//! rendering so that every bit of every float counts — must equal the
//! eager path's, which lowers the whole partner with `compile`,
//! transposes it with `ProgramSoA::from_program`, runs
//! `first_contact_batch_soa`, and on a refusal runs the cursor engine
//! ([`simulate_rendezvous_by_ref`]).
//!
//! Two input sets live here: seeded serve-mix scenarios (both
//! algorithms; feasible pairs, exact twins and mirror twins) at the
//! depth `rvz serve` compiles, and the same mix under a piece budget too
//! small for the partner, which forces the kernel refusal and the
//! cursor fallback. A few requests also go through `Service::handle`
//! itself, so the served record is held to the eager arena's too. The differential fuzz harness
//! (`tests/differential_fuzz.rs`) runs the same comparison over its
//! trajectory stacks.
//!
//! The streamed path rests on one rule: on an open prefix the lane
//! kernel refuses before it reads time the prefix has not settled, so a
//! prefix run either refuses or *is* the finished arena's run. The
//! rule is checked directly too, on every prefix a stream passes
//! through, under a step budget tight enough that runs end inside the
//! prefixes: answering there from the materialized end onward (growing
//! envelope boxes past it, stopping lane gathers at it) changes where
//! a run stands when its budget runs out.

use rvz_experiments::{record_to_json, Algorithm, Scenario, SplitMix64, SweepOptions, SweepRecord};
use rvz_model::{feasibility, Chirality};
use rvz_server::{Request, Service, ServiceOptions};
use rvz_sim::{
    first_contact_batch_soa, first_contact_streamed, simulate_rendezvous_by_ref,
    try_first_contact_soa, ContactOptions, EngineScratch, SimOutcome,
};
use rvz_trajectory::{Compile, CompileOptions, CompiledProgram, ProgramSoA, SoaStream};
use std::f64::consts::TAU;

/// The serve default piece budget.
const PIECE_BUDGET: usize = 32_768;

/// Seeded scenarios in the `serve_cold` mix: per algorithm, `feasible`
/// draws from ranges that meet within `completion_time(3)`, one exact
/// twin and one mirror twin.
fn serve_mix(seed: u64, feasible: usize) -> Vec<Scenario> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for algorithm in Algorithm::ALL {
        for _ in 0..feasible {
            out.push(Scenario {
                id: 0,
                algorithm,
                speed: rng.next_range(0.3, 0.9),
                time_unit: rng.next_range(0.4, 0.9),
                orientation: rng.next_range(0.0, TAU),
                chirality: if rng.next_range(0.0, 1.0) < 0.5 {
                    Chirality::Consistent
                } else {
                    Chirality::Mirrored
                },
                distance: rng.next_range(0.5, 2.0),
                bearing: rng.next_range(0.0, TAU),
                visibility: 0.1,
            });
        }
        let phi = rng.next_range(0.4, TAU - 0.4);
        for (orientation, chirality, bearing) in [
            (0.0, Chirality::Consistent, rng.next_range(0.0, TAU)),
            (phi, Chirality::Mirrored, phi / 2.0),
        ] {
            out.push(Scenario {
                id: 0,
                algorithm,
                speed: 1.0,
                time_unit: 1.0,
                orientation,
                chirality,
                distance: rng.next_range(0.5, 2.0),
                bearing,
                visibility: 0.1,
            });
        }
    }
    out
}

/// The canonical representative's frame-warped partner, as the service
/// builds it.
fn partner(rep: &Scenario) -> Box<dyn Compile> {
    let instance = rep.instance().expect("generated scenarios are valid");
    let (attrs, offset) = (instance.attributes(), instance.offset());
    match rep.algorithm {
        Algorithm::WaitAndSearch => Box::new(attrs.frame_warp(rvz_core::WaitAndSearch, offset)),
        Algorithm::UniversalSearch => {
            Box::new(attrs.frame_warp(rvz_search::UniversalSearch, offset))
        }
    }
}

fn reference_program(algorithm: Algorithm, horizon: f64) -> CompiledProgram {
    let copts = CompileOptions::to_horizon(horizon).max_pieces(PIECE_BUDGET);
    let program = match algorithm {
        Algorithm::WaitAndSearch => rvz_core::WaitAndSearch.compile(&copts),
        Algorithm::UniversalSearch => rvz_search::UniversalSearch.compile(&copts),
    }
    .expect("schedules lower");
    assert!(program.covers(horizon), "the reference covers the horizon");
    program
}

/// The cursor engine's answer for a representative: what the service
/// answers whenever the kernel does not.
fn cursor(rep: &Scenario, opts: &ContactOptions) -> SimOutcome {
    let instance = rep.instance().expect("generated scenarios are valid");
    match rep.algorithm {
        Algorithm::WaitAndSearch => {
            simulate_rendezvous_by_ref(&rvz_core::WaitAndSearch, &instance, opts)
        }
        Algorithm::UniversalSearch => {
            simulate_rendezvous_by_ref(&rvz_search::UniversalSearch, &instance, opts)
        }
    }
}

/// What the eager path answers, and whether its kernel refused a
/// partner that lowered.
fn eager(
    reference: &CompiledProgram,
    rep: &Scenario,
    copts: &CompileOptions,
    opts: &ContactOptions,
) -> (SimOutcome, bool) {
    let Ok(program) = partner(rep).compile(copts) else {
        return (cursor(rep, opts), false);
    };
    let kernel = first_contact_batch_soa(
        &ProgramSoA::from_program(reference),
        &[ProgramSoA::from_program(&program)],
        rep.visibility,
        opts,
        &mut EngineScratch::new(),
    )
    .pop()
    .flatten();
    match kernel {
        Some(out) => (out, false),
        None => (cursor(rep, opts), true),
    }
}

/// What the service's streamed path answers, with the pieces it
/// materialized and the extensions it took.
fn streamed(
    reference: &ProgramSoA,
    rep: &Scenario,
    copts: &CompileOptions,
    opts: &ContactOptions,
) -> (SimOutcome, usize, u64) {
    let source = partner(rep);
    let mut stream = SoaStream::new(&*source, *copts);
    let out = first_contact_streamed(
        reference,
        &mut stream,
        rep.visibility,
        opts,
        &mut EngineScratch::new(),
    )
    .unwrap_or_else(|| cursor(rep, opts));
    (out, stream.arena().len(), stream.extensions())
}

/// Every prefix of the partner's stream, run on the lane kernel,
/// refuses or answers exactly as the finished arena does; returns how
/// many prefix runs answered.
fn prefixes_refuse_or_agree(
    reference: &ProgramSoA,
    partner: &dyn Compile,
    copts: &CompileOptions,
    radius: f64,
    opts: &ContactOptions,
) -> usize {
    let mut scratch = EngineScratch::new();
    let mut stream = SoaStream::new(partner, *copts);
    stream.finish();
    let finished = stream.arena().clone();
    let want = try_first_contact_soa(reference, &finished, radius, opts, &mut scratch);
    let mut stream = SoaStream::new(partner, *copts);
    let mut answered = 0;
    while !stream.is_complete() {
        stream.extend(0.0);
        if let Some(got) =
            try_first_contact_soa(reference, stream.arena(), radius, opts, &mut scratch)
        {
            answered += 1;
            assert_eq!(
                format!("{:?}", Some(got)),
                format!("{want:?}"),
                "prefix of {} pieces (end {}) answered differently",
                stream.arena().len(),
                stream.arena().end_time()
            );
        }
    }
    answered
}

/// Runs the serve mix under `budget` and returns, per scenario, the
/// eager pieces, the streamed pieces, the extensions and whether the
/// eager kernel refused.
fn compare_serve_mix(seed: u64, budget: usize) -> Vec<(usize, usize, u64, bool)> {
    let horizon = rvz_core::completion_time(3);
    let opts = ContactOptions {
        horizon,
        ..ContactOptions::default()
    };
    let copts = CompileOptions::to_horizon(horizon).max_pieces(budget);
    let references = Algorithm::ALL.map(|a| reference_program(a, horizon));
    let arenas = [0, 1].map(|i| ProgramSoA::from_program(&references[i]));
    let slot = |a: Algorithm| Algorithm::ALL.iter().position(|&x| x == a).unwrap();
    let mut rows = Vec::new();
    for scenario in serve_mix(seed, 20) {
        let rep = scenario
            .canonicalize(rvz_experiments::DEFAULT_GRID)
            .scenario;
        let s = slot(rep.algorithm);
        let (want, refused) = eager(&references[s], &rep, &copts, &opts);
        let (got, pieces, extensions) = streamed(&arenas[s], &rep, &copts, &opts);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "streamed vs eager for {rep:?} (budget {budget})"
        );
        let eager_pieces = partner(&rep)
            .compile(&copts)
            .map_or(0, |p| p.pieces().len());
        rows.push((eager_pieces, pieces, extensions, refused));
    }
    rows
}

#[test]
fn serve_mix_streams_answer_exactly_as_eager_arenas() {
    let rows = compare_serve_mix(0x5eed_0013, PIECE_BUDGET);
    // The comparison exercised prefixes: feasible misses stopped early
    // and some needed more than one prefix run.
    let eager: usize = rows.iter().map(|r| r.0).sum();
    let streamed: usize = rows.iter().map(|r| r.1).sum();
    assert!(
        streamed < eager,
        "streamed {streamed} pieces, eager {eager}"
    );
    assert!(
        rows.iter().any(|r| r.2 > 0),
        "no query was retried on a longer prefix"
    );
    assert!(
        rows.iter().any(|r| r.1 < r.0 / 8),
        "no query resolved on an early prefix"
    );
}

#[test]
fn prefix_runs_refuse_or_agree_with_the_finished_arena() {
    let horizon = rvz_core::completion_time(3);
    let copts = CompileOptions::to_horizon(horizon).max_pieces(PIECE_BUDGET);
    let arenas = Algorithm::ALL.map(|a| ProgramSoA::from_program(&reference_program(a, horizon)));
    let slot = |a: Algorithm| Algorithm::ALL.iter().position(|&x| x == a).unwrap();
    let mut answered = 0;
    // Budgets from a few dozen steps up, so that some runs end in the
    // stretch between a prefix's first unsettled read and its end.
    let budgets = (0..12).map(|k| 25 << k);
    for max_steps in budgets.chain([ContactOptions::default().max_steps]) {
        let opts = ContactOptions {
            horizon,
            max_steps,
            ..ContactOptions::default()
        };
        for scenario in serve_mix(0x5eed_0015, 4) {
            let rep = scenario
                .canonicalize(rvz_experiments::DEFAULT_GRID)
                .scenario;
            answered += prefixes_refuse_or_agree(
                &arenas[slot(rep.algorithm)],
                &*partner(&rep),
                &copts,
                rep.visibility,
                &opts,
            );
        }
    }
    assert!(answered > 0, "no prefix run answered");
}

#[test]
fn budget_refusals_fall_back_to_the_cursor_engine_exactly() {
    // A budget far below the partners' size: most streams end
    // truncated, the kernel refuses on the finished arena and the
    // cursor engine answers, on both paths alike.
    let rows = compare_serve_mix(0x5eed_0014, 700);
    assert!(
        rows.iter().any(|r| r.3),
        "the budget never forced a kernel refusal"
    );
}

#[test]
fn service_misses_answer_as_the_eager_partner_arena_does() {
    // The record `Service` serves is the eager `compile` +
    // `from_program` + batch-kernel outcome, bit for bit, for feasible
    // pairs of both algorithms and for an exact twin (streamed in one
    // step).
    let horizon = rvz_core::completion_time(3);
    let contact = ContactOptions {
        horizon,
        ..ContactOptions::default()
    };
    let svc = Service::new(ServiceOptions {
        sweep: SweepOptions {
            contact,
            ..SweepOptions::default()
        },
        ..ServiceOptions::default()
    });
    let copts = CompileOptions::to_horizon(horizon).max_pieces(PIECE_BUDGET);
    for body in [
        r#"{"algorithm":"alg4","speed":0.5,"time_unit":0.7,"distance":1.2,"visibility":0.1}"#,
        r#"{"algorithm":"alg7","speed":0.8,"time_unit":0.6,"distance":0.7,"visibility":0.1}"#,
        r#"{"algorithm":"alg4","distance":1.5,"visibility":0.1}"#,
    ] {
        let (resp, _) = svc.handle(&Request {
            method: "POST".into(),
            path: "/first-contact".into(),
            query: Vec::new(),
            headers: Default::default(),
            body: body.as_bytes().to_vec(),
        });
        assert_eq!(resp.status, 200, "{}", resp.body);
        let scenario =
            rvz_experiments::scenario_from_json(&rvz_experiments::json::parse(body).unwrap())
                .unwrap();
        let canonical = scenario.canonicalize(svc.options().cache_grid);
        let rep = canonical.scenario;
        let eager = first_contact_batch_soa(
            &ProgramSoA::from_program(&reference_program(rep.algorithm, horizon)),
            &[ProgramSoA::from_program(
                &partner(&rep).compile(&copts).unwrap(),
            )],
            rep.visibility,
            &contact,
            &mut EngineScratch::new(),
        )
        .pop()
        .flatten()
        .expect("the eager kernel answers at this depth");
        let record = SweepRecord {
            scenario,
            feasibility: feasibility(&scenario.attributes()),
            outcome: canonical.transform.apply(eager),
        };
        let served = rvz_experiments::json::parse(&resp.body).unwrap();
        assert_eq!(
            served.get("record").unwrap().render(),
            record_to_json(&record).render(),
            "{body}"
        );
    }
}
