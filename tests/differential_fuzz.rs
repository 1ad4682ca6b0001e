//! Differential fuzzing of the first-contact engine paths.
//!
//! A seeded generator draws random rendezvous scenarios — attribute
//! frames, offsets, radii — crossed with trajectory stacks (plain
//! warp, warp∘drift, warp∘drift∘spiral, raw spiral vs stationary) and
//! runs each through:
//!
//! 1. the seed conservative-advancement loop (`first_contact_generic`),
//! 2. the monotone-cursor engine (`first_contact_cursors`),
//! 3. the scalar compiled ladder over eager programs (exact stacks),
//! 4. the SoA lane kernel (`try_first_contact_soa`) over arenas built
//!    from the eager programs (exact stacks).
//!
//! The curved stacks (the spiral ones) run on the first two arms only,
//! and their lowering must refuse by name (`CompileError::Curved`). On
//! the exact stacks, the streamed partner of the serve miss path
//! (`first_contact_streamed` over a `SoaStream`) must also equal the
//! batch kernel over the eager arena exactly, every outcome field.
//!
//! All arms must agree: identical classifications with contact times in
//! a slack band, or a contact/horizon split only inside the
//! `radius ± tolerance` band around the declaration threshold.
//!
//! On a disagreement the harness **shrinks**: it greedily applies
//! case-simplifying transformations (drop stack layers, shrink the
//! offset, neutralize attributes, reduce the horizon) while the
//! failure reproduces, then panics with the minimized reproducer so
//! the case can be pasted into a regression test.
//!
//! Budget knobs (CI pins both): `RVZ_FUZZ_CASES` (default 256) and
//! `RVZ_FUZZ_SEED` (default `0xBADC0FFE`).

use plane_rendezvous::baselines::ArchimedeanSpiral;
use plane_rendezvous::prelude::*;
use plane_rendezvous::sim::{
    first_contact_batch_soa, first_contact_cursors, first_contact_streamed,
    try_first_contact_programs, try_first_contact_soa, EngineScratch,
};
use plane_rendezvous::trajectory::{
    ClockDrift, Compile, CompileError, CompileOptions, ProgramSoA, SoaStream,
};

const TOL: f64 = 1e-9;

fn rand01(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let bits = (*state ^ (*state >> 31)) >> 11;
    bits as f64 / (1u64 << 53) as f64
}

fn range(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rand01(state)
}

/// One generated scenario. `Debug` is the reproducer format.
#[derive(Debug, Clone, Copy)]
struct FuzzCase {
    /// 0 = Algorithm 4 (UniversalSearch), 1 = Algorithm 7 (WaitAndSearch).
    algorithm: u8,
    /// 0 = warp, 1 = warp∘drift, 2 = warp∘drift∘spiral, 3 = spiral vs stationary.
    stack: u8,
    offset: Vec2,
    speed: f64,
    time_unit: f64,
    orientation: f64,
    mirrored: bool,
    radius: f64,
    /// Horizon depth in schedule rounds (stacks 0–2).
    rounds: u32,
}

fn generate(state: &mut u64) -> FuzzCase {
    let stack = match (rand01(state) * 6.0) as u8 {
        0 | 1 => 0,
        2 | 3 => 1,
        4 => 2,
        _ => 3,
    };
    FuzzCase {
        algorithm: (rand01(state) * 2.0) as u8,
        stack,
        offset: Vec2::from_polar(
            range(state, 0.2, 2.5),
            range(state, 0.0, std::f64::consts::TAU),
        ),
        speed: range(state, 0.5, 1.5),
        time_unit: range(state, 0.7, 1.4),
        orientation: range(state, 0.0, std::f64::consts::TAU),
        mirrored: rand01(state) < 0.5,
        radius: range(state, 0.04, 0.25),
        rounds: 2 + (rand01(state) * 2.0) as u32,
    }
}

/// The two trajectories plus the engine horizon for a case.
fn build(case: &FuzzCase) -> (Box<dyn Compile>, Box<dyn Compile>, f64) {
    let chirality = if case.mirrored {
        Chirality::Mirrored
    } else {
        Chirality::Consistent
    };
    let attrs = RobotAttributes::new(case.speed, case.time_unit, case.orientation, chirality);
    if case.stack == 3 {
        // Raw spiral search against a stationary target: the curved
        // baseline alone, no attribute frame.
        let spiral = ArchimedeanSpiral::for_visibility(case.radius.max(0.05));
        let target = plane_rendezvous::sim::Stationary::new(case.offset * 0.4);
        return (Box::new(spiral), Box::new(target), 60.0);
    }
    // Stack 2 pairs the exact reference schedule against a fully curved
    // warped, drifting spiral partner.
    if case.stack == 2 {
        let spiral = ArchimedeanSpiral::for_visibility(0.05);
        let drift = ClockDrift::from_rates(spiral, &[(8.0, 0.8), (20.0, 1.25)], 0.95);
        let partner = attrs.frame_warp(drift, case.offset);
        return if case.algorithm == 0 {
            (
                Box::new(UniversalSearch),
                Box::new(partner),
                times::rounds_total(case.rounds),
            )
        } else {
            (
                Box::new(WaitAndSearch),
                Box::new(partner),
                plane_rendezvous::core::completion_time(case.rounds),
            )
        };
    }
    if case.algorithm == 0 {
        let horizon = times::rounds_total(case.rounds);
        let b: Box<dyn Compile> = match case.stack {
            0 => Box::new(attrs.frame_warp(UniversalSearch, case.offset)),
            _ => Box::new(attrs.frame_warp(
                ClockDrift::from_rates(
                    UniversalSearch,
                    &[(horizon * 0.3, 0.8), (horizon * 0.7, 1.25)],
                    0.95,
                ),
                case.offset,
            )),
        };
        (Box::new(UniversalSearch), b, horizon)
    } else {
        let horizon = plane_rendezvous::core::completion_time(case.rounds);
        let b: Box<dyn Compile> = match case.stack {
            0 => Box::new(attrs.frame_warp(WaitAndSearch, case.offset)),
            _ => Box::new(attrs.frame_warp(
                ClockDrift::from_rates(
                    WaitAndSearch,
                    &[(horizon * 0.3, 0.8), (horizon * 0.7, 1.25)],
                    0.95,
                ),
                case.offset,
            )),
        };
        (Box::new(WaitAndSearch), b, horizon)
    }
}

/// Agreement between two outcomes of the same query.
fn agrees(x: &SimOutcome, y: &SimOutcome, radius: f64) -> Option<String> {
    if x.classification() == y.classification() {
        if let (Some(tx), Some(ty)) = (x.contact_time(), y.contact_time()) {
            // Contact times may differ by the time it takes to cross
            // the declaration band at the (unknown) closing speed; the
            // 2e3 factor is a generous floor on that speed.
            let slack = 2e3 * TOL * (1.0 + tx.abs()) + 1e-6 * (1.0 + tx.abs());
            if (tx - ty).abs() > slack {
                return Some(format!("contact times {tx} vs {ty} (slack {slack:.3e})"));
            }
        }
        return None;
    }
    // A contact/horizon split is legitimate only when the miss grazes
    // the declaration band around the contact threshold.
    let (contact, horizon) = match (x, y) {
        (SimOutcome::Contact { .. }, SimOutcome::Horizon { .. }) => (x, y),
        (SimOutcome::Horizon { .. }, SimOutcome::Contact { .. }) => (y, x),
        _ => {
            return Some(format!(
                "classifications {} vs {}",
                x.classification(),
                y.classification()
            ))
        }
    };
    let min = match horizon {
        SimOutcome::Horizon { min_distance, .. } => *min_distance,
        _ => unreachable!(),
    };
    let dist = match contact {
        SimOutcome::Contact { distance, .. } => *distance,
        _ => unreachable!(),
    };
    let threshold = radius + TOL;
    if min <= threshold + 1e-9 && dist >= radius - 1e-9 {
        return None;
    }
    Some(format!(
        "contact at distance {dist} vs horizon min {min} (threshold {threshold})"
    ))
}

/// Runs the engine paths on one case; `Err` describes the first
/// disagreement. `Ok(true)` means the compiled arms participated.
fn run_case(case: &FuzzCase) -> Result<bool, String> {
    let (a, b, horizon) = build(case);
    let opts = ContactOptions::with_horizon(horizon).tolerance(TOL);
    let generic = first_contact_generic(&*a, &*b, case.radius, &opts);
    let cursor = first_contact_cursors(
        &mut *a.dyn_cursor(),
        &mut *b.dyn_cursor(),
        case.radius,
        &opts,
    );
    if let Some(why) = agrees(&generic, &cursor, case.radius) {
        return Err(format!("generic vs cursor: {why}"));
    }

    let copts = CompileOptions::to_horizon(horizon).max_pieces(1 << 18);
    // The spiral is one curved piece: its stacks must refuse to lower by
    // name, and run on the generic and cursor arms only.
    let curved = match case.stack {
        2 => Some(&b),
        3 => Some(&a),
        _ => None,
    };
    if let Some(t) = curved {
        return match t.compile(&copts) {
            Err(CompileError::Curved { .. }) => Ok(false),
            other => Err(format!(
                "curved stack lowered: {:?}",
                other.map(|p| p.pieces().len())
            )),
        };
    }
    let lower = |t: &dyn Compile| {
        t.compile(&copts)
            .map_err(|e| format!("exact stack refused to lower: {e}"))
    };
    let (ea, eb) = (lower(&*a)?, lower(&*b)?);
    let mut scratch = EngineScratch::new();
    let eager = match try_first_contact_programs(&ea, &eb, case.radius, &opts, &mut scratch) {
        Some(out) => out,
        // A truncated program refuses time it does not cover; the
        // caller counts how often the compiled arms actually run.
        None => return Ok(false),
    };
    if let Some(why) = agrees(&generic, &eager, case.radius) {
        return Err(format!("generic vs compiled-eager: {why}"));
    }

    // The lane kernel over arenas built from the same eager programs:
    // arena probes are bit-identical to program probes.
    let sa = ProgramSoA::from_program(&ea);
    let sb = ProgramSoA::from_program(&eb);

    // The streamed partner (the serve miss path) must answer bit for bit
    // as the batch kernel over the eager arena — every field, steps
    // included.
    let mut stream = SoaStream::new(&*b, copts);
    let streamed = first_contact_streamed(&sa, &mut stream, case.radius, &opts, &mut scratch);
    let batch = first_contact_batch_soa(
        &sa,
        std::slice::from_ref(&sb),
        case.radius,
        &opts,
        &mut scratch,
    )
    .pop()
    .flatten();
    if format!("{streamed:?}") != format!("{batch:?}") {
        return Err(format!("streamed {streamed:?} vs batch {batch:?}"));
    }
    let soa = match try_first_contact_soa(&sa, &sb, case.radius, &opts, &mut scratch) {
        Some(out) => out,
        None => return Ok(false),
    };
    if let Some(why) = agrees(&generic, &soa, case.radius) {
        return Err(format!("generic vs soa-kernel: {why}"));
    }
    if let Some(why) = agrees(&eager, &soa, case.radius) {
        return Err(format!("compiled-eager vs soa-kernel: {why}"));
    }

    Ok(true)
}

/// Candidate simplifications, most aggressive first. Each must strictly
/// reduce some complexity measure so shrinking terminates.
fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    if case.stack > 0 && case.stack != 3 {
        out.push(FuzzCase {
            stack: case.stack - 1,
            ..*case
        });
    }
    if case.rounds > 2 {
        out.push(FuzzCase {
            rounds: case.rounds - 1,
            ..*case
        });
    }
    if case.mirrored {
        out.push(FuzzCase {
            mirrored: false,
            ..*case
        });
    }
    if case.offset.norm() > 0.2 {
        out.push(FuzzCase {
            offset: case.offset * 0.5,
            ..*case
        });
    }
    if (case.speed - 1.0).abs() > 0.05 {
        out.push(FuzzCase {
            speed: 0.5 * (case.speed + 1.0),
            ..*case
        });
    }
    if (case.time_unit - 1.0).abs() > 0.05 {
        out.push(FuzzCase {
            time_unit: 0.5 * (case.time_unit + 1.0),
            ..*case
        });
    }
    if case.orientation.abs() > 0.1 {
        out.push(FuzzCase {
            orientation: case.orientation * 0.5,
            ..*case
        });
    }
    out
}

/// Greedy minimization: keep the first simplification that still
/// fails, until none do.
fn shrink(mut case: FuzzCase, mut why: String) -> (FuzzCase, String) {
    for _ in 0..64 {
        let mut advanced = false;
        for candidate in shrink_candidates(&case) {
            if let Err(e) = run_case(&candidate) {
                case = candidate;
                why = e;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    (case, why)
}

#[test]
fn engine_paths_agree_on_random_scenarios() {
    let cases: usize = std::env::var("RVZ_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let seed: u64 = std::env::var("RVZ_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xBADC_0FFE);
    let mut state = seed;
    let mut compiled_runs = 0usize;
    for i in 0..cases {
        let case = generate(&mut state);
        match run_case(&case) {
            Ok(ran_compiled) => compiled_runs += ran_compiled as usize,
            Err(why) => {
                let (minimized, why) = shrink(case, why);
                panic!(
                    "engine paths disagree (seed {seed}, case {i}): {why}\n\
                     reproducer: {minimized:?}\n\
                     original:   {case:?}"
                );
            }
        }
    }
    // The harness is only meaningful if the compiled arms actually run;
    // curved stacks (2 of 6 draws) and coverage refusals must stay the
    // minority.
    assert!(
        compiled_runs * 2 >= cases,
        "compiled arms ran on only {compiled_runs}/{cases} cases"
    );
}
