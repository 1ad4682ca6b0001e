//! Multi-robot simulation — the paper's concluding open problem.
//!
//! Section 5 poses "deterministic gathering for multiple robots in this
//! setting of minimal knowledge" as future work. This module provides the
//! simulation machinery to *explore* that question empirically:
//!
//! * [`pairwise_meetings`] — for a swarm all running the same algorithm
//!   in their own frames, the first time each pair sees the other
//!   (pairwise rendezvous is exactly the two-robot problem, so Theorem 4
//!   applies to each pair independently);
//! * [`first_simultaneous_gathering`] — conservative advancement on the
//!   swarm *diameter*: the first time all robots are mutually within `r`
//!   at once, if it ever happens.
//!
//! The gathering demo example uses both to show that pairwise feasibility
//! does **not** obviously compose into simultaneous gathering — which is
//! precisely why the paper leaves it open.
//!
//! ## The arena batch loop
//!
//! Over SoA arenas ([`ProgramSoA`]) there is one batch loop,
//! [`first_contact_batch_soa`]: one reference against many partners,
//! with a window-envelope prefilter in front of the lane kernel.
//! [`first_contact_streamed`] is its single-partner form over a partner
//! lowered as a stream (the serve miss path).

use crate::compiled::EngineScratch;
use crate::engine::{ContactOptions, EngineStats, SimOutcome};
use crate::kernel::{try_first_contact_soa, try_first_contact_soa_impl};
use rvz_geometry::{Aabb, Vec2};
use rvz_trajectory::{Cursor, MonotoneDyn, ProgramSoA, SoaStream, Trajectory};

/// First-contact times for every unordered pair in a swarm.
///
/// Entry `[i][j]` (for `i < j`) is `Some(t)` when robots `i` and `j` come
/// within `radius` at time `t ≤ opts.horizon`; `None` otherwise.
/// Diagonal and lower-triangle entries are `None`.
///
/// The robots are taken as [`MonotoneDyn`] trait objects (implemented
/// automatically for every
/// [`MonotoneTrajectory`](rvz_trajectory::MonotoneTrajectory)), so each
/// pair runs on the engine's cursor fast path through
/// [`first_contact_dyn`](crate::first_contact_dyn)'s scoped stack
/// cursors — no per-pair boxing.
///
/// A wall-clock [`Budget`](crate::Budget) in `opts` is shared by every
/// pair (the deadline is absolute): once it expires, remaining pairs
/// resolve to `None` almost immediately instead of running to their
/// horizons, exactly like a pair whose query ends at the horizon.
///
/// # Panics
///
/// Panics when fewer than two robots are supplied (or on invalid
/// options/radius, as in [`crate::first_contact`]).
pub fn pairwise_meetings(
    robots: &[&dyn MonotoneDyn],
    radius: f64,
    opts: &ContactOptions,
) -> Vec<Vec<Option<f64>>> {
    assert!(robots.len() >= 2, "need at least two robots");
    let n = robots.len();
    let mut table = vec![vec![None; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let outcome = crate::engine::first_contact_dyn(robots[i], robots[j], radius, opts);
            table[i][j] = outcome.contact_time();
        }
    }
    table
}

/// Envelope windows per robot in the batch prefilter: coarse enough
/// that the tables stay cache-resident for large batches, fine enough
/// that separated pairs are disproved without touching the kernel.
const PREFILTER_WINDOWS: usize = 64;

/// Fills `out` with `PREFILTER_WINDOWS` conservative envelope boxes
/// partitioning `[0, horizon]` for one arena.
fn window_boxes(soa: &ProgramSoA, horizon: f64, out: &mut Vec<Aabb>) {
    let dt = horizon / PREFILTER_WINDOWS as f64;
    for w in 0..PREFILTER_WINDOWS {
        let t0 = w as f64 * dt;
        let t1 = if w + 1 == PREFILTER_WINDOWS {
            horizon
        } else {
            (w + 1) as f64 * dt
        };
        out.push(soa.envelope_box(t0, t1));
    }
}

/// A pair's window-gap profile `(min_gap, argmin)`: the smallest
/// envelope gap over the windows and the window attaining it. The pair
/// is disproved for every threshold below `min_gap`.
fn window_gap_profile(a: &[Aabb], b: &[Aabb]) -> (f64, usize) {
    let mut min_gap = f64::INFINITY;
    let mut argmin = 0;
    for (w, (ba, bb)) in a.iter().zip(b).enumerate() {
        let g = ba.gap(bb);
        if g < min_gap {
            min_gap = g;
            argmin = w;
        }
    }
    (min_gap, argmin)
}

/// The `Horizon` outcome for a window-disproved pair: the observed
/// minimum is an actual probed distance at the closest-approach
/// window's midpoint (never an envelope gap, which would understate
/// it), and the disproof is recorded in telemetry as a lane-kernel
/// query answered purely by envelope pruning.
fn disproved_outcome(a: &ProgramSoA, b: &ProgramSoA, argmin: usize, horizon: f64) -> SimOutcome {
    let dt = horizon / PREFILTER_WINDOWS as f64;
    let mid = ((argmin as f64 + 0.5) * dt).min(horizon);
    let (mut ia, mut ib) = (0_usize, 0_usize);
    let pa = a.probe_from(&mut ia, mid);
    let pb = b.probe_from(&mut ib, mid);
    let outcome = SimOutcome::Horizon {
        min_distance: pa.position.distance(pb.position),
        min_distance_time: mid,
        steps: 1,
    };
    let stats = EngineStats {
        envelope_queries: 2 * PREFILTER_WINDOWS as u64,
        pruned_intervals: PREFILTER_WINDOWS as u64,
        ..EngineStats::default()
    };
    crate::telemetry::record(
        crate::telemetry::EnginePath::CompiledSoA,
        Some(&outcome),
        stats,
    );
    outcome
}

/// One reference arena against many partners on the lane kernel, with
/// a shared window-envelope prefilter: the reference's envelope table
/// is built **once** and each partner either falls to a whole-pair
/// disproof (one gap profile, no kernel run) or runs
/// [`try_first_contact_soa`]. Pairs whose arenas do not both cover a
/// finite horizon skip the prefilter, so their refusals land per
/// partner exactly as a caller loop over [`try_first_contact_soa`]
/// would produce them.
///
/// Entry `k` is `None` exactly when partner `k`'s query was refused
/// (truncated coverage) — callers fall back per partner, as the serve
/// stack does.
///
/// # Panics
///
/// On invalid options/radius, as in [`crate::first_contact`].
pub fn first_contact_batch_soa(
    reference: &ProgramSoA,
    partners: &[ProgramSoA],
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> Vec<Option<SimOutcome>> {
    let prefilter = opts.horizon.is_finite() && reference.covers(opts.horizon);
    let mut ref_table = Vec::with_capacity(PREFILTER_WINDOWS);
    if prefilter {
        window_boxes(reference, opts.horizon, &mut ref_table);
    }
    let mut partner_table = Vec::with_capacity(PREFILTER_WINDOWS);
    partners
        .iter()
        .map(|partner| {
            if prefilter && partner.covers(opts.horizon) {
                partner_table.clear();
                window_boxes(partner, opts.horizon, &mut partner_table);
                let (min_gap, argmin) = window_gap_profile(&ref_table, &partner_table);
                let approx = reference.approx_eps() + partner.approx_eps();
                if min_gap > radius + opts.tolerance + approx {
                    return Some(disproved_outcome(reference, partner, argmin, opts.horizon));
                }
            }
            try_first_contact_soa(reference, partner, radius, opts, scratch)
        })
        .collect()
}

/// [`first_contact_batch_soa`] for one partner lowered as a stream:
/// the answer is bit-for-bit `first_contact_batch_soa(reference,
/// [eager], radius, …)` where `eager` is
/// [`ProgramSoA::from_program`] of the partner's eager lowering, but
/// the partner is materialized only as far as the query runs.
///
/// The lane kernel runs on the open prefix and refuses at the first
/// time the prefix has not settled (see
/// [`ProgramSoA::settled`]); the stream then grows past that time
/// and the query reruns. A prefix run that does not refuse is the
/// finished arena's run, step for step. Only a contact is kept from a
/// prefix: the batch's window prefilter, which needs the whole arena,
/// could not have disproved that pair, because the windows containing
/// the contact time are at most the contact distance apart — `min_gap
/// ≤ d(t_c) ≤ threshold`. Any other prefix answer streams the partner
/// to its end and resolves through the batch path itself, prefilter
/// included; so does a partner that is already complete (callers
/// finish infeasible representatives up front, so they pay no
/// retries). A wall-clock deadline reached on a prefix is returned as
/// is: it reflects the request, not the scenario.
///
/// `None` exactly when the batch would refuse on the finished arena
/// (a piece-budget truncation), or when the partner's lowering fails
/// — check [`SoaStream::error`] to tell the two apart: the eager path
/// has no arena at all in the second case. Telemetry records one
/// query, the run that answered it.
///
/// # Panics
///
/// On invalid options/radius, as in [`crate::first_contact`].
pub fn first_contact_streamed(
    reference: &ProgramSoA,
    partner: &mut SoaStream<'_>,
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> Option<SimOutcome> {
    loop {
        if partner.error().is_some() {
            return None;
        }
        if partner.is_complete() {
            return first_contact_batch_soa(
                reference,
                std::slice::from_ref(partner.arena()),
                radius,
                opts,
                scratch,
            )
            .pop()
            .flatten();
        }
        match try_first_contact_soa_impl(reference, partner.arena(), radius, opts, scratch) {
            Ok(out @ (SimOutcome::Contact { .. } | SimOutcome::Deadline { .. })) => {
                crate::telemetry::record(
                    crate::telemetry::EnginePath::CompiledSoA,
                    Some(&out),
                    scratch.stats,
                );
                return Some(out);
            }
            Ok(_) => partner.finish(),
            Err(need) => partner.extend(need),
        }
    }
}

/// The largest pairwise distance among sampled positions.
fn diameter_of(positions: &[Vec2]) -> f64 {
    let mut max = 0.0_f64;
    for (i, pi) in positions.iter().enumerate() {
        for pj in positions.iter().skip(i + 1) {
            max = max.max(pi.distance(*pj));
        }
    }
    max
}

/// Finds the first time the swarm's diameter drops to `radius` — all
/// robots simultaneously within visibility of each other.
///
/// Conservative advancement applies verbatim: the diameter decreases at
/// a rate at most the sum of the two largest speed bounds, which we
/// over-approximate by twice the maximum bound.
///
/// # Panics
///
/// Panics when fewer than two robots are supplied or on invalid options.
pub fn first_simultaneous_gathering(
    robots: &[&dyn MonotoneDyn],
    radius: f64,
    opts: &ContactOptions,
) -> SimOutcome {
    assert!(robots.len() >= 2, "need at least two robots");
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive"
    );
    let closing_bound: f64 = 2.0
        * robots
            .iter()
            .map(|r| r.speed_bound())
            .fold(0.0_f64, f64::max);
    // One boxed cursor per robot, built once: the loop only advances
    // `t`, so every position sample is an amortized-O(1) monotone query.
    let mut cursors: Vec<Box<dyn Cursor + '_>> = robots.iter().map(|r| r.dyn_cursor()).collect();
    let mut positions = vec![Vec2::ZERO; cursors.len()];
    let mut t = 0.0_f64;
    let mut min_diameter = f64::INFINITY;
    let mut min_diameter_time = 0.0;
    let mut steps = 0_u64;
    loop {
        for (position, cursor) in positions.iter_mut().zip(cursors.iter_mut()) {
            *position = cursor.position(t);
        }
        let d = diameter_of(&positions);
        if d < min_diameter {
            min_diameter = d;
            min_diameter_time = t;
        }
        if d <= radius + opts.tolerance {
            return SimOutcome::Contact {
                time: t,
                distance: d,
                steps,
            };
        }
        // Note the ordering: `t` is clamped to the horizon when stepping,
        // so the diameter at exactly `t = horizon` is sampled (and folded
        // into the minimum) before this returns.
        if t >= opts.horizon {
            return SimOutcome::Horizon {
                min_distance: min_diameter,
                min_distance_time: min_diameter_time,
                steps,
            };
        }
        steps += 1;
        if steps > opts.max_steps {
            return SimOutcome::StepBudget {
                time: t,
                min_distance: min_diameter,
                steps: opts.max_steps,
            };
        }
        if let Some(budget) = &opts.budget {
            if budget.fires_at(steps) {
                return SimOutcome::Deadline {
                    time: t,
                    min_distance: min_diameter,
                    steps,
                };
            }
        }
        if closing_bound == 0.0 {
            return SimOutcome::Horizon {
                min_distance: min_diameter,
                min_distance_time: min_diameter_time,
                steps,
            };
        }
        let step = (d - radius) / closing_bound;
        let floor = 4.0 * f64::EPSILON * (1.0 + t.abs());
        t = (t + step.max(floor)).min(opts.horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::Vec2;
    use rvz_trajectory::{FnTrajectory, MonotoneTrajectory};

    fn approach(start: Vec2, speed: f64) -> impl MonotoneTrajectory {
        // Moves from `start` straight toward the origin, then stays.
        FnTrajectory::new(
            move |t| {
                let dist = start.norm();
                let travelled = (speed * t).min(dist);
                start * (1.0 - travelled / dist)
            },
            speed,
        )
    }

    #[test]
    fn three_converging_robots_gather() {
        let a = approach(Vec2::new(4.0, 0.0), 1.0);
        let b = approach(Vec2::new(0.0, 4.0), 0.5);
        let c = approach(Vec2::new(-4.0, -4.0), 0.8);
        let robots: Vec<&dyn MonotoneDyn> = vec![&a, &b, &c];
        let out = first_simultaneous_gathering(&robots, 0.5, &ContactOptions::with_horizon(100.0));
        let t = out.contact_time().expect("all converge to the origin");
        // Slowest robot (b) needs 4/0.5 = 8 time units minus the slack the
        // radius allows.
        assert!(t > 5.0 && t <= 8.0, "t = {t}");
    }

    #[test]
    fn pairwise_table_shape_and_symmetric_reach() {
        let a = approach(Vec2::new(2.0, 0.0), 1.0);
        let b = approach(Vec2::new(-2.0, 0.0), 1.0);
        let c = FnTrajectory::new(|_| Vec2::new(0.0, 50.0), 0.0); // far away, parked
        let robots: Vec<&dyn MonotoneDyn> = vec![&a, &b, &c];
        let table = pairwise_meetings(&robots, 0.5, &ContactOptions::with_horizon(50.0));
        assert!(table[0][1].is_some());
        assert_eq!(table[1][0], None); // lower triangle unused
        assert_eq!(table[0][2], None); // c is unreachable
        assert_eq!(table[1][2], None);
    }

    #[test]
    fn diverging_robots_report_horizon() {
        let a = FnTrajectory::new(|t| Vec2::new(1.0 + t, 0.0), 1.0);
        let b = FnTrajectory::new(|t| Vec2::new(-1.0 - t, 0.0), 1.0);
        let robots: Vec<&dyn MonotoneDyn> = vec![&a, &b];
        let out = first_simultaneous_gathering(&robots, 0.5, &ContactOptions::with_horizon(10.0));
        match out {
            SimOutcome::Horizon { min_distance, .. } => {
                assert!((min_distance - 2.0).abs() < 1e-9)
            }
            other => panic!("diverging robots gathered? {other:?}"),
        }
    }

    #[test]
    fn batch_soa_matches_per_pair_kernel_and_prefilters_far_partners() {
        use rvz_search::UniversalSearch;
        use rvz_trajectory::{Compile, CompileOptions};
        let horizon = rvz_search::times::rounds_total(3);
        let opts = ContactOptions::with_horizon(horizon);
        let reference = ProgramSoA::from_program(
            &UniversalSearch
                .compile(&CompileOptions::to_horizon(horizon))
                .unwrap(),
        );
        // Two reachable partners and one parked far outside every round
        // envelope (the prefilter must disprove it without a kernel run).
        let mut partners: Vec<ProgramSoA> = (0..2)
            .map(|i| {
                ProgramSoA::from_program(
                    &rvz_model::RobotAttributes::reference()
                        .with_speed(0.6 + 0.3 * i as f64)
                        .frame_warp(UniversalSearch, Vec2::new(0.5 + i as f64, 0.5))
                        .compile(&CompileOptions::to_horizon(horizon))
                        .unwrap(),
                )
            })
            .collect();
        partners.push(ProgramSoA::from_program(
            &crate::Stationary::new(Vec2::new(1e6, 1e6))
                .compile(&CompileOptions::to_horizon(horizon))
                .unwrap(),
        ));
        let mut scratch = crate::EngineScratch::new();
        let batch = first_contact_batch_soa(&reference, &partners, 0.2, &opts, &mut scratch);
        assert_eq!(batch.len(), partners.len());
        for (k, partner) in partners.iter().enumerate() {
            let per_pair = try_first_contact_soa(&reference, partner, 0.2, &opts, &mut scratch)
                .expect("covered");
            let batched = batch[k].as_ref().expect("covered");
            assert_eq!(
                batched.classification(),
                per_pair.classification(),
                "partner {k}"
            );
            if let (Some(tb), Some(tp)) = (batched.contact_time(), per_pair.contact_time()) {
                assert!(
                    (tb - tp).abs() < 1e-9 * (1.0 + tp),
                    "partner {k}: {tb} vs {tp}"
                );
            }
        }
        // The parked partner is a Horizon disproof with a faithful
        // (probed, not envelope-gap) observed distance.
        match batch[2].as_ref().unwrap() {
            SimOutcome::Horizon { min_distance, .. } => {
                assert!(*min_distance > 1e5, "observed {min_distance}");
            }
            other => panic!("parked partner met the reference? {other:?}"),
        }
    }

    #[test]
    fn batch_soa_refuses_truncated_partners_individually() {
        use rvz_trajectory::{Compile, CompileOptions, PathBuilder};
        let horizon = 50.0;
        let opts = ContactOptions::with_horizon(horizon);
        let reference = ProgramSoA::from_program(
            &crate::Stationary::new(Vec2::ZERO)
                .compile(&CompileOptions::to_horizon(horizon))
                .unwrap(),
        );
        let covered = ProgramSoA::from_program(
            &PathBuilder::at(Vec2::new(5.0, 0.0))
                .line_to(Vec2::ZERO)
                .build()
                .compile(&CompileOptions::to_horizon(horizon))
                .unwrap(),
        );
        // Truncated: compiled only to t = 3, asked about t ≤ 50, and the
        // contact would happen after the covered span ends.
        let truncated = ProgramSoA::from_program(
            &PathBuilder::at(Vec2::new(40.0, 0.0))
                .line_to(Vec2::ZERO)
                .wait(100.0)
                .build()
                .compile(&CompileOptions::to_horizon(3.0))
                .unwrap(),
        );
        let mut scratch = crate::EngineScratch::new();
        let batch =
            first_contact_batch_soa(&reference, &[covered, truncated], 1.0, &opts, &mut scratch);
        assert!(batch[0].is_some(), "covered partner must resolve");
        assert_eq!(batch[1], None, "truncated partner must refuse");
    }

    #[test]
    #[should_panic(expected = "at least two robots")]
    fn single_robot_rejected() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let robots: Vec<&dyn MonotoneDyn> = vec![&a];
        let _ = first_simultaneous_gathering(&robots, 1.0, &ContactOptions::default());
    }
}
