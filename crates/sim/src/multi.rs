//! The arena batch loop.
//!
//! Over SoA arenas ([`ProgramSoA`]) there is one batch loop,
//! [`first_contact_batch_soa`]: one reference against many partners,
//! with a window-envelope prefilter in front of the lane kernel.
//! [`first_contact_streamed`] is its single-partner form over a partner
//! lowered as a stream (the serve miss path).

use crate::compiled::EngineScratch;
use crate::engine::{ContactOptions, EngineStats, SimOutcome};
use crate::kernel::{try_first_contact_soa, try_first_contact_soa_impl};
use rvz_geometry::Aabb;
use rvz_trajectory::{ProgramSoA, SoaStream};

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
                if min_gap > radius + opts.tolerance {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::Vec2;

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
}
