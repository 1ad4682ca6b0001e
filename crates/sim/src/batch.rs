//! Reusable batch entry points for sweep-style workloads.
//!
//! [`simulate_rendezvous_by_ref`] is the one rendezvous query every
//! production path runs: the `rvz-experiments` sweep executor, serve's
//! cursor miss path, and [`crate::simulate_rendezvous`], which takes its
//! algorithm by value and delegates here. Taking the algorithm by
//! reference lets one algorithm value be built once per worker and
//! reused for the whole batch: the [`MonotoneTrajectory`] blanket impl
//! for `&T` means the frame warp wraps a borrow, and the engine itself
//! holds no per-call buffers, so the hot loop performs no allocation at
//! all.
//!
//! The query takes one of two shapes, chosen by the clocks alone:
//!
//! * **τ = 1: the Lemma 4 relative trajectory.** The pair is within `r`
//!   exactly when `T∘·S(t)`, `T∘ = I − v·Rot(φ)·Refl(χ)`, is within `r`
//!   of the fixed target `d⃗`: one cursor against a [`Stationary`]
//!   point. Exact twins (`T∘ = 0`) and mirror twins with `|d⃗·û| > r`
//!   (rank-1 `T∘`, seen by the warp cursor's
//!   [`gap_to`](rvz_trajectory::Cursor::gap_to)) disprove to the horizon
//!   in one step.
//! * **τ ≠ 1: two cursors**, the reference robot against its
//!   frame-warped partner.

use crate::compiled::{try_first_contact_programs, EngineScratch};
use crate::engine::{first_contact, ContactOptions, SimOutcome};
use crate::stationary::Stationary;
use rvz_geometry::{Mat2, Vec2};
use rvz_model::RendezvousInstance;
use rvz_trajectory::{
    Compile, CompileError, CompileOptions, CompiledProgram, FrameWarp, MonotoneTrajectory,
};

/// Simulates the rendezvous problem with the algorithm taken by
/// reference: on the Lemma 4 relative trajectory when `τ = 1` exactly,
/// on two cursors otherwise (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use rvz_sim::batch::simulate_rendezvous_by_ref;
/// use rvz_sim::ContactOptions;
/// use rvz_search::UniversalSearch;
/// use rvz_model::{RendezvousInstance, RobotAttributes};
/// use rvz_geometry::Vec2;
///
/// let algorithm = UniversalSearch;
/// let attrs = RobotAttributes::reference().with_speed(0.5);
/// let opts = ContactOptions::default();
/// for d in [0.5, 0.7, 0.9] {
///     let inst = RendezvousInstance::new(Vec2::new(0.0, d), 0.05, attrs).unwrap();
///     assert!(simulate_rendezvous_by_ref(&algorithm, &inst, &opts).is_contact());
/// }
/// ```
pub fn simulate_rendezvous_by_ref<T: MonotoneTrajectory>(
    algorithm: &T,
    instance: &RendezvousInstance,
    opts: &ContactOptions,
) -> SimOutcome {
    let attrs = instance.attributes();
    if attrs.time_unit() == 1.0 {
        // Lemma 4: the relative robot `T∘·S(t)` against the target `d⃗`.
        let relative = FrameWarp::new(
            algorithm,
            Mat2::IDENTITY - attrs.frame_linear(),
            Vec2::ZERO,
            1.0,
        );
        let target = Stationary::new(instance.offset());
        return first_contact(&target, &relative, instance.visibility(), opts);
    }
    let partner = attrs.frame_warp(algorithm, instance.offset());
    first_contact(algorithm, &partner, instance.visibility(), opts)
}

/// Lowers the partner robot of a rendezvous instance — the algorithm
/// seen through the instance's attribute frame — to a compiled program.
///
/// The frame warp is applied **at lowering time**: the returned arena
/// holds plain warped pieces and the engine never touches the warp
/// matrices again. The reference robot's program is just
/// `algorithm.compile(opts)`, shared across every instance of a batch.
///
/// # Errors
///
/// As for [`Compile::compile`] (curved pieces, budget, stalls).
pub fn compile_rendezvous_partner<T: Compile + MonotoneTrajectory>(
    algorithm: &T,
    instance: &RendezvousInstance,
    opts: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    instance
        .attributes()
        .frame_warp(algorithm, instance.offset())
        .compile(opts)
}

/// The two-cursor rendezvous query on the scalar compiled ladder: the
/// partner is lowered with [`compile_rendezvous_partner`] and run
/// against the shared reference program with
/// [`try_first_contact_programs`], and the result is exactly theirs.
/// For `τ ≠ 1` that is the query [`simulate_rendezvous_by_ref`] runs.
/// For `τ = 1` it matches [`simulate_rendezvous_by_ref`] (the Lemma 4
/// relative trajectory) in outcome kind, and in contact time up to the
/// declaration slack, but not in `steps` or `min_distance`.
///
/// Returns `None` when the partner does not lower (curved pieces) or
/// when the query needs time a truncated program does not cover; the
/// caller falls back to the cursor path.
///
/// Kept only because `perfbench`'s sweep replay calls it; it goes when
/// the benchmark harness stops calling it.
pub fn try_simulate_rendezvous_lazy<T: Compile + MonotoneTrajectory>(
    reference: &CompiledProgram,
    algorithm: &T,
    instance: &RendezvousInstance,
    opts: &ContactOptions,
    compile: &CompileOptions,
    scratch: &mut EngineScratch,
) -> Option<SimOutcome> {
    let partner = compile_rendezvous_partner(algorithm, instance, compile).ok()?;
    try_first_contact_programs(reference, &partner, instance.visibility(), opts, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_geometry::Vec2;
    use rvz_model::RobotAttributes;
    use rvz_search::UniversalSearch;

    #[test]
    fn by_ref_matches_by_value() {
        let attrs = RobotAttributes::reference().with_speed(0.5);
        let inst = RendezvousInstance::new(Vec2::new(0.3, 0.6), 0.05, attrs).unwrap();
        let opts = ContactOptions::default();
        let by_ref = simulate_rendezvous_by_ref(&UniversalSearch, &inst, &opts);
        let by_value = crate::simulate_rendezvous(UniversalSearch, &inst, &opts);
        assert_eq!(by_ref, by_value);
    }

    #[test]
    fn pruning_disproves_an_off_axis_mirror_twin_in_one_step() {
        // v = τ = 1, χ = −1: `I − Rot(φ)·Refl` is rank 1, so the relative
        // robot stays on one line and an offset with `|d⃗·û| > r` is out
        // of reach. Pruning (the warp cursor's `gap_to`) disproves that
        // on the first step; without it the engine steps until its step
        // budget, so `--no-prune` changes such outcomes' classification.
        let phi = 1.2;
        let attrs = RobotAttributes::reference()
            .with_chirality(rvz_model::Chirality::Mirrored)
            .with_orientation(phi);
        let inst =
            RendezvousInstance::new(Vec2::from_polar(2.0, 0.5 * phi + 0.7), 0.1, attrs).unwrap();
        let opts = ContactOptions::default().max_steps(1_000);
        let pruned = simulate_rendezvous_by_ref(&UniversalSearch, &inst, &opts);
        assert!(
            matches!(pruned, SimOutcome::Horizon { steps: 1, .. }),
            "{pruned}"
        );
        let unpruned = simulate_rendezvous_by_ref(&UniversalSearch, &inst, &opts.prune(false));
        assert!(
            matches!(unpruned, SimOutcome::StepBudget { steps: 1_000, .. }),
            "{unpruned}"
        );
    }

    #[test]
    fn lazy_batch_matches_eager_and_cursor() {
        let attrs = RobotAttributes::reference().with_speed(0.5);
        let opts = ContactOptions::default();
        let full = CompileOptions::to_horizon(opts.horizon);
        let reference = UniversalSearch.compile(&full).unwrap();
        let mut scratch = EngineScratch::new();
        // The default budget, and a truncating budget that answers the
        // near placement and refuses the two farther ones: the entry
        // point answers exactly as the two eager calls do, `None`
        // included.
        let budgets = [full, full.max_pieces(64)];
        let mut refusals = 0;
        for compile in budgets {
            for d in [0.4, 0.9, 1.5] {
                let inst = RendezvousInstance::new(Vec2::new(0.0, d), 0.05, attrs).unwrap();
                let lazy = try_simulate_rendezvous_lazy(
                    &reference,
                    &UniversalSearch,
                    &inst,
                    &opts,
                    &compile,
                    &mut scratch,
                );
                let eager = compile_rendezvous_partner(&UniversalSearch, &inst, &compile)
                    .ok()
                    .and_then(|partner| {
                        try_first_contact_programs(
                            &reference,
                            &partner,
                            inst.visibility(),
                            &opts,
                            &mut scratch,
                        )
                    });
                assert_eq!(lazy, eager, "d = {d}, {compile:?}");
                let Some(lazy) = lazy else {
                    refusals += 1;
                    continue;
                };
                let cursor = simulate_rendezvous_by_ref(&UniversalSearch, &inst, &opts);
                assert_eq!(lazy.classification(), cursor.classification(), "d = {d}");
                let (tl, tc) = (lazy.contact_time().unwrap(), cursor.contact_time().unwrap());
                assert!((tl - tc).abs() < 1e-6, "d = {d}: {tl} vs {tc}");
            }
        }
        assert_eq!(
            refusals, 2,
            "the truncated partner refuses the far placements"
        );
    }
}
