//! Reusable batch entry points for sweep-style workloads.
//!
//! [`crate::simulate_rendezvous`] takes its algorithm by value and clones
//! it for the reference robot, which is the convenient shape for one-off
//! calls but forces a `Clone` bound and a fresh algorithm value per
//! instance. When a caller runs thousands of instances under the *same*
//! algorithm (the `rvz-experiments` sweep executor, the throughput
//! bench), the *by-ref* entry points here let one algorithm value be
//! built once per worker and reused for the whole batch: the
//! [`MonotoneTrajectory`] blanket impl for `&T` means the frame warp
//! wraps a borrow, and the engine itself holds no per-call buffers, so
//! the hot loop performs no allocation at all. Each simulation builds its
//! two cursors once and runs entirely on the monotone fast path.

use crate::compiled::{try_first_contact_programs, EngineScratch};
use crate::engine::{first_contact, ContactOptions, SimOutcome};
use rvz_model::RendezvousInstance;
use rvz_trajectory::{Compile, CompileError, CompileOptions, CompiledProgram, MonotoneTrajectory};

/// [`crate::simulate_rendezvous`] with the algorithm taken by reference:
/// no `Clone` bound, no per-call algorithm construction.
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
    let partner = instance
        .attributes()
        .frame_warp(algorithm, instance.offset());
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

/// [`simulate_rendezvous_by_ref`] on the compiled fast path with a
/// **streaming** partner: the reference program is compiled once per
/// batch and amortized, while the warped partner runs as a
/// [`LazyProgram`](rvz_trajectory::LazyProgram) that materializes
/// pieces only as far as the query advances. On deep schedules whose
/// queries resolve early this removes the dominant per-instance
/// lowering tax.
///
/// Returns `None` when the query needs time the partner cannot cover
/// (piece budget, a curved span without an
/// [`approx_tolerance`](rvz_trajectory::CompileOptions::approx_tolerance),
/// an uncertifiable bound) — the caller falls back to the cursor path.
/// A returned outcome always equals the run on the eagerly lowered
/// partner ([`compile_rendezvous_partner`] +
/// [`try_first_contact_programs`]).
pub fn try_simulate_rendezvous_lazy<T: Compile + MonotoneTrajectory>(
    reference: &CompiledProgram,
    algorithm: &T,
    instance: &RendezvousInstance,
    opts: &ContactOptions,
    compile: &CompileOptions,
    scratch: &mut EngineScratch,
) -> Option<SimOutcome> {
    let partner = instance
        .attributes()
        .frame_warp(algorithm, instance.offset());
    let lazy = rvz_trajectory::LazyProgram::new(&partner, *compile);
    try_first_contact_programs(reference, &lazy, instance.visibility(), opts, scratch)
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
    fn lazy_batch_matches_eager_and_cursor() {
        let attrs = RobotAttributes::reference().with_speed(0.5);
        let opts = ContactOptions::default();
        let compile = CompileOptions::to_horizon(opts.horizon);
        let reference = UniversalSearch.compile(&compile).unwrap();
        let mut scratch = EngineScratch::new();
        for d in [0.4, 0.9, 1.5] {
            let inst = RendezvousInstance::new(Vec2::new(0.0, d), 0.05, attrs).unwrap();
            let lazy = try_simulate_rendezvous_lazy(
                &reference,
                &UniversalSearch,
                &inst,
                &opts,
                &compile,
                &mut scratch,
            )
            .expect("lazy partner covers the resolved span");
            let partner = compile_rendezvous_partner(&UniversalSearch, &inst, &compile)
                .expect("the partner lowers");
            let eager = try_first_contact_programs(
                &reference,
                &partner,
                inst.visibility(),
                &opts,
                &mut scratch,
            )
            .expect("eager partner covers the horizon");
            let cursor = simulate_rendezvous_by_ref(&UniversalSearch, &inst, &opts);
            // Step counts may differ when the eager partner
            // budget-truncates (its round marks stop at the truncated
            // end, the lazy program's reach the horizon), but the
            // verdict and contact time must agree across all three.
            for other in [&eager, &cursor] {
                assert_eq!(lazy.classification(), other.classification(), "d = {d}");
                let (tl, to) = (lazy.contact_time().unwrap(), other.contact_time().unwrap());
                assert!((tl - to).abs() < 1e-6, "d = {d}: {tl} vs {to}");
            }
        }
    }
}
