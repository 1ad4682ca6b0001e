//! # rvz-trajectory
//!
//! Continuous-time trajectory substrate for the `plane-rendezvous`
//! workspace.
//!
//! The paper describes every algorithm as a single parametric trajectory
//! `S(t)`: a unit-speed curve in the plane built from straight legs, full
//! circle traversals and waiting periods. Both robots execute the *same*
//! `S(t)`, each within its own reference frame; the frame differences
//! (speed `v`, clock `τ`, orientation `φ`, chirality `χ` — Lemma 4) are a
//! linear map plus a time dilation applied to `S`.
//!
//! This crate provides:
//!
//! * [`Segment`] — the three primitive motions (line, arc, wait) with exact
//!   arc-length parameterization;
//! * [`Path`] — a finite contiguous sequence of segments with `O(log n)`
//!   random-access evaluation, built via [`PathBuilder`];
//! * [`Trajectory`] — the object-safe evaluation trait shared by finite
//!   paths, closed-form infinite algorithms (in `rvz-search`/`rvz-core`)
//!   and baselines;
//! * [`FrameWarp`] — Lemma 4 as a combinator: `t ↦ b + M·S(t/σ)`;
//! * [`StreamCursor`] — sequential evaluation of a lazy segment stream,
//!   used to cross-check the closed-form random-access implementations;
//! * [`MonotoneTrajectory`] / [`Cursor`] — amortized-O(1) forward
//!   evaluation with piece introspection, the substrate of the
//!   simulator's analytic fast path (see the [`monotone`] module docs
//!   for the cursor contract);
//! * [`CompiledProgram`] / [`Compile`] — the flat piecewise IR: a
//!   trajectory lowered (warps and clock drifts applied at lowering
//!   time) into an arena of pieces with a baked envelope tree, the
//!   substrate of the simulator's monomorphic zero-allocation engine.
//!   Curved motions refuse to lower (see the [`program`] module docs);
//! * [`ProgramSoA`] / [`SoaStream`] — the same arena in
//!   structure-of-arrays layout for the lane kernel, either transposed
//!   from an eager program or lowered as a stream straight into the
//!   columns, only as far as queries need (see the [`soa`] module docs).
//!
//! ## Example
//!
//! ```
//! use rvz_trajectory::{PathBuilder, Trajectory};
//! use rvz_geometry::Vec2;
//!
//! // Out along x, around the unit circle, and back: SearchCircle(1).
//! let path = PathBuilder::at(Vec2::ZERO)
//!     .line_to(Vec2::new(1.0, 0.0))
//!     .full_circle(Vec2::ZERO)
//!     .line_to(Vec2::ZERO)
//!     .build();
//! let expected = 2.0 * (std::f64::consts::PI + 1.0);
//! assert!((path.duration() - expected).abs() < 1e-12);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod cursor;
pub mod drift;
pub mod func;
pub mod monotone;
pub mod path;
pub mod program;
pub mod segment;
pub mod soa;
pub mod warp;

pub use cursor::StreamCursor;
pub use drift::ClockDrift;
pub use func::FnTrajectory;
pub use monotone::{
    Cursor, GenericCursor, MonotoneDyn, MonotoneGuard, MonotoneTrajectory, Motion, Probe,
};
pub use path::{Path, PathBuilder};
pub use program::{
    lower_program, Compile, CompileError, CompileOptions, CompiledProgram, Piece, ProgramCursor,
};
pub use segment::Segment;
pub use soa::{CircularLaw, ProgramSoA, SoaStream};
pub use warp::FrameWarp;

use rvz_geometry::Vec2;

/// A continuous motion of a point in the plane, evaluable at any time.
///
/// Implementations must satisfy, for all `0 ≤ s ≤ t`:
///
/// * **Continuity** — `position` is continuous in `t`;
/// * **Speed bound** — `|position(t) − position(s)| ≤ speed_bound()·(t−s)`;
/// * **Persistence** — finite trajectories hold their final position for
///   all `t ≥ duration()` (robots stop, they do not vanish).
///
/// The speed bound is what makes the simulator's conservative-advancement
/// contact detection sound, so implementations must treat it as a hard
/// invariant (it is property-tested in `rvz-sim`).
pub trait Trajectory {
    /// The position at time `t ≥ 0`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `t` is negative or NaN.
    fn position(&self, t: f64) -> Vec2;

    /// An upper bound on the instantaneous speed at every time.
    fn speed_bound(&self) -> f64;

    /// Total duration when the motion is finite; `None` for the paper's
    /// repeat-forever algorithms.
    fn duration(&self) -> Option<f64> {
        None
    }
}

impl<T: Trajectory + ?Sized> Trajectory for &T {
    fn position(&self, t: f64) -> Vec2 {
        (**self).position(t)
    }
    fn speed_bound(&self) -> f64 {
        (**self).speed_bound()
    }
    fn duration(&self) -> Option<f64> {
        (**self).duration()
    }
}

impl<T: Trajectory + ?Sized> Trajectory for Box<T> {
    fn position(&self, t: f64) -> Vec2 {
        (**self).position(t)
    }
    fn speed_bound(&self) -> f64 {
        (**self).speed_bound()
    }
    fn duration(&self) -> Option<f64> {
        (**self).duration()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn trait_is_object_safe_and_blanket_impls_forward() {
        let path = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(2.0, 0.0))
            .build();
        let boxed: Box<dyn Trajectory> = Box::new(path.clone());
        assert_eq!(boxed.position(1.0), Vec2::new(1.0, 0.0));
        assert_eq!(boxed.duration(), Some(2.0));
        let by_ref: &dyn Trajectory = &path;
        assert_eq!(by_ref.position(2.0), Vec2::new(2.0, 0.0));
        assert_eq!(by_ref.speed_bound(), 1.0);
    }
}
