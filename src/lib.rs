//! # plane-rendezvous
//!
//! A full reproduction of **“Symmetry Breaking in the Plane: Rendezvous
//! by Robots with Unknown Attributes”** (Czyzowicz, Gąsieniec, Killick,
//! Kranakis — PODC 2019) as a Rust workspace.
//!
//! Two anonymous robots are dropped at unknown positions in the infinite
//! Euclidean plane. They may differ in movement speed, clock rate,
//! compass orientation and chirality — and neither robot knows any of
//! these values. Both must run the *same* deterministic algorithm.
//! The paper characterizes exactly when rendezvous is possible
//! (Theorem 4) and gives a universal algorithm that achieves it without
//! knowing which attribute differs.
//!
//! This crate is a facade that re-exports the workspace's sub-crates
//! under stable module names:
//!
//! | module | contents |
//! |---|---|
//! | [`geometry`] | vectors, matrices, QR factorization |
//! | [`numerics`] | dyadic helpers: exact powers of two, `floor_log2` |
//! | [`obs`] | zero-dependency metrics registry, spans, and the flight recorder |
//! | [`trajectory`] | segments, paths, frame warps, the `Trajectory` trait |
//! | [`model`] | robot attributes, instances, the Theorem 4 predicate |
//! | [`search`] | Algorithms 1–4 (Section 2) with closed-form indexing |
//! | [`core`] | equivalent-search reduction, Algorithm 7, overlap algebra |
//! | [`sim`] | conservative-advancement continuous-time simulation |
//! | [`experiments`] | scenario grids, Latin-hypercube samples, parallel sweeps, symmetry canonicalization |
//! | [`server`] | the `rvz serve` HTTP query service with the symmetry-canonicalized result cache |
//!
//! ## Quickstart
//!
//! ```
//! use plane_rendezvous::prelude::*;
//!
//! // Robot R' is half as fast as R — feasible by Theorem 4.
//! let attrs = RobotAttributes::reference().with_speed(0.5);
//! assert!(feasibility(&attrs).is_feasible());
//!
//! // Simulate both robots running Algorithm 4 (symmetric clocks).
//! let inst = RendezvousInstance::new(Vec2::new(0.0, 0.8), 0.05, attrs).unwrap();
//! let outcome = simulate_rendezvous(UniversalSearch, &inst, &ContactOptions::default());
//! let t = outcome.contact_time().expect("rendezvous happens");
//!
//! // ... within the Theorem 2 bound.
//! let bound = theorem2_bound(&inst).time().unwrap();
//! assert!(t < bound);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub use rvz_core as core;
pub use rvz_experiments as experiments;
pub use rvz_geometry as geometry;
pub use rvz_model as model;
pub use rvz_numerics as numerics;
pub use rvz_obs as obs;
pub use rvz_search as search;
pub use rvz_server as server;
pub use rvz_sim as sim;
pub use rvz_trajectory as trajectory;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use rvz_core::{
        lemma13_round_bound, tau_decomposition, theorem2_bound, EquivalentSearch, PhaseSchedule,
        Theorem2Bound, WaitAndSearch,
    };
    pub use rvz_experiments::{
        latin_hypercube, run_sweep, SampleSpace, Scenario, ScenarioGrid, Summary, SweepOptions,
    };
    pub use rvz_geometry::{Mat2, Vec2};
    pub use rvz_model::{
        feasibility, Chirality, Feasibility, RendezvousInstance, RobotAttributes, SearchInstance,
        SymmetryBreaker,
    };
    pub use rvz_search::{coverage, first_discovery, times, UniversalSearch};
    pub use rvz_sim::{
        first_contact, simulate_rendezvous, simulate_search, ContactOptions, SimOutcome, Stationary,
    };
    pub use rvz_trajectory::{
        Cursor, FrameWarp, MonotoneDyn, MonotoneTrajectory, Path, PathBuilder, Segment, Trajectory,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item from each module to catch broken re-exports.
        let _ = crate::geometry::Vec2::ZERO;
        let _ = crate::numerics::pow2i(1);
        let _ = crate::trajectory::Path::empty();
        let _ = crate::model::RobotAttributes::reference();
        let _ = crate::search::UniversalSearch;
        let _ = crate::core::WaitAndSearch;
        let _ = crate::sim::ContactOptions::default();
        let _ = crate::experiments::ScenarioGrid::new();
        let _ = crate::server::ServiceOptions::default();
    }
}
