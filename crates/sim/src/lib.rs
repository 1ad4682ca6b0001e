//! # rvz-sim
//!
//! Continuous-time simulation of the paper's model: two point robots
//! follow [`Trajectory`](rvz_trajectory::Trajectory) values and the
//! simulator finds the *first* instant their distance drops to the
//! visibility radius `r` — the moment rendezvous (or target discovery)
//! happens.
//!
//! ## Why conservative advancement
//!
//! The model is continuous; fixed-step sampling can step over a brief
//! contact. The engine instead uses **conservative advancement**: if the
//! robots are `D > r` apart and their relative speed is at most `s`
//! (the sum of the trajectories' declared speed bounds), then no contact
//! can occur within the next `(D − r)/s` time units, so the simulator
//! jumps that far in one step. This
//!
//! * never misses a contact (soundness follows from the speed-bound
//!   invariant of the `Trajectory` trait), and
//! * takes time proportional to the number of *near approaches*, not the
//!   number of trajectory segments — which is what makes simulating
//!   Algorithm 7's Θ(4ⁿ)-segment rounds tractable together with the
//!   closed-form random access from `rvz-search`/`rvz-core`.
//!
//! ## The monotone-cursor fast path
//!
//! [`first_contact`] additionally exploits the trajectories'
//! *piecewise structure* through
//! [`MonotoneTrajectory`](rvz_trajectory::MonotoneTrajectory) cursors:
//! position queries at non-decreasing times cost amortized O(1), and
//! whenever both robots are on straight legs or waits the within-piece
//! first contact is solved in closed form (a quadratic in `t`) rather
//! than by conservative inching — eliminating the ulp-floor crawl on
//! grazing configurations. The original random-access loop survives
//! only as a test oracle (the dev-only `rvz-oracles` crate), the
//! reference the engine is equivalence-tested against.
//!
//! Contact is declared when `D ≤ r + tolerance`; the reported time is
//! early by at most `tolerance / s` relative to the exact `D = r`
//! crossing, and every report carries the achieved distance so callers
//! can judge the slack. Dense sampling from the same oracle crate
//! cross-checks the engine in the test suites.
//!
//! ## Example
//!
//! ```
//! use rvz_sim::{simulate_search, ContactOptions, SimOutcome};
//! use rvz_model::SearchInstance;
//! use rvz_search::UniversalSearch;
//! use rvz_geometry::Vec2;
//!
//! let inst = SearchInstance::new(Vec2::new(0.0, 0.9), 0.05).unwrap();
//! let outcome = simulate_search(UniversalSearch, &inst, &ContactOptions::default());
//! assert!(matches!(outcome, SimOutcome::Contact { .. }));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod batch;
pub mod compiled;
pub mod engine;
pub mod kernel;
mod ladder;
pub mod multi;
pub mod runners;
pub mod stationary;
pub mod telemetry;

pub use batch::{compile_rendezvous_partner, simulate_rendezvous_by_ref};
pub use compiled::{first_contact_programs, try_first_contact_programs, EngineScratch};
pub use engine::{
    first_contact, first_contact_cursors, first_contact_cursors_instrumented, Budget,
    ContactOptions, EngineStats, PairKind, SimOutcome,
};
pub use kernel::{first_contact_soa, try_first_contact_soa, KERNEL_LANES};
pub use multi::{first_contact_batch_soa, first_contact_streamed};
pub use runners::{simulate_rendezvous, simulate_search};
pub use stationary::Stationary;
pub use telemetry::EnginePath;
