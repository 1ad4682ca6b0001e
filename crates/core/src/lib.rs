//! # rvz-core
//!
//! The paper's primary contribution: rendezvous algorithms for two robots
//! with unknown attributes, and the analysis machinery of Sections 3–4.
//!
//! ## What lives here
//!
//! * [`equivalent`] — the *equivalent search trajectory* reduction
//!   (Lemmas 4 and 5): a rendezvous execution under attributes
//!   `(v, φ, χ)` (with symmetric clocks) is exactly a single-robot search
//!   under the linear map `T∘ = I − v·Rot(φ)·Refl(χ)`, whose QR
//!   factorization isolates the symmetry-breaking scale `µ`.
//! * [`bounds`] — the closed-form rendezvous time bounds of Theorem 2.
//! * [`phases`] — Lemma 8: the wait/search phase schedule of Algorithm 7
//!   (`I(n)`, `A(n)`, `S(n)`).
//! * [`algorithm7`] — Algorithms 5, 6 and 7: `SearchAll`, `SearchAllRev`
//!   and the universal [`WaitAndSearch`] trajectory, with `O(log)`
//!   closed-form random access like `rvz-search`'s Algorithm 4.
//! * [`overlap`] — Lemmas 9–13: the phase-overlap algebra that proves
//!   Theorem 3, including the Lambert-W round bound and the explicit
//!   rendezvous-round predictor `k*`.
//!
//! ## The universal algorithm
//!
//! Theorem 4: [`WaitAndSearch`] solves rendezvous in finite time whenever
//! rendezvous is feasible at all (`τ ≠ 1`, or `v ≠ 1`, or `χ = +1` with
//! `φ ≠ 0`), with **no knowledge of which attribute differs** — the
//! trajectory value is a ZST with no parameters.
//!
//! ```
//! use rvz_core::WaitAndSearch;
//! use rvz_trajectory::Trajectory;
//!
//! let algo = WaitAndSearch;
//! // Round 1 has no wait (I(1) = 0 ⇒ 2S(1) of waiting first): the robot
//! // stays at the origin for the whole first inactive phase.
//! assert_eq!(algo.position(1.0), rvz_geometry::Vec2::ZERO);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod algorithm7;
pub mod bounds;
pub mod equivalent;
pub mod overlap;
pub mod phases;

pub use algorithm7::{Algorithm7Phase, WaitAndSearch};
pub use bounds::{theorem2_bound, Theorem2Bound};
pub use equivalent::EquivalentSearch;
pub use overlap::{
    completion_time, first_sufficient_overlap_round, lemma11_round_bound, lemma12_round_bound,
    lemma13_round_bound, lemma14_time_expression, overlap_lemma10, overlap_lemma9,
    tau_decomposition, OverlapReport, TauDecomposition,
};
pub use phases::PhaseSchedule;
