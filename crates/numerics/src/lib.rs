//! # rvz-numerics
//!
//! Dyadic arithmetic for the rendezvous schedules of Czyzowicz,
//! Gąsieniec, Killick and Kranakis (PODC 2019).
//!
//! Every radius, granularity and phase length of the paper's schedules
//! is a dyadic rational, so the schedule crates build them from exact
//! powers of two that stay integer-exact in `f64`. Everything here is
//! dependency-free.
//!
//! ## Modules
//!
//! * [`dyadic`] — exact powers of two and `log₂` helpers.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod dyadic;

pub use dyadic::{floor_log2, pow2i};
