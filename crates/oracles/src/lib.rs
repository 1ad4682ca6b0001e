//! # rvz-oracles
//!
//! The independent references the production engine is checked
//! against, kept out of the production crates. Nothing here depends on
//! `rvz-sim`: every oracle reads a trajectory only through
//! [`Trajectory::position`](rvz_trajectory::Trajectory::position) and
//! its speed bound, or through the paper's closed forms.
//!
//! * [`first_contact_generic`] — the seed conservative-advancement loop,
//!   the step and classification reference of the engine gates.
//! * [`first_contact_brute`] and [`DistanceTrace`] — dense sampling:
//!   unsound alone, but a contact it sees the engine must see no later.
//! * [`ArchimedeanSpiral`] and the [`schedules`] ablations — the
//!   omniscient searcher and the granularity models (experiments E11 and
//!   E12). The spiral is also the fuzz's curved trajectory.
//! * [`stationary_contact_time`] — Section 4's stationary-partner
//!   witness, an upper bound on Algorithm 7's contact time at `τ < 1`.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod brute;
pub mod generic;
pub mod schedules;
pub mod spiral;
pub mod trace;
pub mod witness;

pub use brute::first_contact_brute;
pub use generic::{first_contact_generic, GenericOptions, GenericOutcome};
pub use schedules::{GuaranteedSearch, PaperSchedule, SearchScheduleModel, UniformGranularity};
pub use spiral::ArchimedeanSpiral;
pub use trace::DistanceTrace;
pub use witness::{stationary_contact_time, StationaryContact};
