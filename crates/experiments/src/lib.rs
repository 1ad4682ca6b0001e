//! # rvz-experiments
//!
//! Scenario sweeps at scale: deterministic generation of rendezvous
//! scenario batches and a parallel executor that maps them over the
//! simulator.
//!
//! The paper's headline results are statements over whole *families* of
//! attribute configurations — Theorem 4 characterizes feasibility over
//! the full `(v, τ, φ, χ)` space, Theorems 2–3 bound rendezvous time as
//! those parameters vary. This crate turns the single-instance simulator
//! of [`rvz_sim`] into a mapper over such families:
//!
//! * [`ScenarioGrid`] / [`latin_hypercube`] — deterministic scenario
//!   generation (Cartesian grids and seeded Latin-hypercube samples over
//!   attributes × placement × algorithm);
//! * [`run_sweep`] / [`run_sweep_with`] — a batch executor in which the
//!   calling thread and its scoped helpers share one work loop, whose
//!   output is byte-identical for every thread count, over
//!   [`run_scenario`], the one per-scenario call;
//! * [`write_jsonl`] / [`write_csv`] / [`Summary`] — deterministic
//!   structured sinks and aggregate percentile summaries;
//! * [`canonicalize`] / [`orbit_key`] — symmetry canonicalization: the
//!   role-swap gauge and the full attribute quotient that key the
//!   `rvz serve` result cache (see [`canonical`]);
//! * [`run_sweep_checkpointed`] / [`Checkpoint`] — crash-safe sweep
//!   resume: completed records are journaled as CRC-framed JSONL and a
//!   restarted sweep recomputes only what is missing, reproducing the
//!   uninterrupted artifact bit-for-bit (see [`checkpoint`]);
//! * [`journal`] — the one durable record format, CRC-framed record
//!   lines under a version and fingerprint header, that the checkpoint
//!   and the `rvz serve` cache snapshot both write;
//! * [`durable`] — the atomic-replace / append-journal file primitives
//!   under both;
//! * [`faults`] — the one seeded fault injector: a [`FaultPlan`] over
//!   the five serve sites and the four disk sites, and its runtime
//!   state [`Faults`];
//! * [`json`] — the dependency-free JSON value model shared by the
//!   sinks and the serving layer's wire format.
//!
//! Every future workload axis (failure injection, drift ablations,
//! multi-robot swarms) is meant to plug in here as one more scenario
//! field rather than one more bespoke binary.
//!
//! ## Example: a Theorem 4 feasibility sweep
//!
//! ```
//! use rvz_experiments::{run_sweep, ScenarioGrid, Summary, SweepOptions};
//! use rvz_model::Chirality;
//!
//! let scenarios = ScenarioGrid::new()
//!     .speeds(&[0.5, 1.0])
//!     .clocks(&[0.6, 1.0])
//!     .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
//!     .distances(&[0.9])
//!     .visibilities(&[0.25])
//!     .build();
//! let records = run_sweep(&scenarios, &SweepOptions::default());
//! let summary = Summary::from_records(&records);
//! // Simulation agrees with the Theorem 4 predicate on every cell.
//! assert_eq!(summary.consistent, summary.total);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod canonical;
pub mod checkpoint;
pub mod durable;
pub mod executor;
pub mod faults;
pub mod journal;
pub mod json;
pub mod report;
pub mod rng;
pub mod scenario;

pub use canonical::{
    canonicalize, orbit_key, role_swap, snap_grid, CacheKey, Canonical, OrbitKey, OutcomeTransform,
    DEFAULT_GRID,
};
pub use checkpoint::{
    run_sweep_checkpointed, sweep_fingerprint, Checkpoint, CheckpointStats, RecordLines,
};
pub use durable::{crc32, read_file_faulty, DurableFile, JournalFile};
pub use executor::{run_scenario, run_sweep, run_sweep_with, SweepOptions, SweepRecord};
pub use faults::{FaultPlan, FaultSite, Faults};
pub use journal::{read_journal, write_frame, write_header, ENGINE_BYTES_DIGEST, JOURNAL_VERSION};
pub use json::Json;
pub use report::{
    breaker_token, outcome_token, percentile, record_from_json, record_to_json, scenario_from_json,
    write_csv, write_jsonl, write_record_json, Summary, CSV_HEADER,
};
pub use rng::SplitMix64;
pub use scenario::{
    latin_hypercube, parse_chirality, Algorithm, SampleSpace, Scenario, ScenarioGrid,
};
