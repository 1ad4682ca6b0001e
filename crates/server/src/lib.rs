//! # rvz-server
//!
//! `rvz serve`: a zero-dependency concurrent query service over the
//! rendezvous engine, with a **symmetry-canonicalized result cache**.
//!
//! The ROADMAP's north star is serving heavy query traffic, and the
//! engine (after the cursor and envelope-pruning work) answers a single
//! scenario fast; the remaining lever is recognizing that most of a
//! realistic query stream is *redundant*. The paper's own theory says
//! why: scenarios differing only in the unknown attributes are related
//! by exact symmetries — role swap with the joint speed/clock/distance
//! rescale, chirality reflection, placement gauges — so a diverse
//! stream collapses onto few orbits. The service keys its cache by the
//! canonical orbit representative ([`rvz_experiments::canonicalize`])
//! and transports the one cached answer along the symmetry to every
//! member of the orbit.
//!
//! ```text
//! TcpListener ── accept thread ──► mpsc queue ──► worker pool
//!                                                    │ parse HTTP + JSON  (http)
//!                                                    ▼
//!                                     Scenario ── canonicalize ──► CacheKey
//!                                                    │                 │
//!                                                    ▼                 ▼
//!                                          inverse transform ◄── sharded LRU
//!                                                    ▲                 │ miss
//!                                                    │                 ▼
//!                                                    └──────── engine (run_sweep)
//! ```
//!
//! Module map: [`http`] (wire format), [`cache`] (sharded LRU +
//! single-flight), [`service`] (endpoints, admission control and the
//! determinism contract), [`server`] (listener, bounded connection
//! queue, workers, load shedding, graceful drain), [`client`] (the
//! blocking client used by `rvz client` and the CI smoke), [`faults`]
//! (deterministic seeded fault injection for the overload/panic-isolation
//! test suite), [`snapshot`] (crash-safe cache snapshots for warm
//! restarts).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod client;
pub mod faults;
pub mod http;
pub mod server;
pub mod service;
pub mod snapshot;

pub use cache::{CacheStats, ResultCache};
pub use client::{request, ClientOptions, ClientResponse, HttpClient, RetryPolicy};
pub use faults::{FaultPlan, FaultSite, FaultState};
pub use http::{Request, Response};
pub use server::{spawn, spawn_with, ServerHandle, ServerOptions};
pub use service::{Control, Service, ServiceOptions};
pub use snapshot::{
    engine_fingerprint, read_snapshot, write_snapshot, RestoreOutcome, SnapshotData,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
