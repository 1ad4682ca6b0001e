//! # rvz-geometry
//!
//! Planar geometry substrate for the `plane-rendezvous` workspace.
//!
//! The rendezvous algorithms of Czyzowicz, Gąsieniec, Killick and Kranakis
//! (PODC 2019) are phrased entirely in terms of elementary planar geometry:
//! points and vectors in the Euclidean plane, rotations, reflections, and the
//! 2×2 matrix algebra used by the *equivalent search trajectory* reduction
//! (Lemmas 4 and 5 of the paper). This crate provides exactly those
//! primitives, implemented from scratch with no external dependencies so that
//! every numerical property relied upon by the proofs is visible and testable
//! in this repository.
//!
//! ## Modules
//!
//! * [`vec2`] — two-dimensional vectors ([`Vec2`]) with the usual inner
//!   product space operations.
//! * [`mat2`] — 2×2 matrices ([`Mat2`]), rotation/reflection constructors and
//!   the QR factorization used by Lemma 5.
//! * [`disk`] — closed disks ([`Disk`]) and the set-distance (`gap`)
//!   operation behind the simulator's swept-envelope pruning.
//! * [`angle`] — angle normalization helpers on `[0, 2π)`.
//! * [`trig`] — [`sin_cos`] without libm for the arc path (fdlibm's
//!   reduction and kernels; libm beyond `2^19·π/2`).
//! * [`approx`] — tolerant floating-point comparisons used throughout the
//!   workspace's tests and the simulator's contact detection.
//!
//! ## Example
//!
//! ```
//! use rvz_geometry::{Vec2, Mat2};
//!
//! // Rotating the unit x vector by 90° lands on the unit y vector.
//! let r = Mat2::rotation(std::f64::consts::FRAC_PI_2);
//! let v = r * Vec2::UNIT_X;
//! assert!((v - Vec2::UNIT_Y).norm() < 1e-15);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod aabb;
pub mod angle;
pub mod approx;
pub mod disk;
pub mod mat2;
pub mod trig;
pub mod vec2;

pub use aabb::Aabb;
pub use angle::{normalize_angle, TAU};
pub use approx::{approx_eq, approx_eq_eps, ApproxEq};
pub use disk::Disk;
pub use mat2::{Mat2, QrFactors};
pub use trig::{sin_cos, SIN_COS_REDUCTION_BOUND};
pub use vec2::Vec2;
