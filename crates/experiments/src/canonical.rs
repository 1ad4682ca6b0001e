//! Symmetry canonicalization: quotient a [`Scenario`] by the paper's
//! attribute symmetries so that equivalent queries share one cache entry.
//!
//! The paper's premise is that instances differing only in the *unknown*
//! attributes are related by exact symmetries of the rendezvous problem.
//! This module exploits two layers of that structure:
//!
//! ## The exact layer: role-swap gauge (simulation outcomes)
//!
//! A scenario describes the instance from the reference robot `R`'s
//! frame: `R'` has speed `v`, clock `τ`, compass `φ`, chirality `χ` and
//! sits at distance `d`, bearing `β`. The *same physical instance*
//! described from `R'`'s frame is the scenario
//!
//! ```text
//! v → 1/v   τ → 1/τ   χ → χ   d → d/(v·τ)   r → r/(v·τ)
//! φ → −φ (χ = +1)  |  φ → φ (χ = −1)
//! β → β − φ + π (χ = +1)  |  β → φ − β + π (χ = −1)
//! ```
//!
//! because `R`'s frame map seen from `R'` is the inverse `L⁻¹` of `R'`'s
//! frame map `L = vτ·Rot(φ)·Refl(χ)`, and the offset `−D` lands at
//! `L⁻¹(−D)`. Both descriptions denote identical motion, so the
//! simulated distance profiles coincide up to the joint speed/clock/
//! distance rescale: an outcome computed on the swapped scenario maps
//! back **exactly** through time `× τ` and distance `× v·τ`
//! ([`OutcomeTransform`]). [`canonicalize`] picks the lexicographically
//! smaller of the two descriptions as the orbit representative, so a
//! query stream containing both descriptions of a family resolves to one
//! cache entry.
//!
//! ## The verdict layer: the full attribute quotient (feasibility)
//!
//! The Theorem 4 verdict is invariant under a much larger group — it
//! ignores the placement entirely (bearing rotation to a fixed frame and
//! rescaling of `d` to 1), is symmetric under chirality reflection
//! (`φ → −φ` with both robots reflected), and under the reciprocal
//! rescale `v → 1/v`, `τ → 1/τ` *independently* per axis (each predicate
//! `τ ≠ 1`, `v ≠ 1`, `φ ≠ 0` is reciprocal/reflection invariant).
//! [`orbit_key`] quotients all of that out, collapsing the whole
//! attribute space onto a tiny set of verdict classes.
//!
//! ## Quantization
//!
//! Both keys snap their continuous fields to a configurable grid whose
//! step is rounded to a **power of two** ([`snap_grid`]), so that
//! quantization is exact arithmetic: dyadic attribute values (`0.5`,
//! `1.0`, `1.5`, …) are preserved bit-for-bit — in particular the
//! symmetry boundaries `τ = 1`, `v = 1`, `φ = 0` stay exact — while the
//! ulp-level noise of computing a swap's reciprocals collapses into the
//! same bucket. The canonical *representative* (the scenario actually
//! simulated on a cache miss) is the de-quantized bucket value, a pure
//! function of the query, so cached and freshly computed answers are
//! identical. A grid `≤ 0` disables quantization (bit-exact keys).

use crate::rng::SplitMix64;
use crate::scenario::{Algorithm, Scenario};
use rvz_geometry::normalize_angle;
use rvz_model::Chirality;
use rvz_sim::SimOutcome;
use std::f64::consts::PI;

/// The default cache grid: `2⁻³⁰ ≈ 9.3e-10`.
///
/// Fine enough that distinct generator-produced scenarios never collide,
/// coarse enough to absorb the reciprocal round-off of the role swap.
pub const DEFAULT_GRID: f64 = 9.313225746154785e-10; // 2^-30, exact

/// Rounds a requested grid step to the nearest power of two.
///
/// Power-of-two steps make [`quantize`] exact (scaling by `2ᵏ` never
/// rounds), which is what keeps `τ = 1` / `v = 1` / `φ = 0` — the
/// symmetry boundaries of Theorem 4 — fixed points of quantization.
/// Non-positive or non-finite inputs disable quantization (return `0`).
pub fn snap_grid(grid: f64) -> f64 {
    if !grid.is_finite() || grid <= 0.0 {
        return 0.0;
    }
    (grid.log2().round()).exp2()
}

/// Snaps `x` to the nearest multiple of `grid` (`grid ≤ 0`: identity).
/// Negative zero is normalized to `+0.0` either way.
pub fn quantize(x: f64, grid: f64) -> f64 {
    if grid > 0.0 {
        (x / grid).round() * grid + 0.0
    } else {
        x + 0.0
    }
}

/// The exact map from outcomes computed on a canonical representative
/// back to the query's frame.
///
/// Times scale by [`OutcomeTransform::time_scale`], distances by
/// [`OutcomeTransform::distance_scale`]; step counts are frame-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeTransform {
    /// Multiplier from canonical-frame times to query-frame times.
    pub time_scale: f64,
    /// Multiplier from canonical-frame distances to query-frame distances.
    pub distance_scale: f64,
}

impl OutcomeTransform {
    /// The identity transform (query is its own representative).
    pub const IDENTITY: OutcomeTransform = OutcomeTransform {
        time_scale: 1.0,
        distance_scale: 1.0,
    };

    /// `true` when both scales are exactly 1.
    pub fn is_identity(&self) -> bool {
        self.time_scale == 1.0 && self.distance_scale == 1.0
    }

    /// Maps an outcome from the canonical frame into the query frame.
    pub fn apply(&self, outcome: SimOutcome) -> SimOutcome {
        let (ts, ds) = (self.time_scale, self.distance_scale);
        match outcome {
            SimOutcome::Contact {
                time,
                distance,
                steps,
            } => SimOutcome::Contact {
                time: time * ts,
                distance: distance * ds,
                steps,
            },
            SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            } => SimOutcome::Horizon {
                min_distance: min_distance * ds,
                min_distance_time: min_distance_time * ts,
                steps,
            },
            SimOutcome::StepBudget {
                time,
                min_distance,
                steps,
            } => SimOutcome::StepBudget {
                time: time * ts,
                min_distance: min_distance * ds,
                steps,
            },
            SimOutcome::Deadline {
                time,
                min_distance,
                steps,
            } => SimOutcome::Deadline {
                time: time * ts,
                min_distance: min_distance * ds,
                steps,
            },
        }
    }
}

/// The hashable identity of a canonical representative — the result
/// cache's key. Two scenarios get equal keys exactly when they share a
/// canonical representative (same symmetry orbit, same grid bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The common algorithm (part of the orbit: both robots run it).
    pub algorithm: Algorithm,
    /// Chirality of the representative.
    pub chirality: Chirality,
    /// Bit patterns of the representative's continuous fields, in order:
    /// speed, time-unit, orientation, distance, bearing, visibility.
    pub bits: [u64; 6],
}

impl CacheKey {
    /// The key of a canonical representative (its id is not part of it).
    pub fn of(s: &Scenario) -> CacheKey {
        CacheKey {
            algorithm: s.algorithm,
            chirality: s.chirality,
            bits: [
                s.speed.to_bits(),
                s.time_unit.to_bits(),
                s.orientation.to_bits(),
                s.distance.to_bits(),
                s.bearing.to_bits(),
                s.visibility.to_bits(),
            ],
        }
    }

    /// The representative this key identifies, with id 0: the inverse
    /// of [`CacheKey::of`], bit for bit.
    pub fn scenario(&self) -> Scenario {
        let [speed, time_unit, orientation, distance, bearing, visibility] =
            self.bits.map(f64::from_bits);
        Scenario {
            id: 0,
            algorithm: self.algorithm,
            speed,
            time_unit,
            orientation,
            chirality: self.chirality,
            distance,
            bearing,
            visibility,
        }
    }

    /// A deterministic 64-bit mix of the key (one [`SplitMix64`] step
    /// per field), used for shard selection independent of the process's
    /// hash-map seeding, and as the orbit id in the serve slow-query log.
    pub fn mix(&self) -> u64 {
        let mut h: u64 = match self.algorithm {
            Algorithm::WaitAndSearch => 0x9e37,
            Algorithm::UniversalSearch => 0x79b9,
        };
        h ^= match self.chirality {
            Chirality::Consistent => 0x1,
            Chirality::Mirrored => 0x2,
        };
        for &b in &self.bits {
            h = SplitMix64::new(h ^ b).next_u64();
        }
        h
    }
}

/// A scenario reduced to its symmetry-orbit representative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Canonical {
    /// The representative actually simulated on a cache miss (id 0; the
    /// de-quantized grid-bucket value, a pure function of the query).
    pub scenario: Scenario,
    /// Whether the representative is the role-swapped description.
    pub swapped: bool,
    /// Maps representative-frame outcomes back to the query frame.
    pub transform: OutcomeTransform,
    /// The cache key identifying the representative.
    pub key: CacheKey,
}

/// The role-swapped description of the same physical instance, plus the
/// transform mapping swapped-frame outcomes back to the input frame.
///
/// The swap is a mathematical involution (swapping twice returns the
/// original up to floating-point round-off in the reciprocals).
pub fn role_swap(s: &Scenario) -> (Scenario, OutcomeTransform) {
    let scale = s.speed * s.time_unit;
    let (orientation, bearing) = match s.chirality {
        Chirality::Consistent => (
            normalize_angle(-s.orientation),
            normalize_angle(s.bearing - s.orientation + PI),
        ),
        Chirality::Mirrored => (
            s.orientation,
            normalize_angle(s.orientation - s.bearing + PI),
        ),
    };
    let swapped = Scenario {
        id: s.id,
        algorithm: s.algorithm,
        speed: 1.0 / s.speed,
        time_unit: 1.0 / s.time_unit,
        orientation,
        chirality: s.chirality,
        distance: s.distance / scale,
        bearing,
        visibility: s.visibility / scale,
    };
    (
        swapped,
        OutcomeTransform {
            time_scale: s.time_unit,
            distance_scale: scale,
        },
    )
}

/// Normalizes gauge freedoms that do not even change the description:
/// angles into `[0, 2π)`, `−0.0 → +0.0`, id dropped.
fn normalize(s: &Scenario) -> Scenario {
    Scenario {
        id: 0,
        algorithm: s.algorithm,
        speed: s.speed + 0.0,
        time_unit: s.time_unit + 0.0,
        orientation: normalize_angle(s.orientation) + 0.0,
        chirality: s.chirality,
        distance: s.distance + 0.0,
        bearing: normalize_angle(s.bearing) + 0.0,
        visibility: s.visibility + 0.0,
    }
}

/// Quantizes every continuous field onto the (power-of-two) grid.
/// Angles are re-normalized afterwards (a value just below `2π` may
/// round up to the seam).
fn quantize_scenario(s: &Scenario, grid: f64) -> Scenario {
    Scenario {
        id: 0,
        algorithm: s.algorithm,
        speed: quantize(s.speed, grid),
        time_unit: quantize(s.time_unit, grid),
        orientation: normalize_angle(quantize(s.orientation, grid)),
        chirality: s.chirality,
        distance: quantize(s.distance, grid),
        bearing: normalize_angle(quantize(s.bearing, grid)),
        visibility: quantize(s.visibility, grid),
    }
}

/// Lexicographic order over the quantized description, used to pick the
/// orbit representative deterministically.
fn order_key(s: &Scenario) -> [u64; 7] {
    // `total_cmp` order == order of the sign-adjusted bit patterns; all
    // fields here are non-negative finite, so raw bits order correctly.
    [
        s.time_unit.to_bits(),
        s.speed.to_bits(),
        s.orientation.to_bits(),
        match s.chirality {
            Chirality::Consistent => 0,
            Chirality::Mirrored => 1,
        },
        s.distance.to_bits(),
        s.bearing.to_bits(),
        s.visibility.to_bits(),
    ]
}

/// Reduces a scenario to its canonical symmetry-orbit representative.
///
/// `grid` is snapped via [`snap_grid`]; pass `0.0` for bit-exact keys.
/// The candidates (the scenario and its [`role_swap`]) are compared
/// *after* quantization, so the ulp-level round-off of reconstructing
/// one description from the other cannot split an orbit across buckets.
///
/// # Example
///
/// ```
/// use rvz_experiments::{canonicalize, ScenarioGrid, DEFAULT_GRID};
///
/// let s = ScenarioGrid::new().speeds(&[0.5]).clocks(&[2.0]).build()[0];
/// let (twin, _) = rvz_experiments::role_swap(&s);
/// let a = canonicalize(&s, DEFAULT_GRID);
/// let b = canonicalize(&twin, DEFAULT_GRID);
/// assert_eq!(a.key, b.key, "orbit mates share one cache entry");
/// assert_ne!(a.swapped, b.swapped);
/// ```
pub fn canonicalize(s: &Scenario, grid: f64) -> Canonical {
    let grid = snap_grid(grid);
    let direct = normalize(s);
    let (swap_raw, swap_transform) = role_swap(&direct);
    let swapped = normalize(&swap_raw);
    let direct_q = quantize_scenario(&direct, grid);
    let swapped_q = quantize_scenario(&swapped, grid);
    if order_key(&swapped_q) < order_key(&direct_q) {
        Canonical {
            scenario: swapped_q,
            swapped: true,
            transform: swap_transform,
            key: CacheKey::of(&swapped_q),
        }
    } else {
        Canonical {
            scenario: direct_q,
            swapped: false,
            transform: OutcomeTransform::IDENTITY,
            key: CacheKey::of(&direct_q),
        }
    }
}

/// The verdict-level orbit key: the full quotient by the paper's
/// attribute symmetries, under which the Theorem 4 feasibility verdict
/// (and the breaker/reason *kind*) is exactly invariant.
///
/// Placement (`d`, `β`, `r`) and the algorithm are dropped entirely
/// (the verdict is placement- and algorithm-free — equivalently, every
/// bearing rotates to a fixed frame and every distance rescales to 1);
/// clock and speed are folded by the reciprocal rescale `x ↦ min(x, 1/x)`;
/// orientation is folded by chirality reflection `φ ↦ min(φ, 2π − φ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrbitKey {
    /// `min(τ, 1/τ)` bits, quantized.
    pub time_unit: u64,
    /// `min(v, 1/v)` bits, quantized.
    pub speed: u64,
    /// `min(φ, 2π − φ)` bits, quantized.
    pub orientation: u64,
    /// Relative chirality (invariant under every symmetry above).
    pub chirality: Chirality,
}

/// Computes the verdict-level [`OrbitKey`] for a scenario's attributes.
pub fn orbit_key(s: &Scenario, grid: f64) -> OrbitKey {
    let grid = snap_grid(grid);
    let fold = |x: f64| quantize(x.min(1.0 / x), grid).to_bits();
    let phi = normalize_angle(s.orientation);
    let phi_folded = phi.min(normalize_angle(-phi));
    OrbitKey {
        time_unit: fold(s.time_unit),
        speed: fold(s.speed),
        orientation: quantize(phi_folded, grid).to_bits(),
        chirality: s.chirality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{latin_hypercube, SampleSpace};
    use rvz_model::feasibility;

    fn sample() -> Vec<Scenario> {
        let space = SampleSpace {
            algorithms: vec![Algorithm::WaitAndSearch, Algorithm::UniversalSearch],
            ..SampleSpace::default()
        };
        latin_hypercube(&space, 64, 2024)
    }

    #[test]
    fn snap_grid_rounds_to_powers_of_two() {
        assert_eq!(snap_grid(1e-9), 2f64.powi(-30));
        assert_eq!(snap_grid(0.125), 0.125);
        assert_eq!(snap_grid(0.1), 0.125);
        assert_eq!(snap_grid(0.0), 0.0);
        assert_eq!(snap_grid(-1.0), 0.0);
        assert_eq!(snap_grid(f64::NAN), 0.0);
        assert_eq!(DEFAULT_GRID, 2f64.powi(-30));
    }

    #[test]
    fn quantize_preserves_dyadic_values_exactly() {
        let g = DEFAULT_GRID;
        for x in [0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 0.1015625] {
            assert_eq!(quantize(x, g).to_bits(), x.to_bits(), "x = {x}");
        }
        assert_eq!(quantize(-0.0, g).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantize(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn quantize_absorbs_ulp_noise() {
        let g = DEFAULT_GRID;
        let x = 0.3f64;
        let noisy = f64::from_bits(x.to_bits() + 1); // one ulp of swap round-off
        assert_ne!(x.to_bits(), noisy.to_bits(), "test needs real noise");
        assert_eq!(quantize(x, g).to_bits(), quantize(noisy, g).to_bits());
    }

    #[test]
    fn role_swap_is_a_mathematical_involution() {
        for s in sample() {
            let (swapped, t) = role_swap(&s);
            let (back, t2) = role_swap(&swapped);
            assert!((back.speed - s.speed).abs() <= 1e-12 * s.speed);
            assert!((back.time_unit - s.time_unit).abs() <= 1e-12 * s.time_unit);
            assert!((back.distance - s.distance).abs() <= 1e-9 * s.distance);
            assert!((back.visibility - s.visibility).abs() <= 1e-9 * s.visibility);
            let wrap = |a: f64| a.min(std::f64::consts::TAU - a);
            assert!(wrap(normalize_angle(back.orientation - s.orientation)) < 1e-9);
            assert!(wrap(normalize_angle(back.bearing - s.bearing)) < 1e-9);
            assert_eq!(back.chirality, s.chirality);
            // The two transforms compose to the identity.
            assert!((t.time_scale * t2.time_scale - 1.0).abs() < 1e-12);
            assert!((t.distance_scale * t2.distance_scale - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn orbit_mates_share_a_cache_key() {
        for s in sample() {
            let (twin, _) = role_swap(&s);
            let a = canonicalize(&s, DEFAULT_GRID);
            let b = canonicalize(&twin, DEFAULT_GRID);
            assert_eq!(a.key, b.key, "orbit split for {s:?}");
            assert_eq!(a.scenario, b.scenario, "representatives differ");
            assert_eq!(a.swapped, !b.swapped);
        }
    }

    #[test]
    fn canonicalize_is_idempotent() {
        for s in sample() {
            let c = canonicalize(&s, DEFAULT_GRID);
            let again = canonicalize(&c.scenario, DEFAULT_GRID);
            assert_eq!(again.key, c.key);
            assert!(
                !again.swapped,
                "a representative re-canonicalizes to itself"
            );
            assert!(again.transform.is_identity());
        }
    }

    #[test]
    fn self_symmetric_scenarios_keep_the_identity_transform() {
        // Exact twins: the swap maps the scenario onto itself (up to the
        // bearing flip), and the unswapped side must win ties.
        let s = Scenario {
            id: 7,
            algorithm: Algorithm::WaitAndSearch,
            speed: 1.0,
            time_unit: 1.0,
            orientation: 0.0,
            chirality: Chirality::Consistent,
            distance: 1.0,
            bearing: 0.0,
            visibility: 0.25,
        };
        let c = canonicalize(&s, DEFAULT_GRID);
        assert_eq!(c.scenario.speed, 1.0);
        assert_eq!(c.scenario.time_unit, 1.0);
        assert!(c.transform.is_identity());
        assert_eq!(c.scenario.id, 0, "the cache key ignores the batch id");
    }

    #[test]
    fn symmetry_boundaries_survive_quantization() {
        // τ = 1, v = 1, φ = 0 are the Theorem 4 boundaries; the
        // power-of-two grid must keep them exact.
        let s = Scenario {
            id: 0,
            algorithm: Algorithm::WaitAndSearch,
            speed: 1.0,
            time_unit: 1.0,
            orientation: 0.0,
            chirality: Chirality::Mirrored,
            distance: 0.9,
            bearing: 0.3,
            visibility: 0.1,
        };
        let c = canonicalize(&s, DEFAULT_GRID);
        assert_eq!(c.scenario.speed.to_bits(), 1.0f64.to_bits());
        assert_eq!(c.scenario.time_unit.to_bits(), 1.0f64.to_bits());
        assert_eq!(c.scenario.orientation.to_bits(), 0.0f64.to_bits());
        assert!(!feasibility(&c.scenario.attributes()).is_feasible());
    }

    #[test]
    fn grid_zero_gives_bit_exact_keys() {
        let mut s = sample()[0];
        let a = canonicalize(&s, 0.0);
        s.speed = f64::from_bits(s.speed.to_bits() + 1);
        let b = canonicalize(&s, 0.0);
        assert_ne!(a.key, b.key, "bit-exact mode must distinguish ulps");
    }

    #[test]
    fn verdict_is_invariant_over_the_full_orbit() {
        for s in sample() {
            let base = feasibility(&s.attributes());
            let key = orbit_key(&s, DEFAULT_GRID);

            // Role swap.
            let (twin, _) = role_swap(&s);
            assert_eq!(orbit_key(&twin, DEFAULT_GRID), key, "swap split {s:?}");
            assert_eq!(
                feasibility(&twin.attributes()).is_feasible(),
                base.is_feasible()
            );

            // Chirality reflection: both robots reflected, φ → −φ.
            let reflected = Scenario {
                orientation: normalize_angle(-s.orientation),
                bearing: normalize_angle(-s.bearing),
                ..s
            };
            assert_eq!(
                orbit_key(&reflected, DEFAULT_GRID),
                key,
                "reflection split {s:?}"
            );
            assert_eq!(
                feasibility(&reflected.attributes()).is_feasible(),
                base.is_feasible()
            );

            // Placement changes never move the verdict orbit.
            let moved = Scenario {
                distance: s.distance * 3.0,
                bearing: normalize_angle(s.bearing + 1.0),
                visibility: s.visibility * 0.5,
                ..s
            };
            assert_eq!(orbit_key(&moved, DEFAULT_GRID), key);

            // Per-axis reciprocal rescale (verdict-level only).
            let clock_flipped = Scenario {
                time_unit: 1.0 / s.time_unit,
                ..s
            };
            assert_eq!(orbit_key(&clock_flipped, DEFAULT_GRID), key);
            assert_eq!(
                feasibility(&clock_flipped.attributes()).is_feasible(),
                base.is_feasible()
            );
        }
    }

    #[test]
    fn transform_applies_to_every_outcome_variant() {
        let t = OutcomeTransform {
            time_scale: 2.0,
            distance_scale: 0.5,
        };
        assert_eq!(
            t.apply(SimOutcome::Contact {
                time: 3.0,
                distance: 0.2,
                steps: 7
            }),
            SimOutcome::Contact {
                time: 6.0,
                distance: 0.1,
                steps: 7
            }
        );
        assert_eq!(
            t.apply(SimOutcome::Horizon {
                min_distance: 1.0,
                min_distance_time: 4.0,
                steps: 9
            }),
            SimOutcome::Horizon {
                min_distance: 0.5,
                min_distance_time: 8.0,
                steps: 9
            }
        );
        assert_eq!(
            t.apply(SimOutcome::StepBudget {
                time: 10.0,
                min_distance: 2.0,
                steps: 11
            }),
            SimOutcome::StepBudget {
                time: 20.0,
                min_distance: 1.0,
                steps: 11
            }
        );
        assert!(OutcomeTransform::IDENTITY.is_identity());
        assert!(!t.is_identity());
    }

    #[test]
    fn cache_key_mix_is_deterministic_and_spread() {
        let scenarios = sample();
        let mixes: Vec<u64> = scenarios
            .iter()
            .map(|s| canonicalize(s, DEFAULT_GRID).key.mix())
            .collect();
        let mixes2: Vec<u64> = scenarios
            .iter()
            .map(|s| canonicalize(s, DEFAULT_GRID).key.mix())
            .collect();
        assert_eq!(mixes, mixes2);
        let distinct: std::collections::HashSet<u64> = mixes.iter().copied().collect();
        assert!(distinct.len() > scenarios.len() / 2, "mix collides heavily");
    }

    /// The mix picks cache shards and so the snapshot's eviction order:
    /// it must stay bit for bit the hand-written SplitMix64 finalizer
    /// fold it was first defined as.
    #[test]
    fn cache_key_mix_keeps_its_original_formula() {
        fn finalizer(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        let original = |k: &CacheKey| {
            let mut h: u64 = match k.algorithm {
                Algorithm::WaitAndSearch => 0x9e37,
                Algorithm::UniversalSearch => 0x79b9,
            };
            h ^= match k.chirality {
                Chirality::Consistent => 0x1,
                Chirality::Mirrored => 0x2,
            };
            k.bits.iter().fold(h, |h, &b| finalizer(h ^ b))
        };
        let mut rng = SplitMix64::new(0x5EED_CAFE);
        for i in 0..10_000 {
            let key = CacheKey {
                algorithm: [Algorithm::WaitAndSearch, Algorithm::UniversalSearch][i % 2],
                chirality: [Chirality::Consistent, Chirality::Mirrored][(i / 2) % 2],
                bits: std::array::from_fn(|_| rng.next_u64()),
            };
            assert_eq!(key.mix(), original(&key), "{key:?}");
        }
        let reference = CacheKey::of(&Scenario::REFERENCE);
        assert_eq!(reference.mix(), original(&reference));
    }
}
