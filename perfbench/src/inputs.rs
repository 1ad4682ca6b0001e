//! Seeded workload inputs. Every generator is a pure function of its
//! arguments: the same seed yields the same scenarios in the same order.

use rvz_experiments::{latin_hypercube, Algorithm, Json, SampleSpace, Scenario, SplitMix64};
use rvz_model::{feasibility, Chirality};
use std::f64::consts::TAU;

/// Visibility radius shared by every generated scenario.
const RADIUS: f64 = 0.1;

/// A feasible instance from ranges in which every draw meets within
/// `completion_time(3)`: the partner is strictly slower and its clock
/// strictly faster, so both symmetry breakers are far from degenerate.
fn feasible(rng: &mut SplitMix64, algorithm: Algorithm) -> Scenario {
    Scenario {
        id: 0,
        algorithm,
        speed: rng.next_range(0.3, 0.9),
        time_unit: rng.next_range(0.4, 0.9),
        orientation: rng.next_range(0.0, TAU),
        chirality: chirality(rng),
        distance: rng.next_range(0.5, 2.0),
        bearing: rng.next_range(0.0, TAU),
        visibility: RADIUS,
    }
}

fn chirality(rng: &mut SplitMix64) -> Chirality {
    if rng.next_below(2) == 0 {
        Chirality::Consistent
    } else {
        Chirality::Mirrored
    }
}

/// `count` infeasible twins (Theorem 4) of one class: exact twins
/// (`v = τ = 1`, `φ = 0`, `χ = +1`) or mirror twins (`χ = −1`) placed
/// along their invariant direction `φ/2`, so the engine must disprove
/// contact to the horizon. A twin's cost depends on its distance and its
/// free angle (bearing or `φ`), so both are stratified: one draw per
/// stratum, paired at random, as in a Latin hypercube. The class's total
/// work then hardly depends on the seed.
fn twins(rng: &mut SplitMix64, algorithm: Algorithm, mirror: bool, count: usize) -> Vec<Scenario> {
    let distances = strata(rng, 0.5, 2.0, count);
    let (lo, hi) = if mirror { (0.4, TAU - 0.4) } else { (0.0, TAU) };
    let angles = strata(rng, lo, hi, count);
    distances
        .into_iter()
        .zip(angles)
        .map(|(distance, angle)| {
            let (orientation, chirality, bearing) = if mirror {
                (angle, Chirality::Mirrored, angle / 2.0)
            } else {
                (0.0, Chirality::Consistent, angle)
            };
            Scenario {
                id: 0,
                algorithm,
                speed: 1.0,
                time_unit: 1.0,
                orientation,
                chirality,
                distance,
                bearing,
                visibility: RADIUS,
            }
        })
        .collect()
}

/// One uniform draw from each of `n` equal strata of `[lo, hi)`, in
/// seeded random order.
fn strata(rng: &mut SplitMix64, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    let mut out: Vec<f64> = (0..n)
        .map(|k| lo + width * (k as f64 + rng.next_f64()))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Twins for every index in `0..count`, where `class(i)` names the
/// algorithm and whether the `i`-th twin is a mirror twin; each class is
/// stratified on its own ([`twins`]).
fn twin_classes(
    rng: &mut SplitMix64,
    count: usize,
    class: impl Fn(usize) -> (Algorithm, bool),
) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(count);
    for algorithm in Algorithm::ALL {
        for mirror in [false, true] {
            let size = (0..count)
                .filter(|&i| class(i) == (algorithm, mirror))
                .count();
            out.extend(twins(rng, algorithm, mirror, size));
        }
    }
    out
}

/// `n` scenarios in `parts` consecutive parts, each made by
/// `make(size, rng)` from its own stream and shuffled on its own, then
/// numbered in order. Every part holds the same mix.
fn in_parts(
    n: usize,
    parts: usize,
    seed: u64,
    make: impl Fn(usize, &mut SplitMix64) -> Vec<Scenario>,
) -> Vec<Scenario> {
    let root = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n);
    for r in 0..parts {
        let size = n * (r + 1) / parts - n * r / parts;
        let mut rng = root.split(r as u64);
        let mut part = make(size, &mut rng);
        rng.shuffle(&mut part);
        out.extend(part);
    }
    renumber(&mut out);
    out
}

/// The serve mix's algorithm for the `i`-th scenario of a class: one in
/// four runs Algorithm 4, the rest the universal Algorithm 7. The two
/// algorithms cost different amounts per request, and an even split
/// would put the median on the boundary between their modes.
fn serve_algorithm(i: usize) -> Algorithm {
    if i % 4 == 3 {
        Algorithm::UniversalSearch
    } else {
        Algorithm::WaitAndSearch
    }
}

/// `n` scenarios of which `twins_per_100` percent (rounded down) are
/// infeasible twins, half exact and half mirror, and the rest feasible,
/// shuffled by the seed. Class sizes are exact for every seed; only the
/// draws within a class depend on it.
pub fn serve_mix(n: usize, twins_per_100: usize, seed: u64) -> Vec<Scenario> {
    in_parts(n, 1, seed, |size, rng| {
        let count = size * twins_per_100 / 100;
        let mut out = twin_classes(rng, count, |i| (serve_algorithm(i / 2), i % 2 == 1));
        out.extend((0..size - count).map(|i| feasible(rng, serve_algorithm(i))));
        out
    })
}

/// The sweep input in `parts` parts ([`in_parts`]): each a seeded
/// Latin-hypercube sample over both algorithms plus one infeasible twin
/// in twenty (exact and mirror, both algorithms, in equal shares).
///
/// The speed and clock ranges keep the partner strictly slower with a
/// strictly faster clock (as in [`serve_mix`]), so every feasible draw
/// meets within the default depth and step budget.
pub fn sweep_mix(n: usize, seed: u64, parts: usize) -> Vec<Scenario> {
    let space = SampleSpace {
        speed: (0.3, 0.9),
        time_unit: (0.4, 0.9),
        algorithms: Algorithm::ALL.to_vec(),
        visibility: RADIUS,
        ..SampleSpace::default()
    };
    in_parts(n, parts, seed, |size, rng| {
        let count = size / 20;
        let mut out = latin_hypercube(&space, size - count, rng.next_u64());
        out.extend(twin_classes(rng, count, |i| {
            (Algorithm::ALL[i / 2 % 2], i % 2 == 1)
        }));
        out
    })
}

fn renumber(scenarios: &mut [Scenario]) {
    for (i, s) in scenarios.iter_mut().enumerate() {
        s.id = i as u64;
    }
}

/// Theorem 4's verdict for a scenario.
pub fn is_feasible(s: &Scenario) -> bool {
    feasibility(&s.attributes()).is_feasible()
}

/// The `POST /first-contact` body describing `s` (shortest round-trip
/// floats, so the server decodes exactly `s`).
pub fn body(s: &Scenario) -> String {
    Json::obj(vec![
        ("algorithm", Json::Str(s.algorithm.to_string())),
        ("speed", Json::Num(s.speed)),
        ("time_unit", Json::Num(s.time_unit)),
        ("orientation", Json::Num(s.orientation)),
        ("chirality", Json::Str(s.chirality.to_string())),
        ("distance", Json::Num(s.distance)),
        ("bearing", Json::Num(s.bearing)),
        ("visibility", Json::Num(s.visibility)),
    ])
    .render()
}

/// The raw HTTP/1.1 request bytes the client sends for `body`, for
/// replaying the server's parse step.
pub fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /first-contact HTTP/1.1\r\nHost: rvz\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}
