//! Pins the engine's output bytes: the JSONL of a small fixed sweep and
//! one served `/first-contact` body, hashed and compared with
//! [`ENGINE_BYTES_DIGEST`].
//!
//! Checkpoint journals and serve snapshots hold engine output, so a
//! change to those bytes must bump `JOURNAL_VERSION`, the one version
//! both formats share, or a resumed sweep and a restored cache would
//! mix old bytes with new ones. This test fails on any such change
//! until the same change updates the digest, which is the reminder to
//! bump the version. The sweep covers τ = 1 and τ ≠ 1, both
//! algorithms, feasible pairs, an exact twin and a mirror twin, at the
//! default depth. Debug and release builds must agree (`ci.sh` runs
//! the release build).

use plane_rendezvous::experiments::durable::{fnv1a64, FNV_OFFSET_BASIS};
use plane_rendezvous::experiments::{
    run_sweep, write_jsonl, Algorithm, ScenarioGrid, SweepOptions, ENGINE_BYTES_DIGEST,
};
use plane_rendezvous::model::Chirality;
use plane_rendezvous::server::{Request, Service, ServiceOptions};

/// The sweep's JSONL: v ∈ {0.5, 1} × τ ∈ {0.6, 1} × χ = ±1 × both
/// algorithms, φ = 0. The v = 1, τ = 1 cells are the exact twin
/// (χ = +1) and the mirror twin (χ = −1).
fn sweep_jsonl() -> Vec<u8> {
    let scenarios = ScenarioGrid::new()
        .algorithms(&Algorithm::ALL)
        .speeds(&[0.5, 1.0])
        .clocks(&[0.6, 1.0])
        .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
        .distances(&[0.9])
        .visibilities(&[0.25])
        .build();
    let records = run_sweep(&scenarios, &SweepOptions::default());
    let mut out = Vec::new();
    write_jsonl(&mut out, &records).unwrap();
    out
}

/// One `/first-contact` body served by a default service (a miss).
fn served_body() -> Vec<u8> {
    let service = Service::new(ServiceOptions::default());
    let (response, _) = service.handle(&Request {
        method: "POST".to_string(),
        path: "/first-contact".to_string(),
        query: Vec::new(),
        headers: Default::default(),
        body: br#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#.to_vec(),
    });
    assert_eq!(response.status, 200, "{}", response.body);
    response.body.into_bytes()
}

#[test]
fn engine_output_bytes_match_the_pinned_digest() {
    let sweep = sweep_jsonl();
    let body = served_body();
    let digest = fnv1a64(&body, fnv1a64(&sweep, FNV_OFFSET_BASIS));
    assert_eq!(
        digest,
        ENGINE_BYTES_DIGEST,
        "engine output bytes changed (digest {digest:#018x}): bump JOURNAL_VERSION, then \
         update ENGINE_BYTES_DIGEST\nsweep:\n{}\nserved: {}",
        String::from_utf8_lossy(&sweep),
        String::from_utf8_lossy(&body),
    );
}
