//! Crash-safe cache snapshots: persist the symmetry-canonicalized
//! result cache across restarts.
//!
//! ## Why this is sound
//!
//! A [`CacheKey`] *is* the canonical scenario — the exact bit patterns
//! of every attribute of the orbit representative — and a cached
//! [`SimOutcome`] is a pure function of that key under the service's
//! engine options. A snapshot therefore never goes stale: restoring an
//! entry is byte-identical to recomputing it, **provided the engine
//! configuration matches**. The configuration is pinned by an engine
//! fingerprint in the snapshot's first record; a mismatch (different
//! grid, horizon, tolerance, step budget, prune flag or piece budget)
//! cold-starts rather than serving answers computed under different
//! options.
//!
//! ## Format
//!
//! ```text
//! "RVZSNAP1"  magic, 8 bytes
//! version     u32 LE
//! record*     len u32 LE | crc32 u32 LE | payload (len bytes)
//! ```
//!
//! Payload kinds (first byte): `0` = meta (engine fingerprint plus
//! the expected result count, must be the first record), `1` = result
//! entry (key + outcome, fixed width). The count lets a restore tell a complete-but-small snapshot apart from
//! one truncated exactly at a record boundary (which CRC framing alone
//! cannot see). Records appear in cache recency order
//! (least- to most-recent per shard), so replaying inserts reproduces
//! every shard's LRU list exactly.
//!
//! ## Crash consistency
//!
//! Writing goes through [`DurableFile`]: temp sibling + `fsync` +
//! atomic rename, so a reader only ever sees a complete previous
//! snapshot or a complete new one. Reading still assumes nothing: a
//! torn, truncated, bit-flipped or version-skewed file is detected
//! per-record (length framing + CRC), the valid prefix is salvaged,
//! and the outcome is reported as `cold`, `warm` or `salvaged n` — the
//! server never refuses to start over a bad snapshot.

use rvz_experiments::durable::{crc32, fnv1a64, read_file_faulty, DurableFile, FNV_OFFSET_BASIS};
use rvz_experiments::{Algorithm, CacheKey, Faults};
use rvz_model::Chirality;
use rvz_sim::SimOutcome;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RVZSNAP1";

/// Snapshot format version, bumped on any layout change and whenever
/// the bytes a miss computes change. Version 6 caches outcomes from an
/// engine with the curvature certificate in its step ladder (`steps`
/// change, contact times and distances move within the declaration
/// slack), so a version 5 file cold-starts rather than serving stale
/// bytes. Version 5 cached outcomes from an engine whose `Vec2::norm`
/// is `√(x² + y²)` rather than `hypot`, so a version 4 file cold-starts
/// too.
/// Version 4 cached τ = 1 outcomes computed on the Lemma 4 relative
/// trajectory, so a version 3 file (two cursors) cold-starts too;
/// version 3 dropped the program-key record kind and its count in the
/// meta record, so a version 1 or 2 file cold-starts rather than
/// misparses. A change to
/// [`rvz_experiments::ENGINE_BYTES_DIGEST`] goes with a bump here.
pub const SNAPSHOT_VERSION: u32 = 6;

const KIND_META: u8 = 0;
const KIND_RESULT: u8 = 1;

/// Meta payload: kind byte, engine fingerprint, result count.
const META_BYTES: usize = 1 + 8 + 4;

/// Everything a snapshot persists: result-cache entries in recency
/// order (least- to most-recently-used per shard).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotData {
    /// Result-cache entries. Deadline outcomes are never included (they
    /// are wall-clock artifacts and are never cached to begin with).
    pub results: Vec<(CacheKey, SimOutcome)>,
}

/// How a boot-time restore went; reported in the banner and `/stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// Nothing restored. The reason distinguishes the benign case (no
    /// snapshot yet) from rejection (corrupt header, version skew,
    /// fingerprint mismatch).
    Cold {
        /// Why the restore produced nothing.
        reason: String,
    },
    /// The whole snapshot decoded cleanly.
    Warm {
        /// Result entries restored.
        results: usize,
    },
    /// A valid prefix was restored; the damaged tail was discarded.
    Salvaged {
        /// Result entries restored.
        results: usize,
        /// Bytes discarded after the last valid record.
        dropped_bytes: usize,
    },
}

impl RestoreOutcome {
    /// The compact `cold|warm|salvaged {n}` label used by the boot
    /// banner and `/stats`.
    pub fn label(&self) -> String {
        match self {
            RestoreOutcome::Cold { .. } => "cold".to_string(),
            RestoreOutcome::Warm { .. } => "warm".to_string(),
            RestoreOutcome::Salvaged { results, .. } => format!("salvaged {results}"),
        }
    }

    /// Result entries restored.
    pub fn entries(&self) -> usize {
        match self {
            RestoreOutcome::Cold { .. } => 0,
            RestoreOutcome::Warm { results } | RestoreOutcome::Salvaged { results, .. } => *results,
        }
    }
}

impl std::fmt::Display for RestoreOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreOutcome::Cold { reason } => write!(f, "cold ({reason})"),
            RestoreOutcome::Warm { results } => write!(f, "warm ({results} results)"),
            RestoreOutcome::Salvaged {
                results,
                dropped_bytes,
            } => write!(
                f,
                "salvaged {results} ({dropped_bytes} damaged bytes dropped)"
            ),
        }
    }
}

/// Digest of the engine configuration a snapshot's entries were
/// computed under. Anything that can change a cached byte is folded
/// in: the canonicalization grid, the engine window and budgets, the
/// prune flag, and the compiled-path piece budget (compiled and cursor
/// paths agree only to ~1e-6, so byte-identity needs the same path
/// selection).
pub fn engine_fingerprint(
    cache_grid: f64,
    contact: &rvz_sim::ContactOptions,
    compile_pieces: usize,
) -> u64 {
    let mut h = FNV_OFFSET_BASIS;
    for x in [
        SNAPSHOT_VERSION as u64,
        cache_grid.to_bits(),
        contact.tolerance.to_bits(),
        contact.horizon.to_bits(),
        contact.max_steps,
        contact.prune as u64,
        compile_pieces as u64,
    ] {
        h = fnv1a64(&x.to_le_bytes(), h);
    }
    h
}

fn push_key(buf: &mut Vec<u8>, key: &CacheKey) {
    buf.push(match key.algorithm {
        Algorithm::WaitAndSearch => 0,
        Algorithm::UniversalSearch => 1,
    });
    buf.push(match key.chirality {
        Chirality::Consistent => 0,
        Chirality::Mirrored => 1,
    });
    for b in key.bits {
        buf.extend_from_slice(&b.to_le_bytes());
    }
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("length checked"))
}

const KEY_BYTES: usize = 2 + 6 * 8;

fn parse_key(buf: &[u8]) -> Option<CacheKey> {
    if buf.len() < KEY_BYTES {
        return None;
    }
    let algorithm = match buf[0] {
        0 => Algorithm::WaitAndSearch,
        1 => Algorithm::UniversalSearch,
        _ => return None,
    };
    let chirality = match buf[1] {
        0 => Chirality::Consistent,
        1 => Chirality::Mirrored,
        _ => return None,
    };
    let mut bits = [0u64; 6];
    for (i, b) in bits.iter_mut().enumerate() {
        *b = read_u64(buf, 2 + 8 * i);
    }
    Some(CacheKey {
        algorithm,
        chirality,
        bits,
    })
}

/// Outcome tag + three fixed-width words. Deadline outcomes have no
/// encoding on purpose: they must never be persisted.
fn push_outcome(buf: &mut Vec<u8>, outcome: &SimOutcome) -> bool {
    let (tag, a, b, steps) = match *outcome {
        SimOutcome::Contact {
            time,
            distance,
            steps,
        } => (0u8, time, distance, steps),
        SimOutcome::Horizon {
            min_distance,
            min_distance_time,
            steps,
        } => (1, min_distance, min_distance_time, steps),
        SimOutcome::StepBudget {
            time,
            min_distance,
            steps,
        } => (2, time, min_distance, steps),
        SimOutcome::Deadline { .. } => return false,
    };
    buf.push(tag);
    buf.extend_from_slice(&a.to_bits().to_le_bytes());
    buf.extend_from_slice(&b.to_bits().to_le_bytes());
    buf.extend_from_slice(&steps.to_le_bytes());
    true
}

const OUTCOME_BYTES: usize = 1 + 3 * 8;

fn parse_outcome(buf: &[u8]) -> Option<SimOutcome> {
    if buf.len() < OUTCOME_BYTES {
        return None;
    }
    let a = f64::from_bits(read_u64(buf, 1));
    let b = f64::from_bits(read_u64(buf, 9));
    let steps = read_u64(buf, 17);
    Some(match buf[0] {
        0 => SimOutcome::Contact {
            time: a,
            distance: b,
            steps,
        },
        1 => SimOutcome::Horizon {
            min_distance: a,
            min_distance_time: b,
            steps,
        },
        2 => SimOutcome::StepBudget {
            time: a,
            min_distance: b,
            steps,
        },
        _ => return None, // Deadline (or garbage) must not be restored.
    })
}

fn push_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serializes a snapshot to bytes (pure; see [`write_snapshot`] for
/// the durable path).
pub fn encode_snapshot(fingerprint: u64, data: &SnapshotData) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        8 + 4 + (8 + META_BYTES) + (8 + 1 + KEY_BYTES + OUTCOME_BYTES) * data.results.len(),
    );
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    let mut meta = vec![KIND_META];
    meta.extend_from_slice(&fingerprint.to_le_bytes());
    let persisted_results = data
        .results
        .iter()
        .filter(|(_, o)| !matches!(o, SimOutcome::Deadline { .. }))
        .count();
    meta.extend_from_slice(&(persisted_results as u32).to_le_bytes());
    push_record(&mut out, &meta);
    let mut payload = Vec::with_capacity(1 + KEY_BYTES + OUTCOME_BYTES);
    for (key, outcome) in &data.results {
        payload.clear();
        payload.push(KIND_RESULT);
        push_key(&mut payload, key);
        if !push_outcome(&mut payload, outcome) {
            continue; // deadline outcome: skip, never persist
        }
        push_record(&mut out, &payload);
    }
    out
}

/// Writes a snapshot durably: encode, stage to `<path>.tmp`, `fsync`,
/// atomically rename over `path`.
///
/// # Errors
///
/// On any failure (including injected disk faults) the previous
/// snapshot at `path` is left intact.
pub fn write_snapshot(
    path: &Path,
    fingerprint: u64,
    data: &SnapshotData,
    faults: Option<Arc<Faults>>,
) -> io::Result<()> {
    let bytes = encode_snapshot(fingerprint, data);
    let mut file = DurableFile::create(path, faults)?;
    file.write_all(&bytes)?;
    file.commit()
}

/// Decodes a snapshot image, salvaging the valid record prefix.
pub fn decode_snapshot(bytes: &[u8], fingerprint: u64) -> (SnapshotData, RestoreOutcome) {
    let cold = |reason: &str| {
        (
            SnapshotData::default(),
            RestoreOutcome::Cold {
                reason: reason.to_string(),
            },
        )
    };
    if bytes.len() < 12 {
        return cold("snapshot too short for a header");
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return cold("bad magic (not a snapshot file)");
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
    if version != SNAPSHOT_VERSION {
        return cold(&format!(
            "snapshot version {version}, this build reads {SNAPSHOT_VERSION}"
        ));
    }
    let mut data = SnapshotData::default();
    let mut offset = 12usize;
    let mut first = true;
    let mut clean = true;
    let mut expected = 0usize;
    while offset < bytes.len() {
        let Some(payload) = next_record(bytes, &mut offset) else {
            clean = false;
            break;
        };
        let ok = match payload.first() {
            Some(&KIND_META) if first => {
                if payload.len() != META_BYTES {
                    return cold("malformed meta record");
                }
                let stored = read_u64(payload, 1);
                if stored != fingerprint {
                    return cold(
                        "engine fingerprint mismatch (grid or engine options changed); \
                         snapshot entries would not be byte-identical to recompute",
                    );
                }
                expected =
                    u32::from_le_bytes(payload[9..13].try_into().expect("length checked")) as usize;
                true
            }
            Some(&KIND_RESULT) if !first => decode_result(payload, &mut data),
            _ => false,
        };
        if !ok {
            clean = false;
            break;
        }
        first = false;
    }
    if first {
        // Header but no meta record: nothing trustworthy.
        return cold("snapshot holds no meta record");
    }
    if clean && expected == data.results.len() {
        let outcome = RestoreOutcome::Warm {
            results: data.results.len(),
        };
        (data, outcome)
    } else {
        // Either a record failed its frame check, or the file ended
        // cleanly but short of the count the meta record promised
        // (truncation at a record boundary).
        let outcome = RestoreOutcome::Salvaged {
            results: data.results.len(),
            dropped_bytes: bytes.len() - offset,
        };
        (data, outcome)
    }
}

/// Pulls the next CRC-validated record payload, advancing `offset`
/// only on success (so a salvage can report where the valid prefix
/// ends).
fn next_record<'a>(bytes: &'a [u8], offset: &mut usize) -> Option<&'a [u8]> {
    let at = *offset;
    if bytes.len() - at < 8 {
        return None; // torn length/crc prefix
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("length checked")) as usize;
    let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("length checked"));
    let start = at + 8;
    let end = start.checked_add(len)?;
    if end > bytes.len() {
        return None; // torn payload
    }
    let payload = &bytes[start..end];
    if crc32(payload) != crc {
        return None; // corruption
    }
    *offset = end;
    Some(payload)
}

fn decode_result(payload: &[u8], data: &mut SnapshotData) -> bool {
    if payload.len() != 1 + KEY_BYTES + OUTCOME_BYTES {
        return false;
    }
    let Some(key) = parse_key(&payload[1..]) else {
        return false;
    };
    let Some(outcome) = parse_outcome(&payload[1 + KEY_BYTES..]) else {
        return false;
    };
    data.results.push((key, outcome));
    true
}

/// Reads and decodes the snapshot at `path`, degrading gracefully: any
/// failure (missing file, injected read corruption, torn content)
/// produces a `Cold`/`Salvaged` outcome, never an error — boot must
/// proceed regardless.
pub fn read_snapshot(
    path: &Path,
    fingerprint: u64,
    faults: Option<&Arc<Faults>>,
) -> (SnapshotData, RestoreOutcome) {
    match read_file_faulty(path, faults) {
        Ok(bytes) => decode_snapshot(&bytes, fingerprint),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (
            SnapshotData::default(),
            RestoreOutcome::Cold {
                reason: "no snapshot yet".to_string(),
            },
        ),
        Err(e) => (
            SnapshotData::default(),
            RestoreOutcome::Cold {
                reason: format!("cannot read snapshot: {e}"),
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_experiments::{canonicalize, ScenarioGrid, DEFAULT_GRID};

    fn keys(n: usize) -> Vec<CacheKey> {
        let speeds: Vec<f64> = (0..n).map(|i| 0.25 + 0.015625 * i as f64).collect();
        ScenarioGrid::new()
            .speeds(&speeds)
            .build()
            .iter()
            .map(|s| canonicalize(s, DEFAULT_GRID).key)
            .collect()
    }

    fn sample() -> SnapshotData {
        let ks = keys(3);
        SnapshotData {
            results: vec![
                (
                    ks[0],
                    SimOutcome::Contact {
                        time: 1.25,
                        distance: 0.0078125,
                        steps: 42,
                    },
                ),
                (
                    ks[1],
                    SimOutcome::Horizon {
                        min_distance: 0.5,
                        min_distance_time: 3.5,
                        steps: 1000,
                    },
                ),
                (
                    ks[2],
                    SimOutcome::StepBudget {
                        time: 9.0,
                        min_distance: 0.125,
                        steps: 300_000,
                    },
                ),
            ],
        }
    }

    const FP: u64 = 0xDEAD_BEEF_0BAD_F00D;

    #[test]
    fn round_trip_is_exact_and_warm() {
        let data = sample();
        let bytes = encode_snapshot(FP, &data);
        let (back, outcome) = decode_snapshot(&bytes, FP);
        assert_eq!(back, data, "bit patterns survive exactly");
        assert_eq!(outcome, RestoreOutcome::Warm { results: 3 });
        assert_eq!(outcome.label(), "warm");
        assert_eq!(outcome.entries(), 3);
    }

    #[test]
    fn every_truncation_point_salvages_a_valid_prefix() {
        let data = sample();
        let bytes = encode_snapshot(FP, &data);
        for cut in 0..bytes.len() {
            let (partial, outcome) = decode_snapshot(&bytes[..cut], FP);
            // Salvage must never fabricate entries...
            assert!(partial.results.len() <= data.results.len());
            // ...and every salvaged entry must be a true prefix.
            assert_eq!(partial.results[..], data.results[..partial.results.len()]);
            match outcome {
                RestoreOutcome::Warm { .. } => {
                    assert_eq!(cut, bytes.len(), "only the full file is warm")
                }
                RestoreOutcome::Cold { .. } => {
                    assert_eq!(partial.results.len(), 0, "cold restores nothing")
                }
                RestoreOutcome::Salvaged { .. } => {}
            }
        }
        // The untruncated file is warm.
        assert!(matches!(
            decode_snapshot(&bytes, FP).1,
            RestoreOutcome::Warm { .. }
        ));
    }

    #[test]
    fn single_bit_corruption_is_caught_at_the_damaged_record() {
        let data = sample();
        let clean = encode_snapshot(FP, &data);
        // Flip a byte inside the *second* result record's payload:
        // header (12) + meta record (8 + META_BYTES) + first result record
        // (8 + 1 + KEY_BYTES + OUTCOME_BYTES) puts us at its frame.
        let mut bytes = clean.clone();
        let second_record = 12 + (8 + META_BYTES) + (8 + 1 + KEY_BYTES + OUTCOME_BYTES);
        bytes[second_record + 8 + 10] ^= 0x10;
        let (partial, outcome) = decode_snapshot(&bytes, FP);
        match outcome {
            RestoreOutcome::Salvaged {
                results,
                dropped_bytes,
                ..
            } => {
                assert_eq!(
                    results, 1,
                    "the first record survives, the damaged one stops"
                );
                assert!(dropped_bytes > 0);
            }
            other => panic!("expected salvage, got {other:?}"),
        }
        assert_eq!(partial.results[..], data.results[..partial.results.len()]);
        assert!(outcome.label().starts_with("salvaged "));
    }

    #[test]
    fn version_and_fingerprint_skew_cold_start() {
        let data = sample();
        let bytes = encode_snapshot(FP, &data);

        let (d, o) = decode_snapshot(&bytes, FP ^ 1);
        assert_eq!(d, SnapshotData::default());
        assert!(
            matches!(&o, RestoreOutcome::Cold { reason } if reason.contains("fingerprint")),
            "{o:?}"
        );

        let mut skewed = bytes.clone();
        skewed[8] = 0xFF; // version
        let (_, o) = decode_snapshot(&skewed, FP);
        assert!(
            matches!(&o, RestoreOutcome::Cold { reason } if reason.contains("version")),
            "{o:?}"
        );

        // Version 1 files (entries the retired scalar tier may have
        // answered), version 2 files (a meta record with a program
        // count), version 3 files (τ = 1 entries from two cursors) and
        // version 4 files (distances through `hypot`) cold-start too.
        for old in [1u32, 2, 3, 4] {
            let mut previous = bytes.clone();
            previous[8..12].copy_from_slice(&old.to_le_bytes());
            let (d, o) = decode_snapshot(&previous, FP);
            assert_eq!(d, SnapshotData::default());
            let expected = format!("snapshot version {old}");
            assert!(
                matches!(&o, RestoreOutcome::Cold { reason } if reason.contains(&expected)),
                "{o:?}"
            );
        }

        let (_, o) = decode_snapshot(b"not a snapshot at all", FP);
        assert!(matches!(&o, RestoreOutcome::Cold { reason } if reason.contains("magic")));
        let (_, o) = decode_snapshot(b"", FP);
        assert!(matches!(o, RestoreOutcome::Cold { .. }));
        assert_eq!(o.label(), "cold");
    }

    #[test]
    fn deadline_outcomes_are_never_encoded() {
        let ks = keys(2);
        let data = SnapshotData {
            results: vec![
                (
                    ks[0],
                    SimOutcome::Deadline {
                        time: 1.0,
                        min_distance: 0.5,
                        steps: 10,
                    },
                ),
                (
                    ks[1],
                    SimOutcome::Contact {
                        time: 2.0,
                        distance: 0.25,
                        steps: 7,
                    },
                ),
            ],
        };
        let bytes = encode_snapshot(FP, &data);
        let (back, outcome) = decode_snapshot(&bytes, FP);
        assert_eq!(back.results.len(), 1, "only the contact survives");
        assert!(matches!(back.results[0].1, SimOutcome::Contact { .. }));
        assert!(matches!(outcome, RestoreOutcome::Warm { .. }));
    }

    #[test]
    fn durable_write_then_read_round_trips_and_survives_torn_rename() {
        use rvz_experiments::{FaultPlan, FaultSite};
        let dir = std::env::temp_dir().join(format!(
            "rvz-snapshot-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");
        let data = sample();
        write_snapshot(&path, FP, &data, None).unwrap();
        let (back, outcome) = read_snapshot(&path, FP, None);
        assert_eq!(back, data);
        assert!(matches!(outcome, RestoreOutcome::Warm { .. }));

        // A torn rename during the *next* snapshot keeps the old one.
        let faults = Arc::new(Faults::new(FaultPlan {
            seed: 5,
            torn_rename: 1.0,
            limit: 1,
            ..FaultPlan::default()
        }));
        let bigger = SnapshotData {
            results: keys(8)
                .into_iter()
                .map(|key| {
                    let outcome = SimOutcome::Contact {
                        time: 1.0,
                        distance: 0.25,
                        steps: 3,
                    };
                    (key, outcome)
                })
                .collect(),
        };
        assert!(write_snapshot(&path, FP, &bigger, Some(Arc::clone(&faults))).is_err());
        assert_eq!(faults.injected(FaultSite::TornRename), 1);
        let (back, outcome) = read_snapshot(&path, FP, None);
        assert_eq!(back, data, "previous snapshot intact after the fault");
        assert!(matches!(outcome, RestoreOutcome::Warm { .. }));

        // Missing file is a benign cold start.
        let (_, outcome) = read_snapshot(&dir.join("absent.snap"), FP, None);
        assert!(
            matches!(&outcome, RestoreOutcome::Cold { reason } if reason.contains("no snapshot")),
            "{outcome:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_covers_every_engine_knob() {
        let contact = rvz_sim::ContactOptions::default();
        let base = engine_fingerprint(DEFAULT_GRID, &contact, 1024);
        assert_eq!(base, engine_fingerprint(DEFAULT_GRID, &contact, 1024));
        assert_ne!(base, engine_fingerprint(DEFAULT_GRID / 2.0, &contact, 1024));
        assert_ne!(base, engine_fingerprint(DEFAULT_GRID, &contact, 0));
        for mutate in [
            |c: &mut rvz_sim::ContactOptions| c.tolerance *= 2.0,
            |c: &mut rvz_sim::ContactOptions| c.horizon += 1.0,
            |c: &mut rvz_sim::ContactOptions| c.max_steps += 1,
            |c: &mut rvz_sim::ContactOptions| c.prune = !c.prune,
        ] {
            let mut other = contact;
            mutate(&mut other);
            assert_ne!(base, engine_fingerprint(DEFAULT_GRID, &other, 1024));
        }
    }
}
