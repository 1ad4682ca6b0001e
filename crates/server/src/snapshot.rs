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
//! fingerprint in the snapshot's header; a mismatch (different grid,
//! horizon, tolerance, step budget, prune flag or piece budget)
//! cold-starts rather than serving answers computed under different
//! options.
//!
//! ## Format
//!
//! A snapshot is a [`rvz_experiments::journal`], the format a sweep
//! checkpoint uses: a header line pinning the format version, the
//! engine fingerprint and the entry count, then one CRC-framed sweep
//! record per cached entry — the representative its key denotes, and
//! the outcome. The count lets a restore tell a complete snapshot apart
//! from one cut exactly at a line boundary (which CRC framing alone
//! cannot see). Records appear in cache recency order (least- to
//! most-recent per shard), so replaying inserts reproduces every
//! shard's LRU list exactly.
//!
//! ## Crash consistency
//!
//! Writing goes through [`DurableFile`]: temp sibling + `fsync` +
//! atomic rename, so a reader only ever sees a complete previous
//! snapshot or a complete new one. Reading still assumes nothing: a
//! torn, truncated, bit-flipped or version-skewed file is detected
//! per line (CRC framing), the valid prefix is salvaged, and the
//! outcome is reported as `cold`, `warm` or `salvaged n` — the server
//! never refuses to start over a bad snapshot.

use rvz_experiments::durable::{fnv1a64, read_file_faulty, DurableFile, FNV_OFFSET_BASIS};
use rvz_experiments::{
    read_journal, record_from_json, write_frame, write_header, write_record_json, CacheKey, Faults,
    SweepRecord, JOURNAL_VERSION,
};
use rvz_model::feasibility;
use rvz_sim::SimOutcome;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Cache entries in recency order (least- to most-recently-used per
/// shard), as [`crate::ResultCache::export`] yields them.
pub type Entries = Vec<(CacheKey, SimOutcome)>;

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
        JOURNAL_VERSION as u64,
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

/// Serializes a snapshot (pure; see [`write_snapshot`] for the durable
/// path). Deadline outcomes are never written: they are wall-clock
/// artifacts, and are never cached to begin with.
pub fn encode_snapshot(fingerprint: u64, entries: &[(CacheKey, SimOutcome)]) -> String {
    let kept: Vec<_> = entries
        .iter()
        .filter(|(_, o)| !matches!(o, SimOutcome::Deadline { .. }))
        .collect();
    let mut out = String::new();
    write_header(&mut out, fingerprint, Some(kept.len()));
    for (key, outcome) in kept {
        let scenario = key.scenario();
        let record = SweepRecord {
            scenario,
            feasibility: feasibility(&scenario.attributes()),
            outcome: *outcome,
        };
        write_frame(&mut out, |s| write_record_json(s, &record));
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
    entries: &[(CacheKey, SimOutcome)],
    faults: Option<Arc<Faults>>,
) -> io::Result<()> {
    let mut file = DurableFile::create(path, faults)?;
    file.write_all(encode_snapshot(fingerprint, entries).as_bytes())?;
    file.commit()
}

/// Decodes a snapshot image, salvaging the valid record prefix.
pub fn decode_snapshot(bytes: &[u8], fingerprint: u64) -> (Entries, RestoreOutcome) {
    let mut results = Vec::new();
    let prefix = read_journal(bytes, fingerprint, |value| match record_from_json(value) {
        Ok(r) if !matches!(r.outcome, SimOutcome::Deadline { .. }) => {
            results.push((CacheKey::of(&r.scenario), r.outcome));
            true
        }
        _ => false,
    });
    let outcome = match prefix {
        Err(e) => RestoreOutcome::Cold {
            reason: format!("snapshot {e}"),
        },
        Ok(p) if p.valid_bytes == 0 => RestoreOutcome::Cold {
            reason: "no valid header line (not a journal, or torn inside its first line)"
                .to_string(),
        },
        Ok(p) if p.valid_bytes == bytes.len() && p.entries == Some(results.len() as u64) => {
            RestoreOutcome::Warm {
                results: results.len(),
            }
        }
        // A line failed its frame check, or the file ended cleanly but
        // short of the count the header promised.
        Ok(p) => RestoreOutcome::Salvaged {
            results: results.len(),
            dropped_bytes: bytes.len() - p.valid_bytes,
        },
    };
    (results, outcome)
}

/// Reads and decodes the snapshot at `path`, degrading gracefully: any
/// failure (missing file, injected read corruption, torn content)
/// produces a `Cold`/`Salvaged` outcome, never an error — boot must
/// proceed regardless.
pub fn read_snapshot(
    path: &Path,
    fingerprint: u64,
    faults: Option<&Arc<Faults>>,
) -> (Entries, RestoreOutcome) {
    let cold = |reason: String| (Vec::new(), RestoreOutcome::Cold { reason });
    match read_file_faulty(path, faults) {
        Ok(bytes) => decode_snapshot(&bytes, fingerprint),
        Err(e) if e.kind() == io::ErrorKind::NotFound => cold("no snapshot yet".to_string()),
        Err(e) => cold(format!("cannot read snapshot: {e}")),
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

    fn sample() -> Entries {
        let ks = keys(3);
        vec![
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
        ]
    }

    const FP: u64 = 0xDEAD_BEEF_0BAD_F00D;

    #[test]
    fn round_trip_is_exact_and_warm() {
        let data = sample();
        let bytes = encode_snapshot(FP, &data).into_bytes();
        let (back, outcome) = decode_snapshot(&bytes, FP);
        assert_eq!(back, data, "bit patterns survive exactly");
        assert_eq!(outcome, RestoreOutcome::Warm { results: 3 });
        assert_eq!(outcome.label(), "warm");
        assert_eq!(outcome.entries(), 3);
    }

    #[test]
    fn every_truncation_point_salvages_a_valid_prefix() {
        let data = sample();
        let bytes = encode_snapshot(FP, &data).into_bytes();
        for cut in 0..bytes.len() {
            let (partial, outcome) = decode_snapshot(&bytes[..cut], FP);
            // Salvage must never fabricate entries...
            assert!(partial.len() <= data.len());
            // ...and every salvaged entry must be a true prefix.
            assert_eq!(partial[..], data[..partial.len()]);
            match outcome {
                RestoreOutcome::Warm { .. } => {
                    assert_eq!(cut, bytes.len(), "only the full file is warm")
                }
                RestoreOutcome::Cold { .. } => {
                    assert_eq!(partial.len(), 0, "cold restores nothing")
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
        let clean = encode_snapshot(FP, &data).into_bytes();
        // Flip a byte inside the *second* result record: the journal's
        // third line, after the header and the first record.
        let mut bytes = clean.clone();
        let second_record = clean
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0
            + 1;
        bytes[second_record + 9 + 10] ^= 0x10;
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
        assert_eq!(partial[..], data[..partial.len()]);
        assert!(outcome.label().starts_with("salvaged "));
    }

    #[test]
    fn version_and_fingerprint_skew_cold_start() {
        let data = sample();
        let text = encode_snapshot(FP, &data);

        let (d, o) = decode_snapshot(text.as_bytes(), FP ^ 1);
        assert!(d.is_empty());
        assert!(
            matches!(&o, RestoreOutcome::Cold { reason } if reason.contains("fingerprint")),
            "{o:?}"
        );

        // Headers from older builds (entries the retired scalar tier
        // may have answered, τ = 1 entries from two cursors, distances
        // through `hypot`, a ladder without the curvature certificate)
        // cold-start.
        let body = &text[text.find('\n').unwrap() + 1..];
        for old in 1..JOURNAL_VERSION {
            let mut previous = String::new();
            write_frame(&mut previous, |s| {
                s.push_str(&format!(
                    "{{\"version\":{old},\"fingerprint\":\"{FP:016x}\",\"entries\":3}}"
                ))
            });
            previous.push_str(body);
            let (d, o) = decode_snapshot(previous.as_bytes(), FP);
            assert!(d.is_empty());
            let expected = format!("snapshot has version {old}");
            assert!(
                matches!(&o, RestoreOutcome::Cold { reason } if reason.contains(&expected)),
                "{o:?}"
            );
        }

        let (_, o) = decode_snapshot(b"not a snapshot at all", FP);
        assert!(matches!(&o, RestoreOutcome::Cold { reason } if reason.contains("not a journal")));
        let (_, o) = decode_snapshot(b"", FP);
        assert!(matches!(o, RestoreOutcome::Cold { .. }));
        assert_eq!(o.label(), "cold");
    }

    #[test]
    fn deadline_outcomes_are_never_encoded() {
        let ks = keys(2);
        let data = vec![
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
        ];
        let bytes = encode_snapshot(FP, &data).into_bytes();
        let (back, outcome) = decode_snapshot(&bytes, FP);
        assert_eq!(back.len(), 1, "only the contact survives");
        assert!(matches!(back[0].1, SimOutcome::Contact { .. }));
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
        let bigger: Entries = keys(8)
            .into_iter()
            .map(|key| {
                let outcome = SimOutcome::Contact {
                    time: 1.0,
                    distance: 0.25,
                    steps: 3,
                };
                (key, outcome)
            })
            .collect();
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
