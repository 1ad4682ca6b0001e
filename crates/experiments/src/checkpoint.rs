//! Sweep checkpoint/resume: journal completed records, skip them on
//! restart, and reproduce the uninterrupted output bit-for-bit.
//!
//! The checkpoint is a [`crate::journal`]: a header line pinning the
//! sweep **fingerprint** (a digest of the scenario batch and the engine
//! options, but *not* the thread count), then one CRC-framed
//! [`crate::write_record_json`] line per finished scenario. A crash (or
//! an injected [`FaultSite::ShortWrite`](crate::FaultSite::ShortWrite))
//! can tear at most the final line; [`Checkpoint::open`] salvages the
//! valid prefix, truncates the torn tail, and hands back the finished
//! records so [`run_sweep_checkpointed`] only computes what is missing.
//!
//! Resuming a journal whose header names a different sweep or version is
//! refused outright: silently merging records from a different grid
//! would fabricate an artifact no single run could produce. Within a
//! matching sweep, every salvaged record is additionally cross-checked
//! against the scenario it claims to answer.
//!
//! Because a record depends only on its scenario (schedule
//! independence, see [`crate::executor`]), the merged output of
//! `salvaged + recomputed` is byte-identical to an uninterrupted run at
//! any thread count and any kill point — the property the CI
//! kill-and-restart smoke asserts with `cmp`.

use crate::durable::{fnv1a64, read_file_faulty, truncate_file, JournalFile, FNV_OFFSET_BASIS};
use crate::executor::{run_sweep_with, SweepOptions, SweepRecord};
use crate::faults::Faults;
use crate::journal::{read_journal, write_frame, write_header, JOURNAL_VERSION};
use crate::report::{record_from_json, write_record_json};
use crate::scenario::Scenario;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Least time between syncs of the checkpoint. Appended records are
/// held in memory; a sync writes them to the journal in one write,
/// `fsync`s it and dumps the flight recorder. It happens on the first
/// append at least this long after the previous sync, and at the end of
/// the run. A crash (`kill -9`, power loss) therefore loses the records
/// of the unwritten batch: those that finished since the last sync,
/// about this much sweep time plus one scenario. They are recomputed on
/// resume. A new journal's header rides in its first batch, so the file
/// stays empty until the first sync.
const SYNC_EVERY: Duration = Duration::from_millis(250);

/// Digest of the sweep identity: the full scenario batch plus the
/// engine options that shape outcomes. Thread count is deliberately
/// excluded — resume is schedule-independent.
pub fn sweep_fingerprint(scenarios: &[Scenario], opts: &SweepOptions) -> u64 {
    fn word(h: u64, x: u64) -> u64 {
        fnv1a64(&x.to_le_bytes(), h)
    }
    let mut h = FNV_OFFSET_BASIS;
    h = word(h, JOURNAL_VERSION as u64);
    h = word(h, opts.contact.tolerance.to_bits());
    h = word(h, opts.contact.horizon.to_bits());
    h = word(h, opts.contact.max_steps);
    h = word(h, opts.contact.prune as u64);
    h = word(h, scenarios.len() as u64);
    for s in scenarios {
        h = fnv1a64(s.algorithm.token().as_bytes(), h);
        h = fnv1a64(s.chirality.token().as_bytes(), h);
        h = word(h, s.id);
        h = word(h, s.speed.to_bits());
        h = word(h, s.time_unit.to_bits());
        h = word(h, s.orientation.to_bits());
        h = word(h, s.distance.to_bits());
        h = word(h, s.bearing.to_bits());
        h = word(h, s.visibility.to_bits());
    }
    h
}

/// Aggregate accounting for a checkpointed sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Records reused from the journal instead of recomputed.
    pub resumed: usize,
    /// Records computed (and journaled) by this run.
    pub computed: usize,
    /// Torn/corrupt journal lines dropped during salvage.
    pub dropped: usize,
    /// Journal writes and `fsync`s that failed (non-fatal: the data is
    /// re-derivable, so a failure only widens the crash window).
    pub sync_failures: u64,
}

/// The sibling flight-recorder dump (`<path>.trace.jsonl`).
fn trace_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".trace.jsonl");
    path.with_file_name(name)
}

/// Dumps the in-memory flight recorder next to the journal, newest span
/// first — a post-mortem sample of what the workers were doing at the
/// last checkpoint. Best-effort and observation-only: the file is
/// rewritten whole at each sync, never read back, and failure to write
/// it does not count against the checkpoint.
fn dump_flight_recorder(path: &Path) {
    let events = rvz_obs::recent(rvz_obs::RING_CAPACITY);
    if events.is_empty() {
        return;
    }
    let mut text = String::new();
    for e in &events {
        e.write_json(&mut text);
        text.push('\n');
    }
    let _ = std::fs::write(trace_path(path), text);
}

/// Records salvaged from an existing journal, keyed by scenario index.
pub type SalvagedRecords = Vec<(usize, SweepRecord)>;

/// A batch's records as JSON lines, each rendered once by
/// [`write_record_json`] and kept by scenario index: the checkpoint
/// frames these bytes into its journal, and the sweep's `.jsonl`
/// artifact is written from them, so no record is rendered twice.
#[derive(Debug)]
pub struct RecordLines {
    /// The rendered records, in the order they were rendered.
    text: String,
    /// Each scenario's byte range in `text`.
    spans: Vec<(usize, usize)>,
}

impl RecordLines {
    fn new(records: usize) -> Self {
        RecordLines {
            text: String::new(),
            spans: vec![(0, 0); records],
        }
    }

    /// Renders scenario `i`'s record and returns its JSON.
    fn render(&mut self, i: usize, record: &SweepRecord) -> &str {
        let start = self.text.len();
        write_record_json(&mut self.text, record);
        self.spans[i] = (start, self.text.len());
        &self.text[start..]
    }

    /// Writes the records in scenario order, one per line: the bytes
    /// [`crate::write_jsonl`] writes for the same records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for &(start, end) in &self.spans {
            w.write_all(&self.text.as_bytes()[start..end])?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }
}

/// An open sweep checkpoint: the append journal and its unwritten batch.
pub struct Checkpoint {
    path: PathBuf,
    journal: JournalFile,
    /// Framed lines appended since the last sync, not yet written.
    pending: String,
    last_sync: Instant,
    sync_failures: u64,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path` for the given sweep.
    ///
    /// Returns the checkpoint, the salvaged records `(index, record)`
    /// keyed by scenario index, and the number of torn or corrupt lines
    /// dropped. An existing non-empty journal requires `resume = true`,
    /// and a valid header line must name this exact sweep.
    ///
    /// # Errors
    ///
    /// * the journal exists but `resume` was not requested;
    /// * its header names a different version or sweep, or its first
    ///   line is not a header at all;
    /// * I/O failure opening or truncating the journal.
    pub fn open(
        path: &Path,
        scenarios: &[Scenario],
        opts: &SweepOptions,
        resume: bool,
        faults: Option<Arc<Faults>>,
    ) -> Result<(Checkpoint, SalvagedRecords, usize), String> {
        let fingerprint = sweep_fingerprint(scenarios, opts);
        let existing = std::fs::metadata(path).map_or(0, |m| m.len());
        let mut salvaged = Vec::new();
        let mut dropped = 0;
        let mut valid_bytes = 0;
        if existing > 0 {
            if !resume {
                return Err(format!(
                    "checkpoint `{}` already holds {existing} bytes; pass --resume to \
                     continue it or remove the file to start over",
                    path.display()
                ));
            }
            let bytes = read_file_faulty(path, faults.as_ref())
                .map_err(|e| format!("cannot read checkpoint `{}`: {e}", path.display()))?;
            let mut filled = vec![false; scenarios.len()];
            let prefix = read_journal(&bytes, fingerprint, |value| {
                let Ok(record) = record_from_json(value) else {
                    return false;
                };
                let i = usize::try_from(record.scenario.id).unwrap_or(usize::MAX);
                if scenarios.get(i) != Some(&record.scenario) || filled[i] {
                    return false;
                }
                filled[i] = true;
                salvaged.push((i, record));
                true
            })
            .map_err(|e| {
                format!(
                    "checkpoint `{}` {e}; refusing to resume — remove the checkpoint to \
                     start over",
                    path.display()
                )
            })?;
            dropped = prefix.dropped_lines;
            valid_bytes = prefix.valid_bytes as u64;
            if valid_bytes < existing {
                truncate_file(path, valid_bytes).map_err(|e| {
                    format!("cannot drop torn checkpoint tail `{}`: {e}", path.display())
                })?;
            }
        }
        let journal = JournalFile::append_to(path, faults)
            .map_err(|e| format!("cannot open checkpoint `{}`: {e}", path.display()))?;
        let mut pending = String::new();
        if valid_bytes == 0 {
            write_header(&mut pending, fingerprint, None);
        }
        Ok((
            Checkpoint {
                path: path.to_path_buf(),
                journal,
                pending,
                last_sync: Instant::now(),
                sync_failures: 0,
            },
            salvaged,
            dropped,
        ))
    }

    /// Journals one completed record, given as its rendered
    /// [`write_record_json`] text: frames it into the pending batch, and
    /// syncs when `SYNC_EVERY` has passed since the last sync.
    pub fn append(&mut self, record_json: &str) {
        write_frame(&mut self.pending, |out| out.push_str(record_json));
        if self.last_sync.elapsed() >= SYNC_EVERY {
            self.sync();
        }
    }

    /// Writes the pending batch, forces the journal durable and dumps
    /// the flight recorder; called by [`Checkpoint::append`] once
    /// `SYNC_EVERY` has passed since the last sync, and at the end of
    /// the run. Write failures (including an injected short write,
    /// which leaves a torn line for the next open to salvage around) and
    /// `fsync` failures are counted, not fatal: the records are
    /// re-derivable, so the worst case is recomputing them after a
    /// crash.
    pub fn sync(&mut self) {
        self.last_sync = Instant::now();
        if !self.pending.is_empty() {
            if self.journal.write_all(self.pending.as_bytes()).is_err() {
                self.sync_failures += 1;
            }
            self.pending.clear();
        }
        dump_flight_recorder(&self.path);
        if self.journal.sync().is_err() {
            self.sync_failures += 1;
        }
    }
}

/// [`run_sweep_with`] through a checkpoint: salvage finished records
/// from `path`, compute only the missing scenarios (journaling each as
/// it completes), and merge back into scenario order — bit-identical to
/// an uninterrupted [`crate::run_sweep`] of the same batch, at any
/// thread count and kill point.
///
/// Returns the records, their [`RecordLines`] (each record rendered
/// once, for the journal and the `.jsonl` artifact alike) and the
/// run's accounting.
///
/// `on_record(i, record)` runs on the calling thread once for every
/// computed scenario, after the record is journaled, with the
/// scenario's own index `i = record.scenario.id`. Salvaged records do
/// not reach it.
///
/// Scenario ids must equal their batch index (true of every generator
/// in [`crate::scenario`]).
///
/// # Errors
///
/// As for [`Checkpoint::open`].
///
/// # Panics
///
/// As for [`crate::run_sweep`].
pub fn run_sweep_checkpointed(
    scenarios: &[Scenario],
    opts: &SweepOptions,
    path: &Path,
    resume: bool,
    faults: Option<Arc<Faults>>,
    mut on_record: impl FnMut(usize, &SweepRecord),
) -> Result<(Vec<SweepRecord>, RecordLines, CheckpointStats), String> {
    let (mut checkpoint, salvaged, dropped) =
        Checkpoint::open(path, scenarios, opts, resume, faults)?;
    let resumed = salvaged.len();
    let mut lines = RecordLines::new(scenarios.len());
    let mut out: Vec<Option<SweepRecord>> = vec![None; scenarios.len()];
    for (i, record) in salvaged {
        lines.render(i, &record);
        out[i] = Some(record);
    }
    let todo: Vec<Scenario> = scenarios
        .iter()
        .enumerate()
        .filter(|(i, _)| out[*i].is_none())
        .map(|(_, s)| *s)
        .collect();
    let computed = todo.len();
    let fresh = run_sweep_with(&todo, opts, |_, record| {
        let i = record.scenario.id as usize;
        checkpoint.append(lines.render(i, record));
        on_record(i, record);
    });
    checkpoint.sync();
    for record in fresh {
        let i = record.scenario.id as usize;
        out[i] = Some(record);
    }
    let records = out
        .into_iter()
        .map(|r| r.expect("salvaged and computed scenarios cover the batch"))
        .collect();
    Ok((
        records,
        lines,
        CheckpointStats {
            resumed,
            computed,
            dropped,
            sync_failures: checkpoint.sync_failures,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_sweep;
    use crate::faults::{FaultPlan, FaultSite};
    use crate::scenario::ScenarioGrid;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rvz-checkpoint-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch() -> Vec<Scenario> {
        ScenarioGrid::new()
            .speeds(&[0.5, 1.0])
            .clocks(&[0.6, 1.0])
            .distances(&[0.9])
            .visibilities(&[0.25])
            .build()
    }

    fn quick_opts() -> SweepOptions {
        SweepOptions {
            threads: 2,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn fresh_run_then_resume_skips_all_work_and_matches_plain() {
        let dir = tmp_dir("fresh");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        let plain = run_sweep(&scenarios, &opts);

        let (first, lines, s1) =
            run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();
        assert_eq!(first, plain);
        assert_eq!((s1.resumed, s1.computed), (0, scenarios.len()));
        // The lines rendered once for the journal write the same JSONL
        // as rendering the records afresh.
        let jsonl = |write: &dyn Fn(&mut Vec<u8>) -> io::Result<()>| {
            let mut buf = Vec::new();
            write(&mut buf).unwrap();
            buf
        };
        let plain_jsonl = jsonl(&|w| crate::write_jsonl(w, &plain));
        assert_eq!(jsonl(&|w| lines.write_jsonl(w)), plain_jsonl);

        // Resume over a complete journal: zero recomputation.
        let (second, lines, s2) =
            run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {}).unwrap();
        assert_eq!(second, plain);
        assert_eq!((s2.resumed, s2.computed), (scenarios.len(), 0));
        assert_eq!(jsonl(&|w| lines.write_jsonl(w)), plain_jsonl);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_sync_dumps_the_flight_recorder() {
        let dir = tmp_dir("flightrec");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();
        // Each scenario opened a "scenario" span, so the final sync
        // had events to dump (unless another test disabled recording,
        // which nothing in this crate does).
        let text = std::fs::read_to_string(trace_path(&path)).expect("trace dump written");
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(
                line.starts_with("{\"span\":\"") && line.ends_with('}'),
                "malformed trace line: {line}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn existing_journal_without_resume_is_refused() {
        let dir = tmp_dir("refuse");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();
        let err =
            run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap_err();
        assert!(err.contains("pass --resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_salvaged_and_truncated() {
        let dir = tmp_dir("torn");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        let plain = run_sweep(&scenarios, &opts);
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();

        // Tear the journal mid-final-line, as SIGKILL during a write
        // would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let (records, _, stats) =
            run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {}).unwrap();
        assert_eq!(records, plain, "salvage + recompute = uninterrupted run");
        assert_eq!(stats.resumed, scenarios.len() - 1);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.dropped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_callback_gets_each_computed_scenario_by_its_own_index() {
        let dir = tmp_dir("callback");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();
        // Keep the header and the first record only: the resume
        // computes every scenario but the one that record holds.
        let bytes = std::fs::read(&path).unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        let kept = text.match_indices('\n').nth(1).unwrap().0 + 1;
        std::fs::write(&path, &bytes[..kept]).unwrap();
        let mut seen = Vec::new();
        let (_, _, stats) = run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |i, r| {
            assert_eq!(i as u64, r.scenario.id, "index is the scenario's own");
            seen.push(i);
        })
        .unwrap();
        seen.sort_unstable();
        let first = text.lines().nth(1).unwrap().split_once('\t').unwrap().1;
        let salvaged = record_from_json(&crate::json::parse(first).unwrap())
            .unwrap()
            .scenario
            .id as usize;
        let want: Vec<usize> = (0..scenarios.len()).filter(|&i| i != salvaged).collect();
        assert_eq!(seen, want);
        assert_eq!(stats.computed, want.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_are_held_until_a_sync_writes_them_in_one_batch() {
        let dir = tmp_dir("batch");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        let records = run_sweep(&scenarios, &opts);
        let (mut checkpoint, _, _) =
            Checkpoint::open(&path, &scenarios, &opts, false, None).unwrap();
        // Well inside `SYNC_EVERY` of the open: nothing is written yet.
        for r in &records {
            let mut json = String::new();
            write_record_json(&mut json, r);
            checkpoint.append(&json);
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        checkpoint.sync();
        let bytes = std::fs::read(&path).unwrap();
        let mut salvaged = 0;
        let prefix = read_journal(&bytes, sweep_fingerprint(&scenarios, &opts), |_| {
            salvaged += 1;
            true
        })
        .unwrap();
        assert_eq!(
            (salvaged, prefix.valid_bytes, prefix.dropped_lines),
            (records.len(), bytes.len(), 0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_line_drops_the_suffix_but_output_is_identical() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        let plain = run_sweep(&scenarios, &opts);
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();

        // Flip one byte inside the second record's JSON (the journal's
        // third line): its CRC fails, and everything after loses its
        // framing guarantee.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_record = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0
            + 12;
        bytes[second_record] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (records, _, stats) =
            run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {}).unwrap();
        assert_eq!(records, plain);
        assert_eq!(stats.resumed, 1, "only the line before the corruption");
        assert_eq!(stats.computed, scenarios.len() - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_from_a_different_sweep_refuses_resume() {
        let dir = tmp_dir("mismatch");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();

        // Same journal, different engine options: different sweep.
        let other = SweepOptions {
            contact: rvz_sim::ContactOptions {
                max_steps: 1234,
                ..opts.contact
            },
            ..opts
        };
        let err =
            run_sweep_checkpointed(&scenarios, &other, &path, true, None, |_, _| {}).unwrap_err();
        assert!(err.contains("fingerprints a different"), "{err}");
        assert_ne!(
            sweep_fingerprint(&scenarios, &opts),
            sweep_fingerprint(&scenarios, &other)
        );

        // A header from an older build (records from the retired
        // compiled path, two-cursor τ = 1 runs, `hypot` distances, a
        // step ladder without the curvature certificate): refused even
        // under this sweep's own fingerprint.
        let bytes = std::fs::read(&path).unwrap();
        let body = &bytes[bytes.iter().position(|&b| b == b'\n').unwrap() + 1..];
        for version in 1..JOURNAL_VERSION {
            let mut stale = String::new();
            write_frame(&mut stale, |s| {
                s.push_str(&format!(
                    "{{\"version\":{version},\"fingerprint\":\"{:016x}\"}}",
                    sweep_fingerprint(&scenarios, &opts)
                ))
            });
            std::fs::write(&path, [stale.as_bytes(), body].concat()).unwrap();
            let err = run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {})
                .unwrap_err();
            assert!(err.contains(&format!("has version {version}")), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_torn_inside_its_header_resumes_empty_and_recomputes_everything() {
        let dir = tmp_dir("tornheader");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        let plain = run_sweep(&scenarios, &opts);
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(&path, &bytes[..header_len / 2]).unwrap();

        let (records, _, stats) =
            run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {}).unwrap();
        assert_eq!(records, plain);
        assert_eq!((stats.resumed, stats.computed), (0, scenarios.len()));
        assert_eq!(stats.dropped, 1, "the torn header line");
        // The rewritten journal starts with a fresh header and resumes
        // whole.
        let (_, _, stats) =
            run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {}).unwrap();
        assert_eq!((stats.resumed, stats.computed), (scenarios.len(), 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_ignores_thread_count_but_not_scenarios() {
        let scenarios = batch();
        let opts = quick_opts();
        let serial = SweepOptions { threads: 1, ..opts };
        assert_eq!(
            sweep_fingerprint(&scenarios, &opts),
            sweep_fingerprint(&scenarios, &serial),
            "thread count must not pin the fingerprint"
        );
        let mut other = scenarios.clone();
        other[0].speed += 0.25;
        assert_ne!(
            sweep_fingerprint(&scenarios, &opts),
            sweep_fingerprint(&other, &opts)
        );
    }

    #[test]
    fn read_corruption_fault_degrades_to_recompute_not_failure() {
        let dir = tmp_dir("readfault");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        let plain = run_sweep(&scenarios, &opts);
        run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();

        // A corrupted read of the journal on resume: the CRC framing
        // catches the flipped byte, the suffix is recomputed, and the
        // final output is still exact.
        let faults = Arc::new(Faults::new(FaultPlan {
            seed: 11,
            read_corrupt: 1.0,
            limit: 1,
            ..FaultPlan::default()
        }));
        let (records, _, stats) = run_sweep_checkpointed(
            &scenarios,
            &opts,
            &path,
            true,
            Some(Arc::clone(&faults)),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(records, plain);
        assert_eq!(faults.injected(FaultSite::ReadCorrupt), 1);
        assert!(
            stats.resumed < scenarios.len(),
            "the flipped byte must have invalidated at least the frame it hit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_faults_are_counted_but_never_fatal() {
        let dir = tmp_dir("fsync");
        let path = dir.join("sweep.ckpt");
        let scenarios = batch();
        let opts = quick_opts();
        let faults = Arc::new(Faults::new(FaultPlan {
            seed: 3,
            fsync_fail: 1.0,
            limit: 4,
            ..FaultPlan::default()
        }));
        let (records, _, stats) =
            run_sweep_checkpointed(&scenarios, &opts, &path, false, Some(faults), |_, _| {})
                .unwrap();
        assert_eq!(records, run_sweep(&scenarios, &opts));
        assert!(stats.sync_failures > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
