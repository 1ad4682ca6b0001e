//! Sweep checkpoint/resume: journal completed records, skip them on
//! restart, and reproduce the uninterrupted output bit-for-bit.
//!
//! The journal is an append-only text file of CRC-framed JSONL rows —
//! each line is `CRC32-hex TAB record-json NEWLINE`, where the JSON is
//! exactly the [`crate::record_to_json`] rendering the sweep artifact
//! itself uses. A crash (or an injected
//! [`FaultSite::ShortWrite`](crate::FaultSite::ShortWrite)) can
//! tear at most the final line; [`Checkpoint::open`] salvages the valid
//! prefix, truncates the torn tail, and hands back the finished records
//! so [`run_sweep_checkpointed`] only computes what is missing.
//!
//! A sibling manifest (`<path>.manifest`, atomic-replace via
//! [`DurableFile`]) pins the sweep **fingerprint** — a digest of the
//! scenario batch and the engine options (but *not* the thread count).
//! Resuming against a journal whose manifest names a different sweep is
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

use crate::durable::{
    crc32, fnv1a64, remove_stale_temp, truncate_file, DurableFile, JournalFile, FNV_OFFSET_BASIS,
};
use crate::executor::{run_sweep_with, SweepOptions, SweepRecord};
use crate::faults::Faults;
use crate::json::{self, Json};
use crate::report::{record_from_json, write_record_json};
use crate::scenario::Scenario;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Journal format version, bumped on any framing change and whenever
/// the records a sweep computes change. Version 5 records come from an
/// engine with the curvature certificate in its step ladder, which
/// changes `steps` and moves contact `time` and `observed_distance`
/// within the declaration slack, so a version 4 journal is refused.
/// Version 4 records came from an engine whose `Vec2::norm` is
/// `√(x² + y²)` rather than `hypot`, so a version 3 journal is refused
/// too. So is a version 2 journal
/// (τ = 1 scenarios on two cursors rather than the Lemma 4 relative
/// trajectory) or a version 1 journal (records possibly from the
/// retired compiled path): none is ever resumed into.
pub const CHECKPOINT_VERSION: u32 = 5;

/// FNV-1a digest of the engine's output bytes on a pinned sweep plus one
/// served `/first-contact` body (`tests/engine_bytes.rs`). Every update
/// goes with a bump of [`CHECKPOINT_VERSION`] and of the serve
/// snapshot's `SNAPSHOT_VERSION`, so no journal or snapshot outlives
/// the bytes it holds.
pub const ENGINE_BYTES_DIGEST: u64 = 0x9036_acee_957e_d26e;

/// Least time between syncs of the checkpoint. Appended records are
/// held in memory; a sync writes them to the journal in one write,
/// `fsync`s it, rewrites the manifest and dumps the flight recorder. It
/// happens on the first append at least this long after the previous
/// sync, and at [`Checkpoint::finish`]. A crash (`kill -9`, power loss)
/// therefore loses the records of the unwritten batch: those that
/// finished since the last sync, about this much sweep time plus one
/// scenario. They are recomputed on resume.
const SYNC_EVERY: Duration = Duration::from_millis(250);

/// Digest of the sweep identity: the full scenario batch plus the
/// engine options that shape outcomes. Thread count is deliberately
/// excluded — resume is schedule-independent.
pub fn sweep_fingerprint(scenarios: &[Scenario], opts: &SweepOptions) -> u64 {
    fn word(h: u64, x: u64) -> u64 {
        fnv1a64(&x.to_le_bytes(), h)
    }
    let mut h = FNV_OFFSET_BASIS;
    h = word(h, CHECKPOINT_VERSION as u64);
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

/// What [`Checkpoint::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeInfo {
    /// Finished records salvaged from the journal.
    pub salvaged: usize,
    /// Torn or corrupt trailing lines discarded (the valid prefix ends
    /// where the first bad frame begins).
    pub dropped: usize,
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
    /// Journal/manifest `fsync`s that failed (non-fatal: the data is
    /// re-derivable, so a failed sync only widens the crash window).
    pub sync_failures: u64,
}

fn manifest_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".manifest");
    path.with_file_name(name)
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
        text.push_str(&format!(
            "{{\"span\":\"{}\",\"trace\":\"{:016x}\",\"start_us\":{},\"dur_us\":{},\
             \"thread\":{},\"depth\":{}}}\n",
            e.name, e.trace_id, e.start_us, e.dur_us, e.thread, e.depth,
        ));
    }
    let _ = std::fs::write(trace_path(path), text);
}

/// Records salvaged from an existing journal, keyed by scenario index.
pub type SalvagedRecords = Vec<(usize, SweepRecord)>;

/// An open sweep checkpoint: the append journal plus its manifest.
pub struct Checkpoint {
    path: PathBuf,
    journal: JournalFile,
    fingerprint: u64,
    entries: usize,
    /// Framed lines appended since the last sync, not yet written.
    pending: String,
    /// Scratch for one record's JSON, reused across appends.
    line: String,
    pending_entries: usize,
    last_sync: Instant,
    sync_failures: u64,
    faults: Option<Arc<Faults>>,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path` for the given sweep.
    ///
    /// Returns the checkpoint plus the salvaged records `(index,
    /// record)` keyed by scenario index. An existing non-empty journal
    /// requires `resume = true`; its manifest (when present) must name
    /// this exact sweep.
    ///
    /// # Errors
    ///
    /// * the journal exists but `resume` was not requested;
    /// * the manifest's version or fingerprint names a different sweep;
    /// * I/O failure opening or truncating the journal.
    pub fn open(
        path: &Path,
        scenarios: &[Scenario],
        opts: &SweepOptions,
        resume: bool,
        faults: Option<Arc<Faults>>,
    ) -> Result<(Checkpoint, SalvagedRecords, ResumeInfo), String> {
        let fingerprint = sweep_fingerprint(scenarios, opts);
        let existing = std::fs::metadata(path).map_or(0, |m| m.len());
        let mut salvaged = Vec::new();
        let mut info = ResumeInfo::default();
        if existing > 0 {
            if !resume {
                return Err(format!(
                    "checkpoint `{}` already holds {existing} bytes; pass --resume to \
                     continue it or remove the file to start over",
                    path.display()
                ));
            }
            check_manifest(&manifest_path(path), fingerprint)?;
            let bytes = crate::durable::read_file_faulty(path, faults.as_ref())
                .map_err(|e| format!("cannot read checkpoint `{}`: {e}", path.display()))?;
            let (records, valid_bytes, dropped) = salvage(&bytes, scenarios);
            info.salvaged = records.len();
            info.dropped = dropped;
            salvaged = records;
            if valid_bytes < existing {
                truncate_file(path, valid_bytes).map_err(|e| {
                    format!("cannot drop torn checkpoint tail `{}`: {e}", path.display())
                })?;
            }
        }
        remove_stale_temp(&manifest_path(path));
        let journal = JournalFile::append_to(path, faults.clone())
            .map_err(|e| format!("cannot open checkpoint `{}`: {e}", path.display()))?;
        Ok((
            Checkpoint {
                path: path.to_path_buf(),
                journal,
                fingerprint,
                entries: salvaged.len(),
                pending: String::new(),
                line: String::new(),
                pending_entries: 0,
                last_sync: Instant::now(),
                sync_failures: 0,
                faults,
            },
            salvaged,
            info,
        ))
    }

    /// Journals one completed record: frames it into the pending batch,
    /// and syncs when `SYNC_EVERY` has passed since the last sync.
    /// Write failures (including an injected short write, which leaves a
    /// torn line for the next open to salvage around) and sync failures
    /// are non-fatal: the records are re-derivable, so the worst case is
    /// recomputing them after a crash.
    pub fn append(&mut self, record: &SweepRecord) {
        self.line.clear();
        write_record_json(&mut self.line, record);
        let _ = write!(self.pending, "{:08x}\t", crc32(self.line.as_bytes()));
        self.pending.push_str(&self.line);
        self.pending.push('\n');
        self.pending_entries += 1;
        if self.last_sync.elapsed() >= SYNC_EVERY {
            self.sync_and_publish();
        }
    }

    /// Writes the pending batch, forces the journal durable and
    /// republishes the manifest; called automatically once
    /// `SYNC_EVERY` has passed since the last sync, and at the end of
    /// the run.
    pub fn finish(&mut self) {
        self.sync_and_publish();
    }

    /// `fsync` failures observed so far (injected or real).
    pub fn sync_failures(&self) -> u64 {
        self.sync_failures
    }

    fn sync_and_publish(&mut self) {
        self.last_sync = Instant::now();
        if !self.pending.is_empty() {
            match self.journal.write_all(self.pending.as_bytes()) {
                Ok(()) => self.entries += self.pending_entries,
                Err(_) => self.sync_failures += 1,
            }
            self.pending.clear();
            self.pending_entries = 0;
        }
        dump_flight_recorder(&self.path);
        if self.journal.sync().is_err() {
            self.sync_failures += 1;
            return;
        }
        let bytes = self.journal.len().unwrap_or(0);
        let manifest = Json::obj(vec![
            ("version", Json::Num(CHECKPOINT_VERSION as f64)),
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("entries", Json::Num(self.entries as f64)),
            ("bytes", Json::Num(bytes as f64)),
        ])
        .render();
        let write = || -> std::io::Result<()> {
            let mut f = DurableFile::create(&manifest_path(&self.path), self.faults.clone())?;
            f.write_all(manifest.as_bytes())?;
            f.write_all(b"\n")?;
            f.commit()
        };
        if write().is_err() {
            self.sync_failures += 1;
        }
    }
}

/// Validates the manifest against this sweep's fingerprint. A missing
/// or unreadable manifest is tolerated (the per-record scenario check
/// still guards the journal); a *well-formed manifest for a different
/// sweep* is a hard error.
fn check_manifest(path: &Path, fingerprint: u64) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let Ok(value) = json::parse(text.trim()) else {
        return Ok(());
    };
    if let Some(v) = value.get("version").and_then(Json::as_u64) {
        if v != CHECKPOINT_VERSION as u64 {
            return Err(format!(
                "checkpoint manifest `{}` has version {v}, this build writes \
                 {CHECKPOINT_VERSION}; remove the checkpoint to start over",
                path.display()
            ));
        }
    }
    if let Some(f) = value.get("fingerprint").and_then(Json::as_str) {
        let want = format!("{fingerprint:016x}");
        if f != want {
            return Err(format!(
                "checkpoint manifest `{}` fingerprints a different sweep ({f} vs {want}); \
                 refusing to resume — scenarios or engine options changed",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Walks the journal's CRC-framed lines, returning the records of the
/// valid prefix, the byte length of that prefix, and how many trailing
/// frames were dropped. Parsing stops at the first bad frame: an
/// append-only journal can only be damaged at its tail (torn final
/// write) or by corruption, and anything after a bad frame has lost its
/// framing guarantee.
fn salvage(bytes: &[u8], scenarios: &[Scenario]) -> (Vec<(usize, SweepRecord)>, u64, usize) {
    let mut records: Vec<(usize, SweepRecord)> = Vec::new();
    let mut filled = vec![false; scenarios.len()];
    let mut valid_bytes = 0u64;
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            break; // torn final line (no newline landed)
        };
        let line = &rest[..nl];
        let Some(record) = parse_frame(line, scenarios, &filled) else {
            break;
        };
        filled[record.0] = true;
        records.push(record);
        offset += nl + 1;
        valid_bytes = offset as u64;
    }
    let dropped = bytes[offset..].iter().filter(|&&b| b == b'\n').count()
        + usize::from(!bytes[offset..].is_empty() && bytes.last() != Some(&b'\n'));
    (records, valid_bytes, dropped)
}

/// Decodes one `crc TAB json` frame into `(scenario index, record)`.
/// `None` marks the frame bad: CRC mismatch, malformed JSON, a scenario
/// that is not `scenarios[id]`, or a duplicate index.
fn parse_frame(
    line: &[u8],
    scenarios: &[Scenario],
    filled: &[bool],
) -> Option<(usize, SweepRecord)> {
    let text = std::str::from_utf8(line).ok()?;
    let (crc_hex, json_text) = text.split_once('\t')?;
    let stored = u32::from_str_radix(crc_hex, 16).ok()?;
    if stored != crc32(json_text.as_bytes()) {
        return None;
    }
    let record = record_from_json(&json::parse(json_text).ok()?).ok()?;
    let i = usize::try_from(record.scenario.id).ok()?;
    if i >= scenarios.len() || record.scenario != scenarios[i] || filled[i] {
        return None;
    }
    Some((i, record))
}

/// [`run_sweep_with`] through a checkpoint: salvage finished records
/// from `path`, compute only the missing scenarios (journaling each as
/// it completes), and merge back into scenario order — bit-identical to
/// an uninterrupted [`crate::run_sweep`] of the same batch, at any
/// thread count and kill point.
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
) -> Result<(Vec<SweepRecord>, CheckpointStats), String> {
    let (mut checkpoint, salvaged, info) = Checkpoint::open(path, scenarios, opts, resume, faults)?;
    let mut out: Vec<Option<SweepRecord>> = vec![None; scenarios.len()];
    for &(i, record) in &salvaged {
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
        checkpoint.append(record);
        on_record(record.scenario.id as usize, record);
    });
    checkpoint.finish();
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
        CheckpointStats {
            resumed: info.salvaged,
            computed,
            dropped: info.dropped,
            sync_failures: checkpoint.sync_failures(),
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

        let (first, s1) =
            run_sweep_checkpointed(&scenarios, &opts, &path, false, None, |_, _| {}).unwrap();
        assert_eq!(first, plain);
        assert_eq!((s1.resumed, s1.computed), (0, scenarios.len()));

        // Resume over a complete journal: zero recomputation.
        let (second, s2) =
            run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {}).unwrap();
        assert_eq!(second, plain);
        assert_eq!((s2.resumed, s2.computed), (scenarios.len(), 0));
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

        let (records, stats) =
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
        // Keep the first journal line only: the resume computes every
        // scenario but the one that line holds.
        let bytes = std::fs::read(&path).unwrap();
        let first = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(&path, &bytes[..first]).unwrap();
        let mut seen = Vec::new();
        let (_, stats) = run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |i, r| {
            assert_eq!(i as u64, r.scenario.id, "index is the scenario's own");
            seen.push(i);
        })
        .unwrap();
        seen.sort_unstable();
        let (salvaged, _) = salvage(&bytes[..first], &scenarios).0[0];
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
            checkpoint.append(r);
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        checkpoint.finish();
        let bytes = std::fs::read(&path).unwrap();
        let (salvaged, valid, dropped) = salvage(&bytes, &scenarios);
        assert_eq!(
            (salvaged.len(), valid, dropped),
            (records.len(), bytes.len() as u64, 0)
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

        // Flip one byte inside the second line's JSON: its CRC fails,
        // and everything after loses its framing guarantee.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 12;
        bytes[second_line] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (records, stats) =
            run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {}).unwrap();
        assert_eq!(records, plain);
        assert_eq!(stats.resumed, 1, "only the line before the corruption");
        assert_eq!(stats.computed, scenarios.len() - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_from_a_different_sweep_refuses_resume() {
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
        assert!(err.contains("different sweep"), "{err}");
        assert_ne!(
            sweep_fingerprint(&scenarios, &opts),
            sweep_fingerprint(&scenarios, &other)
        );

        // A manifest from the version 1 executor (records possibly from
        // its retired compiled path), the version 2 one (τ = 1 records
        // from two cursors) or the version 3 one (distances through
        // `hypot`): refused even under this sweep's own fingerprint.
        for version in [1, 2, 3] {
            let stale = Json::obj(vec![
                ("version", Json::Num(f64::from(version))),
                (
                    "fingerprint",
                    Json::Str(format!("{:016x}", sweep_fingerprint(&scenarios, &opts))),
                ),
            ])
            .render();
            std::fs::write(manifest_path(&path), stale).unwrap();
            let err = run_sweep_checkpointed(&scenarios, &opts, &path, true, None, |_, _| {})
                .unwrap_err();
            assert!(err.contains(&format!("has version {version}")), "{err}");
        }
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
        let (records, stats) = run_sweep_checkpointed(
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
        let (records, stats) =
            run_sweep_checkpointed(&scenarios, &opts, &path, false, Some(faults), |_, _| {})
                .unwrap();
        assert_eq!(records, run_sweep(&scenarios, &opts));
        assert!(stats.sync_failures > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
