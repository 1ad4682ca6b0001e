//! End-to-end durability tests: SIGKILL a real `rvz serve` process and
//! assert the snapshot warm-starts the next one; SIGKILL a real
//! `rvz sweep --checkpoint` and assert `--resume` reproduces the
//! uninterrupted artifacts bit-identically; drive both recovery paths
//! under seeded disk-fault injection.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn rvz(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rvz"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvz-durability-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Starts `rvz serve --port 0`, scrapes the bound port from the first
/// banner line, and returns the full banner (everything up to the
/// `stop with:` line) for assertions. The rest of the pipe is drained
/// by a background thread so the server never blocks or breaks on a
/// closed stdout.
fn spawn_server(extra: &[&str]) -> (Child, String, Vec<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rvz"))
        .args(["serve", "--port", "0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut banner = Vec::new();
    for line in lines.by_ref() {
        let line = line.expect("readable stdout");
        let done = line.starts_with("stop with:");
        banner.push(line);
        if done {
            break;
        }
    }
    std::thread::spawn(move || for _ in lines {});
    let addr = banner
        .first()
        .expect("a banner line")
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected banner: {banner:?}"
    );
    (child, addr, banner)
}

fn client(addr: &str, args: &[&str]) -> (bool, String) {
    let (ok, stdout, _) = rvz(&[&["client", "--addr", addr][..], args].concat());
    (ok, stdout)
}

/// Polls `/stats` until `pred` matches (snapshot writes are
/// asynchronous; the deadline keeps a hang from wedging CI).
fn wait_for_stats(addr: &str, pred: impl Fn(&str) -> bool, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (ok, out) = client(addr, &["--path", "/stats"]);
        if ok && pred(&out) {
            return out;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {out}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

const BODY: &str = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;

#[test]
fn sigkilled_server_warm_starts_from_its_snapshot() {
    let dir = scratch("serve-warm");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().unwrap();
    let serve_flags = [
        "--snapshot",
        snap_str,
        "--snapshot-interval-s",
        "1",
        "--max-steps",
        "20000",
        "--horizon-rounds",
        "6",
    ];

    // First life: answer one query (a miss), wait until a periodic
    // snapshot has captured it, then SIGKILL mid-flight.
    let (mut child, addr, _) = spawn_server(&serve_flags);
    let (ok, first) = client(&addr, &["--path", "/first-contact", "--body", BODY]);
    assert!(ok, "first-contact failed: {first}");
    assert!(first.contains("X-Rvz-Cache: miss"), "{first}");
    let expected_body = first
        .lines()
        .last()
        .expect("client prints the response body")
        .to_string();
    wait_for_stats(&addr, |s| !s.contains("\"writes\":0"), "a snapshot write");
    child.kill().expect("SIGKILL serve");
    child.wait().expect("reap serve");
    assert!(snap.exists(), "the periodic snapshot survived the kill");

    // Second life: same snapshot path. The cached orbit must answer
    // byte-identically as a *hit* — no engine run.
    let (mut child, addr, banner) = spawn_server(&serve_flags);

    assert!(
        banner.iter().any(|l| l.contains("restore: warm")),
        "boot banner reports the warm restore: {banner:?}"
    );
    let (ok, again) = client(&addr, &["--path", "/first-contact", "--body", BODY]);
    assert!(ok, "warm-start query failed: {again}");
    assert!(again.contains("X-Rvz-Cache: hit"), "{again}");
    assert_eq!(
        again.lines().last().unwrap(),
        expected_body,
        "restored answer is byte-identical to the computed one"
    );
    let stats = wait_for_stats(&addr, |s| s.contains("\"restore\":\"warm\""), "warm stats");
    assert!(stats.contains("\"restored_entries\""), "{stats}");

    // Graceful shutdown writes a final snapshot even with a long
    // interval still pending.
    let (ok, _) = client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    assert!(ok);
    child.wait().expect("serve exits");
    drop(child);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_snapshot_salvages_and_corrupt_header_cold_starts() {
    let dir = scratch("serve-torn");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().unwrap();
    let serve_flags = [
        "--snapshot",
        snap_str,
        "--snapshot-interval-s",
        "600",
        "--max-steps",
        "20000",
        "--horizon-rounds",
        "6",
    ];

    // Seed a snapshot with two cached orbits via graceful shutdown.
    let (mut child, addr, _) = spawn_server(&serve_flags);
    let second = r#"{"speed":0.625,"distance":0.9,"visibility":0.25}"#;
    client(&addr, &["--path", "/first-contact", "--body", BODY]);
    client(&addr, &["--path", "/first-contact", "--body", second]);
    client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    child.wait().expect("serve exits");

    // Tear the tail off — what a kill mid-write would leave on a
    // non-atomic filesystem — and leave a stale temp sibling behind.
    let bytes = std::fs::read(&snap).expect("snapshot was written");
    std::fs::write(&snap, &bytes[..bytes.len() - 7]).unwrap();
    std::fs::write(dir.join("cache.snap.tmp"), b"half-written garbage").unwrap();

    let (mut child, addr, banner) = spawn_server(&serve_flags);

    assert!(
        banner.iter().any(|l| l.contains("restore: salvaged")),
        "torn snapshot salvages its valid prefix: {banner:?}"
    );
    // The salvaged prefix still serves hits; the torn-off orbit is a
    // plain miss, not an error.
    let (ok, out) = client(&addr, &["--path", "/first-contact", "--body", BODY]);
    assert!(ok);
    assert!(out.contains("X-Rvz-Cache: hit"), "{out}");
    client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    child.wait().expect("serve exits");

    // A mangled header (bad magic) must cold-start, not refuse to boot.
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    let (mut child, addr, banner) = spawn_server(&serve_flags);

    assert!(
        banner.iter().any(|l| l.contains("restore: cold")),
        "bad magic falls back cold: {banner:?}"
    );
    let (ok, out) = client(&addr, &["--path", "/first-contact", "--body", BODY]);
    assert!(ok);
    assert!(out.contains("X-Rvz-Cache: miss"), "cold cache: {out}");
    client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    child.wait().expect("serve exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_read_corruption_degrades_restore_without_refusing_to_boot() {
    let dir = scratch("serve-faults");
    let snap = dir.join("cache.snap");
    let snap_str = snap.to_str().unwrap();

    let (mut child, addr, _) = spawn_server(&[
        "--snapshot",
        snap_str,
        "--snapshot-interval-s",
        "600",
        "--max-steps",
        "20000",
        "--horizon-rounds",
        "6",
    ]);
    client(&addr, &["--path", "/first-contact", "--body", BODY]);
    client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    child.wait().expect("serve exits");

    // Boot with a pinned-seed read-corruption fault: the snapshot read
    // flips one byte, the restore degrades (salvaged or cold) and the
    // server still serves correct answers.
    let (mut child, addr, banner) = spawn_server(&[
        "--snapshot",
        snap_str,
        "--snapshot-interval-s",
        "600",
        "--max-steps",
        "20000",
        "--horizon-rounds",
        "6",
        "--faults",
        "seed=11,read_corrupt=1,limit=1",
    ]);

    let restore_line = banner
        .iter()
        .find(|l| l.contains("restore:"))
        .expect("snapshot banner line");
    assert!(
        restore_line.contains("salvaged") || restore_line.contains("cold"),
        "injected corruption must degrade, got: {restore_line}"
    );
    let (ok, out) = client(&addr, &["--path", "/first-contact", "--body", BODY]);
    assert!(ok, "{out}");
    assert!(out.contains("\"outcome\":\"contact\""), "{out}");
    client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    child.wait().expect("serve exits");
    std::fs::remove_dir_all(&dir).ok();
}

/// The shared sweep shape: enough scenarios that a kill lands mid-run,
/// cheap enough per scenario for a debug-build test.
fn sweep_args<'a>(out: &'a str, checkpoint: Option<&'a str>, threads: &'a str) -> Vec<&'a str> {
    let mut args = vec![
        "sweep",
        "--speeds",
        "0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95",
        "--clocks",
        "0.6,1.0",
        "--phis",
        "0,1.5",
        "--chis",
        "+1",
        "--distances",
        "0.9",
        "--r",
        "0.25",
        "--max-steps",
        "20000",
        "--horizon-rounds",
        "6",
        "--threads",
        threads,
        "--out",
        out,
    ];
    if let Some(path) = checkpoint {
        args.extend_from_slice(&["--checkpoint", path]);
    }
    args
}

#[test]
fn sigkilled_sweep_resumes_bit_identical_to_an_uninterrupted_run() {
    let dir = scratch("sweep-resume");
    let reference = dir.join("reference");
    let resumed = dir.join("resumed");
    let journal = dir.join("sweep.ckpt");
    let journal_str = journal.to_str().unwrap();

    // The uninterrupted truth, on one thread.
    let (ok, _, stderr) = rvz(&sweep_args(reference.to_str().unwrap(), None, "1"));
    assert!(ok, "reference sweep failed: {stderr}");

    // Start the checkpointed run and SIGKILL it as soon as the journal
    // holds a few complete records.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rvz"))
        .args(sweep_args(
            resumed.to_str().unwrap(),
            Some(journal_str),
            "2",
        ))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("sweep starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|s| s.lines().count())
            .unwrap_or(0);
        if lines >= 3 {
            break;
        }
        if child.try_wait().expect("poll sweep").is_some() {
            break; // finished before we could kill it — resume is a no-op
        }
        assert!(Instant::now() < deadline, "no checkpoint progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok();
    child.wait().expect("reap sweep");

    // Without --resume an existing journal is refused (no silent
    // clobber of partial work).
    let (ok, _, stderr) = rvz(&sweep_args(
        resumed.to_str().unwrap(),
        Some(journal_str),
        "4",
    ));
    assert!(!ok, "a leftover journal must not be silently overwritten");
    assert!(stderr.contains("--resume"), "{stderr}");

    // Resume on a different thread count: artifacts must be
    // bit-identical to the uninterrupted single-thread run.
    let mut args = sweep_args(resumed.to_str().unwrap(), Some(journal_str), "4");
    args.push("--resume");
    let (ok, stdout, stderr) = rvz(&args);
    assert!(ok, "resumed sweep failed: {stderr}");
    assert!(stdout.contains("checkpoint:"), "{stdout}");

    for ext in ["jsonl", "csv"] {
        let a = std::fs::read(reference.with_extension(ext)).unwrap();
        let b = std::fs::read(resumed.with_extension(ext)).unwrap();
        assert_eq!(a, b, "{ext} artifacts diverged after kill + resume");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_journal_and_injected_faults_still_resume_bit_identical() {
    let dir = scratch("sweep-faults");
    let reference = dir.join("reference");
    let resumed = dir.join("resumed");
    let journal = dir.join("sweep.ckpt");
    let journal_str = journal.to_str().unwrap();

    let (ok, _, stderr) = rvz(&sweep_args(reference.to_str().unwrap(), None, "2"));
    assert!(ok, "reference sweep failed: {stderr}");

    // A complete checkpointed run leaves a full journal.
    let (ok, _, stderr) = rvz(&sweep_args(
        resumed.to_str().unwrap(),
        Some(journal_str),
        "2",
    ));
    assert!(ok, "checkpointed sweep failed: {stderr}");

    // Tear the journal mid-line (a crash mid-append) and resume under a
    // pinned-seed read-corruption fault: salvage drops the torn tail,
    // the injected flip knocks out one more line, both are recomputed,
    // and the artifacts still match bit-for-bit.
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 9]).unwrap();
    let mut args = sweep_args(resumed.to_str().unwrap(), Some(journal_str), "2");
    args.extend_from_slice(&["--resume", "--faults", "seed=7,read_corrupt=1,limit=1"]);
    let (ok, stdout, stderr) = rvz(&args);
    assert!(ok, "faulted resume failed: {stderr}");
    assert!(stdout.contains("checkpoint:"), "{stdout}");
    assert!(
        stdout.contains("resumed") && stdout.contains("computed"),
        "{stdout}"
    );

    for ext in ["jsonl", "csv"] {
        let a = std::fs::read(reference.with_extension(ext)).unwrap();
        let b = std::fs::read(resumed.with_extension(ext)).unwrap();
        assert_eq!(a, b, "{ext} artifacts diverged under torn journal + faults");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parent_format_files_get_named_refusals() {
    let dir = scratch("parent-format");
    let out = dir.join("out");
    let journal = dir.join("sweep.ckpt");
    let journal_str = journal.to_str().unwrap();
    let version = plane_rendezvous::experiments::JOURNAL_VERSION;

    // A version 5 checkpoint: the same record lines with no header line,
    // and a `.manifest` sibling that pinned the version and fingerprint.
    let (ok, _, stderr) = rvz(&sweep_args(out.to_str().unwrap(), Some(journal_str), "2"));
    assert!(ok, "checkpointed sweep failed: {stderr}");
    let text = std::fs::read_to_string(&journal).unwrap();
    let records = &text[text.find('\n').unwrap() + 1..];
    std::fs::write(&journal, records).unwrap();
    std::fs::write(
        dir.join("sweep.ckpt.manifest"),
        "{\"version\":5,\"fingerprint\":\"0000000000000000\",\"entries\":40}\n",
    )
    .unwrap();
    let mut args = sweep_args(out.to_str().unwrap(), Some(journal_str), "2");
    args.push("--resume");
    let (ok, _, stderr) = rvz(&args);
    assert!(!ok, "a headerless journal must not be resumed");
    assert!(
        stderr.contains(&format!("does not start with a version {version} header")),
        "{stderr}"
    );

    // An `RVZSNAP1` binary snapshot: magic, version 6, one length- and
    // CRC-prefixed meta record. Serve boots cold and says why.
    let snap = dir.join("cache.snap");
    let mut bytes = b"RVZSNAP1".to_vec();
    bytes.extend_from_slice(&6u32.to_le_bytes());
    let mut meta = vec![0u8];
    meta.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&plane_rendezvous::experiments::crc32(&meta).to_le_bytes());
    bytes.extend_from_slice(&meta);
    std::fs::write(&snap, &bytes).unwrap();
    let (mut child, addr, banner) = spawn_server(&["--snapshot", snap.to_str().unwrap()]);
    assert!(
        banner
            .iter()
            .any(|l| l.contains("restore: cold") && l.contains("not a journal")),
        "an RVZSNAP1 file cold-starts as not a journal: {banner:?}"
    );
    client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    child.wait().expect("serve exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durability_flags_reject_bad_usage_with_named_clauses() {
    // --resume without --checkpoint is a user error, not a no-op.
    let (ok, _, stderr) = rvz(&["sweep", "--resume"]);
    assert!(!ok);
    assert!(stderr.contains("--checkpoint"), "{stderr}");

    // --faults without --checkpoint has nothing to inject into.
    let (ok, _, stderr) = rvz(&["sweep", "--faults", "seed=1,read_corrupt=1"]);
    assert!(!ok);
    assert!(stderr.contains("--checkpoint"), "{stderr}");

    // Parse errors name the offending clause and key.
    let (ok, _, stderr) = rvz(&[
        "sweep",
        "--checkpoint",
        "x.ckpt",
        "--faults",
        "read_corrupt=1.5",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("clause `read_corrupt=1.5`"),
        "names the clause: {stderr}"
    );
    assert!(
        stderr.contains("must be in [0, 1]"),
        "names the constraint: {stderr}"
    );

    // A sweep has no serve stack: its spec refuses the in-process sites
    // by name instead of accepting a rate that could never fire.
    let (ok, _, stderr) = rvz(&[
        "sweep",
        "--checkpoint",
        "x.ckpt",
        "--faults",
        "worker_panic=1",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("`worker_panic` belongs to a serve-only site"),
        "names the serve-only key: {stderr}"
    );

    let (ok, _, stderr) = rvz(&["serve", "--faults", "torn_rename=nope,seed=1"]);
    assert!(!ok);
    assert!(
        stderr.contains("clause `torn_rename=nope`"),
        "serve names the clause too: {stderr}"
    );
}
