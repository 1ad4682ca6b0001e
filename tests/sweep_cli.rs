//! End-to-end tests of the `rvz sweep` and `rvz map` subcommands.

use std::path::PathBuf;
use std::process::Command;

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

/// A per-test output prefix under the target temp dir.
fn out_prefix(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("rvz-sweep-test-{}-{tag}", std::process::id()));
    dir
}

#[test]
fn sweep_writes_jsonl_and_csv_artifacts() {
    let prefix = out_prefix("artifacts");
    let prefix_str = prefix.to_str().unwrap();
    let (ok, stdout, stderr) = rvz(&[
        "sweep",
        "--speeds",
        "0.5,1.0",
        "--clocks",
        "0.6,1.0",
        "--phis",
        "0",
        "--chis",
        "+1",
        "--distances",
        "0.9",
        "--r",
        "0.25",
        "--threads",
        "2",
        "--out",
        prefix_str,
    ]);
    assert!(ok, "sweep failed: {stderr}");
    assert!(stdout.contains("sweeping 4 scenarios"));
    assert!(stdout.contains("theorem-4 consistency: 4/4"));

    let jsonl = std::fs::read_to_string(format!("{prefix_str}.jsonl")).unwrap();
    assert_eq!(jsonl.lines().count(), 4);
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));

    let csv = std::fs::read_to_string(format!("{prefix_str}.csv")).unwrap();
    assert_eq!(csv.lines().count(), 5, "header + 4 rows");
    assert!(csv.starts_with("id,algorithm,speed"));

    for ext in ["jsonl", "csv"] {
        let _ = std::fs::remove_file(format!("{prefix_str}.{ext}"));
    }
}

#[test]
fn sweep_output_is_byte_identical_across_thread_counts() {
    let args_for = |prefix: &str, threads: &str| {
        vec![
            "sweep".to_string(),
            "--speeds".into(),
            "0.5,0.8,1.0".into(),
            "--clocks".into(),
            "0.6,1.0".into(),
            "--phis".into(),
            "0,1.3".into(),
            "--distances".into(),
            "0.9".into(),
            "--r".into(),
            "0.25".into(),
            "--threads".into(),
            threads.into(),
            "--out".into(),
            prefix.into(),
        ]
    };
    let p1 = out_prefix("t1");
    let p4 = out_prefix("t4");
    for (prefix, threads) in [(&p1, "1"), (&p4, "4")] {
        let args = args_for(prefix.to_str().unwrap(), threads);
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let (ok, _, stderr) = rvz(&refs);
        assert!(ok, "sweep failed: {stderr}");
    }
    for ext in ["jsonl", "csv"] {
        let a = std::fs::read(format!("{}.{ext}", p1.to_str().unwrap())).unwrap();
        let b = std::fs::read(format!("{}.{ext}", p4.to_str().unwrap())).unwrap();
        assert_eq!(a, b, "{ext} artifact differs between 1 and 4 threads");
        let _ = std::fs::remove_file(format!("{}.{ext}", p1.to_str().unwrap()));
        let _ = std::fs::remove_file(format!("{}.{ext}", p4.to_str().unwrap()));
    }
}

#[test]
fn sweep_lhs_mode_is_seeded() {
    let prefix = out_prefix("lhs");
    let prefix_str = prefix.to_str().unwrap();
    let (ok, stdout, stderr) = rvz(&[
        "sweep",
        "--lhs",
        "32",
        "--seed",
        "7",
        "--r",
        "0.2",
        "--threads",
        "2",
        "--out",
        prefix_str,
    ]);
    assert!(ok, "lhs sweep failed: {stderr}");
    assert!(stdout.contains("sweeping 32 scenarios"));
    let first = std::fs::read(format!("{prefix_str}.jsonl")).unwrap();

    let (ok, _, _) = rvz(&[
        "sweep",
        "--lhs",
        "32",
        "--seed",
        "7",
        "--r",
        "0.2",
        "--threads",
        "4",
        "--out",
        prefix_str,
    ]);
    assert!(ok);
    let second = std::fs::read(format!("{prefix_str}.jsonl")).unwrap();
    assert_eq!(first, second, "same seed must reproduce the same artifact");

    for ext in ["jsonl", "csv"] {
        let _ = std::fs::remove_file(format!("{prefix_str}.{ext}"));
    }
}

#[test]
fn sweep_rejects_bad_flags() {
    let (ok, _, stderr) = rvz(&["sweep", "--speeds", "fast"]);
    assert!(!ok);
    assert!(stderr.contains("comma-separated numbers"));

    let (ok, _, stderr) = rvz(&["sweep", "--lhs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("positive sample count"));

    let (ok, _, stderr) = rvz(&["sweep", "--algos", "dance"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"));

    let (ok, _, stderr) = rvz(&["sweep", "--horizon-rounds", "0"]);
    assert!(!ok);
    assert!(stderr.contains("`--horizon-rounds` must be in 1..=31"));

    let (ok, _, stderr) = rvz(&["map", "--horizon-rounds", "abc"]);
    assert!(!ok);
    assert!(stderr.contains("`--horizon-rounds` expects an integer"));
}

#[test]
fn map_confirms_every_cell() {
    let (ok, stdout, stderr) = rvz(&["map", "--threads", "2"]);
    assert!(ok, "map failed: {stderr}");
    assert!(stdout.contains("Theorem 4"));
    assert!(stdout.contains("F:clock"));
    assert!(stdout.contains("16/16 cells confirmed by simulation"));
}

#[test]
fn sweep_no_prune_flag_is_accepted_and_consistent() {
    let prefix = out_prefix("no-prune");
    let prefix_str = prefix.to_str().unwrap();
    let args_tail = [
        "--speeds",
        "0.5,1.0",
        "--clocks",
        "1.0",
        "--phis",
        "0",
        "--chis",
        "+1",
        "--distances",
        "0.9",
        "--r",
        "0.25",
        "--threads",
        "2",
        "--out",
        prefix_str,
    ];
    let mut with_flag: Vec<&str> = vec!["sweep", "--no-prune"];
    with_flag.extend_from_slice(&args_tail);
    let (ok, stdout, stderr) = rvz(&with_flag);
    assert!(ok, "sweep --no-prune failed: {stderr}");
    assert!(stdout.contains("theorem-4 consistency: 2/2"));
    for ext in ["jsonl", "csv"] {
        let _ = std::fs::remove_file(format!("{prefix_str}.{ext}"));
    }
}
