//! End-to-end tests of the `rvz` command-line tool.

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

#[test]
fn feasibility_verdicts() {
    let (ok, stdout, _) = rvz(&["feasibility", "--tau", "0.5"]);
    assert!(ok);
    assert!(stdout.contains("feasible via asymmetric clocks"));

    let (ok, stdout, _) = rvz(&["feasibility"]);
    assert!(ok);
    assert!(stdout.contains("infeasible"));

    let (ok, stdout, _) = rvz(&["feasibility", "--chi", "-1", "--phi", "1.0"]);
    assert!(ok);
    assert!(stdout.contains("mirror twins"));
}

#[test]
fn search_reports_discovery_and_bound() {
    let (ok, stdout, _) = rvz(&["search", "--x", "0.7", "--y", "0.9", "--r", "0.01"]);
    assert!(ok);
    assert!(stdout.contains("discovered at t ="));
    assert!(stdout.contains("Theorem 1 bound"));
}

#[test]
fn rendezvous_simulates() {
    let (ok, stdout, _) = rvz(&[
        "rendezvous",
        "--dx",
        "0.3",
        "--dy",
        "0.8",
        "--r",
        "0.25",
        "--tau",
        "0.6",
    ]);
    assert!(ok);
    assert!(stdout.contains("contact at t="));
}

#[test]
fn phases_prints_schedule() {
    let (ok, stdout, _) = rvz(&["phases", "--rounds", "3"]);
    assert!(ok);
    assert!(stdout.contains("I(n)"));
    assert_eq!(stdout.lines().count(), 4); // header + 3 rounds
}

#[test]
fn bounds_covers_both_clock_regimes() {
    let (ok, stdout, _) = rvz(&["bounds", "--d", "1.0", "--r", "0.01", "--v", "0.5"]);
    assert!(ok);
    assert!(stdout.contains("Theorem 2"));

    let (ok, stdout, _) = rvz(&["bounds", "--d", "1.0", "--r", "0.01", "--tau", "0.7"]);
    assert!(ok);
    assert!(stdout.contains("Lemma 13 round bound"));
}

#[test]
fn errors_are_reported_with_usage() {
    // The retired benchmark harnesses are unknown commands like any other.
    for command in ["unknown-command", "bench-engine", "loadtest"] {
        let (ok, _, stderr) = rvz(&[command, "--quick"]);
        assert!(!ok, "`rvz {command}` succeeded");
        assert!(stderr.contains("unknown command"), "{command}: {stderr}");
        assert!(stderr.contains("USAGE"), "{command}: {stderr}");
    }

    let (ok, _, stderr) = rvz(&["search", "--x", "1.0"]);
    assert!(!ok);
    assert!(stderr.contains("missing required flag"));

    let (ok, _, stderr) = rvz(&["feasibility", "--v", "abc"]);
    assert!(!ok);
    assert!(stderr.contains("expects a number"));

    let (ok, _, stderr) = rvz(&["feasibility", "--chi", "2"]);
    assert!(!ok);
    assert!(stderr.contains("expects +1 or -1"));
}
