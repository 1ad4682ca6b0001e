//! End-to-end tests of the `rvz serve` and `rvz client` subcommands: a
//! real child process on an ephemeral port, driven over real sockets.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

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

/// Starts `rvz serve --port 0` and scrapes the bound port from the
/// startup banner.
fn spawn_server(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rvz"))
        .args(["serve", "--port", "0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("a banner line")
        .expect("readable stdout");
    // Keep draining the pipe so the server never blocks (or breaks) on
    // a closed stdout.
    std::thread::spawn(move || for _ in lines {});
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected banner: {banner}"
    );
    (child, addr)
}

fn client(addr: &str, args: &[&str]) -> (bool, String) {
    let (ok, stdout, _) = rvz(&[&["client", "--addr", addr][..], args].concat());
    (ok, stdout)
}

#[test]
fn serve_answers_queries_and_shuts_down_gracefully() {
    let (mut child, addr) = spawn_server(&[]);

    // Feasibility over the wire.
    let (ok, out) = client(&addr, &["--path", "/feasibility?tau=0.5"]);
    assert!(ok, "feasibility query failed: {out}");
    assert!(out.contains("\"breaker\":\"clocks\""));

    // First contact misses, its role-swap twin hits the same entry.
    let base = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
    let twin = r#"{"speed":2,"distance":1.8,"visibility":0.5,"bearing":4.188790204786391}"#;
    let (ok, out) = client(&addr, &["--path", "/first-contact", "--body", base]);
    assert!(ok);
    assert!(out.contains("X-Rvz-Cache: miss"), "first query: {out}");
    assert!(out.contains("\"outcome\":\"contact\""));
    let (ok, out) = client(&addr, &["--path", "/first-contact", "--body", twin]);
    assert!(ok);
    assert!(
        out.contains("X-Rvz-Cache: hit"),
        "symmetric twin should hit: {out}"
    );
    assert!(out.contains("\"swapped\":true"));

    // Batch sweep: both scenarios already cached from above? Only the
    // first orbit is; the second is new.
    let batch = r#"{"scenarios":[
        {"speed":0.5,"distance":0.9,"visibility":0.25},
        {"time_unit":0.6,"distance":0.9,"visibility":0.25}
    ]}"#;
    let (ok, out) = client(&addr, &["--path", "/sweep", "--body", batch]);
    assert!(ok, "sweep failed: {out}");
    assert!(out.contains("X-Rvz-Cache: hits=1;misses=1"), "{out}");
    assert!(out.contains("\"consistent\":2"));

    // Graceful shutdown: the child process exits cleanly.
    let (ok, out) = client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    assert!(ok);
    assert!(out.contains("\"shutting_down\":true"));
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
}

#[test]
fn client_reports_server_errors_with_nonzero_exit() {
    let (mut child, addr) = spawn_server(&[]);
    let (ok, stdout, stderr) = rvz(&[
        "client",
        "--addr",
        &addr,
        "--path",
        "/first-contact",
        "--body",
        "{\"speed\":-1}",
    ]);
    assert!(!ok, "a 400 should fail the client");
    assert!(stdout.contains("HTTP 400"));
    assert!(stderr.contains("status 400"));
    let (_, _) = client(&addr, &["--path", "/shutdown", "--method", "POST"]);
    child.wait().expect("serve exits");
}

#[test]
fn per_subcommand_help_and_version() {
    let (ok, stdout, _) = rvz(&["version"]);
    assert!(ok);
    assert!(stdout.starts_with("rvz "));
    let (ok, stdout, _) = rvz(&["--version"]);
    assert!(ok);
    assert!(stdout.starts_with("rvz "));

    for cmd in [
        "feasibility",
        "search",
        "rendezvous",
        "phases",
        "bounds",
        "sweep",
        "map",
        "serve",
        "client",
    ] {
        let (ok, stdout, _) = rvz(&[cmd, "--help"]);
        assert!(ok, "`rvz {cmd} --help` failed");
        assert!(
            stdout.contains("USAGE:") && stdout.contains(cmd),
            "`rvz {cmd} --help` output is not a usage string: {stdout}"
        );
    }
}

#[test]
fn unknown_flags_name_the_subcommand() {
    let (ok, _, stderr) = rvz(&["sweep", "--warp-speed", "9"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--warp-speed` for `rvz sweep`"));
    assert!(stderr.contains("USAGE:"));
    assert!(
        stderr.contains("rvz sweep ["),
        "points at sweep usage: {stderr}"
    );

    // A sweep runs every scenario through one per-scenario call: there
    // is no orbit-dedup fork. The out-of-range horizon makes a sweep
    // that took the flag exit instead of running.
    let (ok, _, stderr) = rvz(&["sweep", "--dedup-orbits", "--horizon-rounds", "0"]);
    assert!(!ok, "rvz sweep accepted --dedup-orbits");
    assert!(
        stderr.contains("unknown flag `--dedup-orbits` for `rvz sweep`"),
        "{stderr}"
    );

    let (ok, _, stderr) = rvz(&["serve", "--por", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--por` for `rvz serve`"));

    // Every serve request resolves through the cache on its own worker:
    // there is no cache bypass and no per-sweep thread pool. The
    // out-of-range port makes a serve that took the flag exit instead
    // of listening.
    for (flag, args) in [
        ("no-cache", &["serve", "--no-cache"][..]),
        ("sweep-threads", &["serve", "--sweep-threads", "2"][..]),
    ] {
        let (ok, _, stderr) = rvz(&[args, &["--port", "70000"]].concat());
        assert!(!ok, "rvz serve accepted --{flag}");
        assert!(
            stderr.contains(&format!("unknown flag `--{flag}` for `rvz serve`")),
            "{stderr}"
        );
    }

    // The piece budget belongs to serve's compiled path alone: sweep
    // and map run every scenario on the cursor engine.
    for cmd in ["sweep", "map"] {
        let (ok, _, stderr) = rvz(&[cmd, "--compile-budget", "0"]);
        assert!(!ok, "rvz {cmd} accepted --compile-budget");
        assert!(
            stderr.contains(&format!("unknown flag `--compile-budget` for `rvz {cmd}`")),
            "{stderr}"
        );
    }
}
