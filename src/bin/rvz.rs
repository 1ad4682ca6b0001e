//! `rvz` — command-line front end for the plane-rendezvous library.
//!
//! ```text
//! rvz feasibility --v 1.0 --tau 0.5 --phi 0 --chi +1
//! rvz rendezvous  --dx 0.3 --dy 0.8 --r 0.05 --v 0.6
//! rvz sweep       --speeds 0.5,1 --clocks 0.6,1 --out sweep
//! rvz serve       --port 7878
//! rvz <command> --help
//! ```
//!
//! Arguments are `--key value` pairs; each subcommand declares its flag
//! set, so a misspelled flag fails with that subcommand's usage string
//! rather than being silently ignored. The tool is deliberately
//! dependency-free (no clap) — it exists so that a user can poke at the
//! model, the sweep harness and the query service without writing Rust.

use plane_rendezvous::core::{completion_time, first_sufficient_overlap_round, WaitAndSearch};
use plane_rendezvous::experiments::{
    latin_hypercube, parse_chirality, run_sweep, run_sweep_with, write_csv, write_jsonl, Algorithm,
    FaultPlan, SampleSpace, ScenarioGrid, Summary, SweepOptions, SweepRecord,
};
use plane_rendezvous::prelude::*;
use plane_rendezvous::server::{Service, ServiceOptions};
use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        // Bare `version` goes through its CommandSpec (so `rvz version
        // --help` prints usage like every other command).
        "--version" | "-V" => {
            println!("rvz {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let Some(spec) = COMMANDS.iter().find(|spec| spec.name == command.as_str()) else {
        eprintln!("error: unknown command `{command}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", spec.usage);
        return ExitCode::SUCCESS;
    }
    let result = parse_flags(rest, spec).and_then(|opts| (spec.run)(&opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", spec.usage);
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
rvz — rendezvous in the plane by robots with unknown attributes (PODC 2019)

USAGE:
  rvz <command> [--flag value ...]
  rvz <command> --help        per-command flags and semantics

COMMANDS:
  feasibility   Theorem 4 verdict for an attribute combination
  search        exact Algorithm 4 discovery time for a stationary target
  rendezvous    simulate the universal Algorithm 7 on one instance
  phases        print the Algorithm 7 phase schedule
  bounds        closed-form bounds (Theorems 1/2, Lemma 13)
  sweep         parallel scenario sweep -> JSONL + CSV artifacts
  map           Theorem 4 feasibility map, confirmed by simulation
  serve         HTTP query service with the symmetry-canonicalized cache
  client        one-shot HTTP client for a running rvz serve
  version       print the rvz version

All numeric flags take plain numbers; angles are in radians.";

/// One subcommand: name, flag schema, usage text, handler.
struct CommandSpec {
    name: &'static str,
    /// `(flag, takes_value)`; flags with `false` are boolean switches.
    flags: &'static [(&'static str, bool)],
    usage: &'static str,
    run: fn(&Flags) -> Result<(), String>,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "feasibility",
        flags: &[("v", true), ("tau", true), ("phi", true), ("chi", true)],
        usage: "\
USAGE:
  rvz feasibility [--v V] [--tau T] [--phi P] [--chi +1|-1]

Theorem 4 verdict for the attribute combination (defaults: the
reference robot's twin, v = tau = 1, phi = 0, chi = +1).",
        run: cmd_feasibility,
    },
    CommandSpec {
        name: "search",
        flags: &[("x", true), ("y", true), ("r", true), ("max-round", true)],
        usage: "\
USAGE:
  rvz search --x X --y Y --r R [--max-round K]

Exact Algorithm 4 discovery time for a stationary target at (X, Y)
with visibility radius R; reports the Theorem 1 bound when d²/r ≥ 2.",
        run: cmd_search,
    },
    CommandSpec {
        name: "rendezvous",
        flags: &[
            ("dx", true),
            ("dy", true),
            ("r", true),
            ("v", true),
            ("tau", true),
            ("phi", true),
            ("chi", true),
            ("horizon", true),
        ],
        usage: "\
USAGE:
  rvz rendezvous --dx X --dy Y --r R [--v V] [--tau T] [--phi P]
                 [--chi +1|-1] [--horizon H]

Simulate the universal Algorithm 7 on the instance with R' placed at
(X, Y) and the given attributes.",
        run: cmd_rendezvous,
    },
    CommandSpec {
        name: "phases",
        flags: &[("rounds", true), ("tau", true)],
        usage: "\
USAGE:
  rvz phases [--rounds N] [--tau T]

Print the Algorithm 7 phase schedule (and its tau-scaled copy).",
        run: cmd_phases,
    },
    CommandSpec {
        name: "bounds",
        flags: &[
            ("d", true),
            ("r", true),
            ("v", true),
            ("tau", true),
            ("phi", true),
            ("chi", true),
        ],
        usage: "\
USAGE:
  rvz bounds --d D --r R [--v V] [--phi P] [--chi +1|-1] [--tau T]

Closed-form bounds: Theorem 1/2, and Lemma 13's k* when tau ≠ 1.",
        run: cmd_bounds,
    },
    CommandSpec {
        name: "sweep",
        flags: &[
            ("speeds", true),
            ("clocks", true),
            ("phis", true),
            ("chis", true),
            ("distances", true),
            ("bearings", true),
            ("r", true),
            ("algos", true),
            ("lhs", true),
            ("seed", true),
            ("threads", true),
            ("max-steps", true),
            ("horizon-rounds", true),
            ("no-prune", false),
            ("out", true),
            ("checkpoint", true),
            ("resume", false),
            ("faults", true),
            ("heartbeat", false),
        ],
        usage: "\
USAGE:
  rvz sweep [--speeds L] [--clocks L] [--phis L] [--chis L] [--distances L]
            [--bearings L] [--r R] [--algos L] [--lhs N] [--seed S]
            [--threads N] [--max-steps M] [--horizon-rounds K] [--no-prune]
            [--out PREFIX] [--checkpoint PATH] [--resume] [--faults SPEC]
            [--heartbeat]

Run a parallel scenario sweep (grid by default, Latin-hypercube sample
with --lhs N) on the monotone-cursor engine and write PREFIX.jsonl +
PREFIX.csv. List flags (L) take comma-separated values, e.g. --speeds
0.5,1. --no-prune disables the engine's swept-envelope pruning layer
(A/B escape hatch). Contacts stay the same, but disproofs that pruning
certifies in one step (mirror twins off the Theorem 4 axis) step
instead and can end as step_budget where the pruned run says horizon.

Checkpointing: --checkpoint PATH journals finished records (a header
line pinning the sweep, then one CRC-framed JSON record per line,
fsync'd) so a killed sweep can continue with --resume, which replays
the journal's valid prefix and computes only what is missing — the
artifacts are bit-identical to an uninterrupted run,
independent of --threads and of where the kill landed. Records are
written and synced in batches: on the first record at least 250 ms
after the last sync, and at the end. A kill -9 loses the records
finished since the last sync (about 250 ms of work), and the resume
recomputes them. A journal from a different sweep (flags or scenario
set changed) or an older build is refused.
--faults injects seeded disk faults into the checkpoint I/O: the `rvz
serve --faults` grammar without its serve-only keys (keys: seed,
short_write, torn_rename, read_corrupt, fsync_fail, limit) — tests/CI
only.

--heartbeat prints a progress line to stderr about once a second
(done/total, rate, elapsed) and once when the sweep ends. Observation-only: artifacts and
checkpoints are byte-identical with it on or off.",
        run: cmd_sweep,
    },
    CommandSpec {
        name: "map",
        flags: &[
            ("speeds", true),
            ("clocks", true),
            ("phis", true),
            ("d", true),
            ("r", true),
            ("threads", true),
            ("max-steps", true),
            ("horizon-rounds", true),
            ("no-prune", false),
        ],
        usage: "\
USAGE:
  rvz map [--speeds L] [--clocks L] [--phis L] [--d D] [--r R] [--threads N]
          [--max-steps M] [--horizon-rounds K] [--no-prune]

Print the Theorem 4 feasibility map over the attribute grid and confirm
every cell by simulation. Raise --horizon-rounds (default 9) and
--max-steps for hard instances (large d²/r).",
        run: cmd_map,
    },
    CommandSpec {
        name: "serve",
        flags: &[
            ("addr", true),
            ("port", true),
            ("workers", true),
            ("cache-capacity", true),
            ("cache-grid", true),
            ("max-steps", true),
            ("horizon-rounds", true),
            ("no-prune", false),
            ("compile-budget", true),
            ("deadline-ms", true),
            ("max-inflight", true),
            ("queue-depth", true),
            ("drain-ms", true),
            ("faults", true),
            ("snapshot", true),
            ("snapshot-interval-s", true),
            ("no-metrics", false),
            ("slow-log-ms", true),
        ],
        usage: "\
USAGE:
  rvz serve [--addr A] [--port P] [--workers N] [--cache-capacity N]
            [--cache-grid G] [--max-steps M] [--horizon-rounds K]
            [--no-prune] [--compile-budget P] [--deadline-ms D]
            [--max-inflight N] [--queue-depth N] [--drain-ms D] [--faults SPEC]
            [--snapshot PATH] [--snapshot-interval-s S]
            [--no-metrics] [--slow-log-ms T]

Serve feasibility/first-contact/sweep queries over HTTP/1.1 with a
sharded LRU cache keyed by each scenario's attribute-symmetry orbit.
--port 0 binds an ephemeral port (printed on startup). --cache-grid is
the canonicalization step, snapped to a power of two (default 2^-30;
0 = bit-exact keys). Every /first-contact and every /sweep scenario
resolves through the cache, one entry per orbit; a miss runs on the
worker handling its request, so --workers bounds concurrent engine
work. --max-steps, --horizon-rounds and --no-prune act as for `rvz
sweep` (so --no-prune can turn one-step disproofs into step_budget
answers), applied in each orbit's canonical frame. A miss runs
the SoA lane kernel on arenas streamed under --compile-budget pieces
per trajectory (default 32768) and falls back to the cursor engine
when the kernel refuses; 0 serves every miss on the cursor engine.
Stop with POST /shutdown.

Overload controls: --deadline-ms caps each request's engine wall clock,
shared by a /sweep's scenarios (outcome \"deadline\", never cached;
default: none), --max-inflight bounds concurrent engine requests
(excess shed with 503 + Retry-After; default: unlimited),
--queue-depth bounds accepted-but-unserved
connections (overflow shed with 503; default 1024), --drain-ms is the
graceful-shutdown drain deadline (default 5000). --faults takes one
seeded fault-injection spec `key=value,...` for the whole process, one
seed and limit for all nine sites (keys: seed, worker_panic,
handler_panic, cache_fail, conn_reset, delay_rate, delay_ms,
short_write, torn_rename, read_corrupt, fsync_fail, limit) — tests/CI
only.

Durability: --snapshot PATH warm-starts the cache from a crash-safe
snapshot at boot (the sweep checkpoint's journal format, one CRC-framed
record per cached orbit; torn/corrupt/version-skewed files degrade to a
salvaged prefix or a cold start, never a refusal to boot), rewrites it
every --snapshot-interval-s seconds (default 30; temp + fsync + atomic
rename, a kill can never destroy the previous snapshot), and once more
on graceful drain. The restore outcome (cold|warm|salvaged n) is in
the boot banner and GET /stats.

Observability: every response carries an X-Rvz-Trace ID (echoed from
the request's X-Rvz-Trace header when it is 16 hex digits, otherwise
assigned from a deterministic sequence). GET /metrics serves the
Prometheus text exposition (request/cache/engine/fault counters and
latency histograms); GET /trace/recent serves the span flight
recorder as JSON (?n= caps the count). --slow-log-ms T logs one JSON
line to stderr for every request at or above T milliseconds (trace,
endpoint, status, cache outcome, orbit, engine work profile).
--no-metrics disables all metric recording and makes /metrics and
/trace/recent answer 404 like any unknown endpoint — result bodies
and headers are byte-identical either way.

ENDPOINTS:
  GET  /feasibility?v=&tau=&phi=&chi=   Theorem 4 verdict + orbit
  POST /feasibility                     same, scenario JSON body
  POST /first-contact                   engine outcome for one scenario
  POST /sweep                           {\"scenarios\": [...]} batch
  GET  /metrics | GET /trace/recent     observability (unless --no-metrics)
  GET  /stats | GET /healthz | POST /shutdown",
        run: cmd_serve,
    },
    CommandSpec {
        name: "client",
        flags: &[
            ("addr", true),
            ("path", true),
            ("method", true),
            ("body", true),
            ("timeout-ms", true),
            ("retries", true),
        ],
        usage: "\
USAGE:
  rvz client --addr HOST:PORT --path /endpoint [--method GET|POST]
             [--body JSON] [--timeout-ms T] [--retries N]

One-shot HTTP client for a running `rvz serve`: sends a single request
and prints the status, the X-Rvz-Cache (hit/miss, or hits=H;misses=M
for /sweep) and X-Rvz-Trace headers when present, and the response
body. The method defaults to GET without a body and POST with one. --timeout-ms bounds both the connect and the
read (default: connect 5000, read 30000). --retries N retries `503
Retry-After` sheds up to N times with capped jittered backoff,
sleeping at least the server's Retry-After hint (default 0: fail
fast).",
        run: cmd_client,
    },
    CommandSpec {
        name: "version",
        flags: &[],
        usage: "\
USAGE:
  rvz version

Print the rvz version.",
        run: |_| {
            println!("rvz {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        },
    },
];

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String], spec: &CommandSpec) -> Result<Flags, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected `--flag`, got `{key}`"));
        };
        let Some(&(name, takes_value)) = spec.flags.iter().find(|(f, _)| *f == name) else {
            return Err(format!("unknown flag `--{name}` for `rvz {}`", spec.name));
        };
        if !takes_value {
            map.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("flag `--{name}` needs a value"));
        };
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn get_f64(opts: &Flags, key: &str, default: Option<f64>) -> Result<f64, String> {
    match opts.get(key) {
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("`--{key}` expects a number, got `{v}`")),
        None => default.ok_or_else(|| format!("missing required flag `--{key}`")),
    }
}

fn get_u32(opts: &Flags, key: &str, default: u32) -> Result<u32, String> {
    match opts.get(key) {
        Some(v) => v
            .parse::<u32>()
            .map_err(|_| format!("`--{key}` expects an integer, got `{v}`")),
        None => Ok(default),
    }
}

fn get_usize(opts: &Flags, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("`--{key}` expects an integer, got `{v}`")),
        None => Ok(default),
    }
}

/// `--timeout-ms`, validated eagerly: zero is rejected by name so a
/// misconfigured run fails before any socket is opened.
fn get_timeout_ms(opts: &Flags) -> Result<Option<u64>, String> {
    match opts.get("timeout-ms") {
        None => Ok(None),
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("`--timeout-ms` expects an integer, got `{v}`"))?;
            if ms == 0 {
                return Err("`--timeout-ms` must be positive (milliseconds)".into());
            }
            Ok(Some(ms))
        }
    }
}

fn get_list_f64(opts: &Flags, key: &str) -> Result<Option<Vec<f64>>, String> {
    let Some(raw) = opts.get(key) else {
        return Ok(None);
    };
    raw.split(',')
        .map(|v| {
            v.trim()
                .parse::<f64>()
                .map_err(|_| format!("`--{key}` expects comma-separated numbers, got `{v}`"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

fn get_chirality(opts: &Flags) -> Result<Chirality, String> {
    match opts.get("chi") {
        None => Ok(Chirality::Consistent),
        Some(s) => parse_chirality(s).map_err(|_| format!("`--chi` expects +1 or -1, got `{s}`")),
    }
}

fn get_algorithms(opts: &Flags) -> Result<Option<Vec<Algorithm>>, String> {
    let Some(raw) = opts.get("algos") else {
        return Ok(None);
    };
    raw.split(',')
        .map(|s| Algorithm::parse(s.trim()))
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Applies the shared engine-tuning flags (`--threads`, `--max-steps`,
/// `--horizon-rounds`, `--no-prune`, and `--compile-budget`, which only
/// `rvz serve` accepts) on top of the sweep defaults.
fn sweep_options(opts: &Flags) -> Result<SweepOptions, String> {
    let mut sweep_opts = SweepOptions {
        threads: get_usize(opts, "threads", 0)?,
        ..SweepOptions::default()
    };
    if let Some(max_steps) = opts.get("max-steps") {
        sweep_opts.contact.max_steps = max_steps
            .parse::<u64>()
            .map_err(|_| format!("`--max-steps` expects an integer, got `{max_steps}`"))?;
    }
    if let Some(rounds) = opts.get("horizon-rounds") {
        let k = rounds
            .parse::<u32>()
            .map_err(|_| format!("`--horizon-rounds` expects an integer, got `{rounds}`"))?;
        if !(1..=31).contains(&k) {
            return Err("`--horizon-rounds` must be in 1..=31".into());
        }
        sweep_opts.contact.horizon = completion_time(k);
    }
    if opts.contains_key("no-prune") {
        sweep_opts.contact.prune = false;
    }
    if let Some(budget) = opts.get("compile-budget") {
        sweep_opts.compile_pieces = budget
            .parse::<usize>()
            .map_err(|_| format!("`--compile-budget` expects an integer, got `{budget}`"))?;
    }
    Ok(sweep_opts)
}

fn attributes(opts: &Flags) -> Result<RobotAttributes, String> {
    let v = get_f64(opts, "v", Some(1.0))?;
    let tau = get_f64(opts, "tau", Some(1.0))?;
    let phi = get_f64(opts, "phi", Some(0.0))?;
    if v <= 0.0 || tau <= 0.0 {
        return Err("speed and time unit must be positive".into());
    }
    Ok(RobotAttributes::new(v, tau, phi, get_chirality(opts)?))
}

fn cmd_feasibility(opts: &Flags) -> Result<(), String> {
    let attrs = attributes(opts)?;
    println!("attributes: {attrs}");
    println!("verdict:    {}", feasibility(&attrs));
    Ok(())
}

fn cmd_search(opts: &Flags) -> Result<(), String> {
    let x = get_f64(opts, "x", None)?;
    let y = get_f64(opts, "y", None)?;
    let r = get_f64(opts, "r", None)?;
    let max_round = get_u32(opts, "max-round", 31)?;
    let inst = SearchInstance::new(Vec2::new(x, y), r).map_err(|e| e.to_string())?;
    println!(
        "instance: target ({x}, {y}), d = {:.6}, r = {r}, d²/r = {:.3}",
        inst.distance(),
        inst.difficulty()
    );
    match first_discovery(&inst, max_round.min(31)) {
        Some(found) => {
            println!(
                "discovered at t = {:.6} (round {}, sub-round {}, circle {}, {:?})",
                found.time, found.round, found.subround, found.circle, found.event
            );
            if inst.difficulty() >= 2.0 {
                let bound = coverage::theorem1_bound(inst.distance(), r);
                println!(
                    "Theorem 1 bound: {bound:.3}  (measured/bound = {:.4})",
                    found.time / bound
                );
            }
        }
        None => println!("not discovered within {max_round} rounds"),
    }
    Ok(())
}

fn cmd_rendezvous(opts: &Flags) -> Result<(), String> {
    let dx = get_f64(opts, "dx", None)?;
    let dy = get_f64(opts, "dy", None)?;
    let r = get_f64(opts, "r", None)?;
    let attrs = attributes(opts)?;
    let inst = RendezvousInstance::new(Vec2::new(dx, dy), r, attrs).map_err(|e| e.to_string())?;
    println!("instance: {inst}");
    println!("Theorem 4: {}", feasibility(&attrs));
    let horizon = get_f64(opts, "horizon", Some(completion_time(12)))?;
    let out = simulate_rendezvous(
        WaitAndSearch,
        &inst,
        &ContactOptions::with_horizon(horizon).tolerance(r * 1e-6),
    );
    println!("Algorithm 7 simulation: {out}");
    Ok(())
}

fn cmd_phases(opts: &Flags) -> Result<(), String> {
    let rounds = get_u32(opts, "rounds", 6)?.clamp(1, 20);
    let tau = get_f64(opts, "tau", Some(1.0))?;
    if tau <= 0.0 {
        return Err("`--tau` must be positive".into());
    }
    println!(
        "{:>3} | {:>16} | {:>16} | {:>16}",
        "n", "I(n)", "A(n)", "round end"
    );
    for n in 1..=rounds {
        println!(
            "{n:>3} | {:>16.2} | {:>16.2} | {:>16.2}",
            tau * PhaseSchedule::inactive_start(n),
            tau * PhaseSchedule::active_start(n),
            tau * PhaseSchedule::round_end(n)
        );
    }
    if tau != 1.0 {
        println!("(boundaries scaled by τ = {tau})");
    }
    Ok(())
}

fn cmd_bounds(opts: &Flags) -> Result<(), String> {
    let d = get_f64(opts, "d", None)?;
    let r = get_f64(opts, "r", None)?;
    let attrs = attributes(opts)?;
    if d <= 0.0 || r <= 0.0 {
        return Err("`--d` and `--r` must be positive".into());
    }
    if d * d / r >= 2.0 {
        println!(
            "Theorem 1 (search): T < {:.3}",
            coverage::theorem1_bound(d, r)
        );
    }
    if attrs.time_unit() == 1.0 {
        if attrs.speed() <= 1.0 {
            let inst =
                RendezvousInstance::new(Vec2::new(0.0, d), r, attrs).map_err(|e| e.to_string())?;
            println!("Theorem 2 (rendezvous, τ = 1): {}", theorem2_bound(&inst));
        } else {
            println!("Theorem 2: normalize so the reference robot is fastest (v ≤ 1)");
        }
    } else {
        let tau = attrs.time_unit();
        let tau_norm = if tau < 1.0 { tau } else { 1.0 / tau };
        let n = coverage::guaranteed_discovery_round(d, r)
            .ok_or("instance beyond the supported round horizon")?;
        let dec = tau_decomposition(tau_norm);
        let k_star = lemma13_round_bound(tau_norm, n);
        println!("stationary-find round n = {n}");
        println!("τ = {tau} ⇒ t·2^-a with a = {}, t = {:.4}", dec.a, dec.t);
        println!("Lemma 13 round bound: k* = {k_star}");
        if k_star <= 31 {
            println!("complete-by time: I(k*+1) = {:.3}", completion_time(k_star));
            if let Some(meas) = first_sufficient_overlap_round(tau_norm, n) {
                println!("analytic sufficient-overlap round: {meas}");
            }
        } else {
            println!("(k* beyond the supported schedule horizon of 31 rounds)");
        }
    }
    Ok(())
}

fn save_artifact<F>(path: &str, records: &[SweepRecord], write: F) -> Result<(), String>
where
    F: FnOnce(&mut std::io::BufWriter<std::fs::File>, &[SweepRecord]) -> std::io::Result<()>,
{
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    write(&mut w, records)
        .and_then(|()| w.flush())
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// `rvz sweep --heartbeat`: a stderr progress line about once a second
/// while records arrive, plus a final line when the sweep returns. It
/// counts the records the sweep computes, so a resumed sweep's count
/// stops short of the total by the records it salvaged.
struct Heartbeat {
    total: usize,
    done: usize,
    started: Instant,
    last: Instant,
}

impl Heartbeat {
    fn new(total: usize) -> Heartbeat {
        let now = Instant::now();
        Heartbeat {
            total,
            done: 0,
            started: now,
            last: now,
        }
    }

    /// Counts one record; prints when a second has passed since the
    /// last line, leaving the last record's line to [`Heartbeat::report`].
    fn tick(&mut self) {
        self.done += 1;
        if self.done < self.total && self.last.elapsed() >= std::time::Duration::from_secs(1) {
            self.last = Instant::now();
            self.report();
        }
    }

    fn report(&self) {
        let secs = self.started.elapsed().as_secs_f64();
        eprintln!(
            "rvz-sweep: {}/{} scenarios ({:.1}/s, {:.1}s elapsed)",
            self.done,
            self.total,
            self.done as f64 / secs.max(1e-9),
            secs,
        );
    }
}

fn cmd_sweep(opts: &Flags) -> Result<(), String> {
    let r = get_f64(opts, "r", Some(0.1))?;
    if r <= 0.0 {
        return Err("`--r` must be positive".into());
    }

    let scenarios = if opts.contains_key("lhs") {
        let n = get_usize(opts, "lhs", 0)?;
        if n == 0 {
            return Err("`--lhs` expects a positive sample count".into());
        }
        let seed = get_usize(opts, "seed", 0)? as u64;
        let mut space = SampleSpace {
            visibility: r,
            ..Default::default()
        };
        if let Some(algos) = get_algorithms(opts)? {
            space.algorithms = algos;
        }
        latin_hypercube(&space, n, seed)
    } else {
        let mut grid = ScenarioGrid::new()
            .visibilities(&[r])
            .speeds(&[0.5, 0.75, 1.0, 1.25])
            .clocks(&[0.5, 1.0, 1.5])
            .orientations(&[0.0, std::f64::consts::FRAC_PI_2, std::f64::consts::PI])
            .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
            .distances(&[0.6, 1.0, 1.4]);
        if let Some(v) = get_list_f64(opts, "speeds")? {
            grid = grid.speeds(&v);
        }
        if let Some(v) = get_list_f64(opts, "clocks")? {
            grid = grid.clocks(&v);
        }
        if let Some(v) = get_list_f64(opts, "phis")? {
            grid = grid.orientations(&v);
        }
        if let Some(v) = get_list_f64(opts, "distances")? {
            grid = grid.distances(&v);
        }
        if let Some(v) = get_list_f64(opts, "bearings")? {
            grid = grid.bearings(&v);
        }
        if let Some(chis) = opts.get("chis") {
            let values = chis
                .split(',')
                .map(|s| parse_chirality(s.trim()))
                .collect::<Result<Vec<_>, _>>()?;
            grid = grid.chiralities(&values);
        }
        if let Some(algos) = get_algorithms(opts)? {
            grid = grid.algorithms(&algos);
        }
        grid.build()
    };

    let sweep_opts = sweep_options(opts)?;

    let checkpoint = opts.get("checkpoint").map(std::path::PathBuf::from);
    if opts.contains_key("resume") && checkpoint.is_none() {
        return Err("`--resume` needs `--checkpoint PATH` (there is nothing to resume)".into());
    }
    if opts.contains_key("faults") && checkpoint.is_none() {
        return Err("`--faults` only applies to checkpoint I/O; pass `--checkpoint PATH`".into());
    }
    let faults = opts
        .get("faults")
        .map(|spec| FaultPlan::parse_disk(spec).map_err(|e| format!("`--faults`: {e}")))
        .transpose()?
        .and_then(FaultPlan::arm);

    println!(
        "sweeping {} scenarios on {} threads ...",
        scenarios.len(),
        sweep_opts.effective_threads()
    );
    let start = Instant::now();
    let mut heartbeat = opts
        .contains_key("heartbeat")
        .then(|| Heartbeat::new(scenarios.len()));
    let on_record = |_: usize, _: &SweepRecord| {
        if let Some(heartbeat) = heartbeat.as_mut() {
            heartbeat.tick();
        }
    };
    // A checkpointed sweep renders each record once, into its journal,
    // and writes the JSONL artifact from those lines.
    let mut checkpointed = None;
    let records = if let Some(path) = &checkpoint {
        let (records, lines, stats) = plane_rendezvous::experiments::run_sweep_checkpointed(
            &scenarios,
            &sweep_opts,
            path,
            opts.contains_key("resume"),
            faults,
            on_record,
        )?;
        checkpointed = Some((lines, stats));
        records
    } else {
        run_sweep_with(&scenarios, &sweep_opts, on_record)
    };
    if let Some(heartbeat) = &heartbeat {
        heartbeat.report();
    }
    let wall = start.elapsed().as_secs_f64();

    let prefix = opts.get("out").map(String::as_str).unwrap_or("sweep");
    match &checkpointed {
        Some((lines, _)) => save_artifact(&format!("{prefix}.jsonl"), &records, |w, _| {
            lines.write_jsonl(w)
        })?,
        None => save_artifact(&format!("{prefix}.jsonl"), &records, write_jsonl)?,
    }
    save_artifact(&format!("{prefix}.csv"), &records, write_csv)?;

    print!("{}", Summary::from_records(&records).render());
    if let Some((_, stats)) = checkpointed {
        println!(
            "checkpoint: {} resumed, {} computed, {} torn lines dropped{}",
            stats.resumed,
            stats.computed,
            stats.dropped,
            if stats.sync_failures > 0 {
                format!(", {} sync failures", stats.sync_failures)
            } else {
                String::new()
            }
        );
    }
    println!(
        "wall time: {wall:.3} s  ({:.0} instances/s)",
        records.len() as f64 / wall
    );
    Ok(())
}

fn cmd_map(opts: &Flags) -> Result<(), String> {
    let speeds = get_list_f64(opts, "speeds")?.unwrap_or_else(|| vec![0.5, 1.0]);
    let clocks = get_list_f64(opts, "clocks")?.unwrap_or_else(|| vec![0.6, 1.0]);
    let phis = get_list_f64(opts, "phis")?.unwrap_or_else(|| vec![0.0, 1.3]);
    let d = get_f64(opts, "d", Some(0.9))?;
    let r = get_f64(opts, "r", Some(0.25))?;
    if d <= 0.0 || r <= 0.0 {
        return Err("`--d` and `--r` must be positive".into());
    }

    println!("Theorem 4: rendezvous is feasible iff τ≠1 ∨ v≠1 ∨ (χ=+1 ∧ 0<φ<2π)\n");
    for chi in [Chirality::Consistent, Chirality::Mirrored] {
        println!("χ = {chi}:");
        print!("  {:>12}", "v \\ (τ, φ)");
        for &tau in &clocks {
            for &phi in &phis {
                print!(" | τ={tau:<4} φ={phi:<4}");
            }
        }
        println!();
        for &v in &speeds {
            print!("  {v:>12}");
            for &tau in &clocks {
                for &phi in &phis {
                    let cell = match feasibility(&RobotAttributes::new(v, tau, phi, chi)) {
                        Feasibility::Feasible(SymmetryBreaker::AsymmetricClocks) => "F:clock",
                        Feasibility::Feasible(SymmetryBreaker::DifferentSpeeds) => "F:speed",
                        Feasibility::Feasible(SymmetryBreaker::OrientationOffset) => "F:orient",
                        Feasibility::Infeasible(_) => "  ---  ",
                    };
                    print!(" | {cell:^12}");
                }
            }
            println!();
        }
        println!();
    }

    // Confirm every cell by simulation through the sweep harness. The
    // placement bearing is adversarial for infeasible cells (along the
    // invariant direction) and arbitrary otherwise.
    let mut scenarios = Vec::new();
    for &v in &speeds {
        for &tau in &clocks {
            for &phi in &phis {
                for chi in [Chirality::Consistent, Chirality::Mirrored] {
                    let attrs = RobotAttributes::new(v, tau, phi, chi);
                    let bearing = match feasibility(&attrs) {
                        Feasibility::Feasible(_) => 1.1,
                        Feasibility::Infeasible(reason) => {
                            let dir = reason.invariant_direction();
                            dir.y.atan2(dir.x)
                        }
                    };
                    scenarios.push(plane_rendezvous::experiments::Scenario {
                        id: scenarios.len() as u64,
                        algorithm: Algorithm::WaitAndSearch,
                        speed: v,
                        time_unit: tau,
                        orientation: phi,
                        chirality: chi,
                        distance: d,
                        bearing,
                        visibility: r,
                    });
                }
            }
        }
    }

    let sweep_opts = sweep_options(opts)?;
    println!(
        "simulation confirmation (universal Algorithm 7, d = {d}, r = {r}, {} cells):",
        scenarios.len()
    );
    let records = run_sweep(&scenarios, &sweep_opts);
    let confirmed = records
        .iter()
        .filter(|rec| rec.strictly_consistent())
        .count();
    for rec in records.iter().filter(|rec| !rec.strictly_consistent()) {
        println!(
            "  MISMATCH at {}: predicate says {}, simulation says {}",
            rec.scenario.attributes(),
            rec.feasibility,
            rec.outcome
        );
    }
    println!(
        "  {confirmed}/{} cells confirmed by simulation",
        records.len()
    );
    if confirmed == records.len() {
        Ok(())
    } else {
        Err("feasibility map mismatch".into())
    }
}

fn cmd_serve(opts: &Flags) -> Result<(), String> {
    let addr = opts.get("addr").map(String::as_str).unwrap_or("127.0.0.1");
    let port = get_usize(opts, "port", 7878)?;
    if port > u16::MAX as usize {
        return Err("`--port` must fit in 16 bits".into());
    }
    let workers = match get_usize(opts, "workers", 0)? {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let cache_grid = get_f64(
        opts,
        "cache-grid",
        Some(plane_rendezvous::experiments::DEFAULT_GRID),
    )?;
    let deadline = match opts.get("deadline-ms") {
        None => None,
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("`--deadline-ms` expects an integer, got `{v}`"))?;
            if ms == 0 {
                return Err("`--deadline-ms` must be positive (milliseconds)".into());
            }
            Some(std::time::Duration::from_millis(ms))
        }
    };
    let faults = opts
        .get("faults")
        .map(|spec| FaultPlan::parse(spec).map_err(|e| format!("`--faults`: {e}")))
        .transpose()?;
    let slow_log_ms = match opts.get("slow-log-ms") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("`--slow-log-ms` expects an integer, got `{v}`"))?,
        ),
    };
    let no_metrics = opts.contains_key("no-metrics");
    if no_metrics {
        // Kill switch: every counter add, histogram observe, and span
        // record in the process becomes a no-op.
        plane_rendezvous::obs::set_enabled(false);
    }
    let service_opts = ServiceOptions {
        cache_capacity: get_usize(opts, "cache-capacity", 65_536)?.max(1),
        cache_grid,
        sweep: sweep_options(opts)?,
        deadline,
        max_inflight: get_usize(opts, "max-inflight", 0)?,
        faults,
        no_metrics,
        slow_log_ms,
        ..ServiceOptions::default()
    };
    let server_opts = plane_rendezvous::server::ServerOptions {
        workers,
        queue_depth: get_usize(opts, "queue-depth", 1024)?.max(1),
        drain: std::time::Duration::from_millis(get_usize(opts, "drain-ms", 5_000)? as u64),
    };
    let snapshot_path = opts.get("snapshot").map(std::path::PathBuf::from);
    let snapshot_interval = get_usize(opts, "snapshot-interval-s", 30)?.max(1) as u64;

    let service = Service::new(service_opts);
    // Restore before the listener exists: the first accepted request
    // already sees the warm cache.
    let restore = snapshot_path
        .as_ref()
        .map(|path| service.restore_from(path));

    let server =
        plane_rendezvous::server::spawn_with(&format!("{addr}:{port}"), service, &server_opts)
            .map_err(|e| format!("cannot bind {addr}:{port}: {e}"))?;
    println!("rvz serve listening on {}", server.addr());
    println!(
        "workers = {workers}, grid = {}, queue = {}, deadline = {}, metrics = {}",
        plane_rendezvous::experiments::snap_grid(cache_grid),
        server_opts.queue_depth,
        deadline.map_or("none".to_string(), |d| format!("{} ms", d.as_millis())),
        if no_metrics { "off" } else { "on" },
    );
    if let (Some(path), Some(outcome)) = (&snapshot_path, &restore) {
        println!(
            "snapshot: {} every {snapshot_interval} s, restore: {outcome}",
            path.display()
        );
    }
    println!(
        "stop with: rvz client --addr {} --path /shutdown --method POST",
        server.addr()
    );
    // Make the banner visible to parent processes (CI scrapes the port)
    // even when stdout is a pipe.
    std::io::stdout().flush().ok();

    // Periodic snapshots: a plain thread woken by interval timeout or
    // by the stop sender at drain time (mpsc doubles as the stop flag).
    let snapshotter = snapshot_path.as_ref().map(|path| {
        let service = std::sync::Arc::clone(server.service());
        let path = path.clone();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || loop {
            match stop_rx.recv_timeout(std::time::Duration::from_secs(snapshot_interval)) {
                Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            }
            if let Err(e) = service.write_snapshot_to(&path) {
                // Non-fatal by design: the previous snapshot is intact
                // and every entry is recomputable.
                eprintln!("rvz serve: snapshot write failed: {e}");
            }
        });
        (stop_tx, handle)
    });

    let service = std::sync::Arc::clone(server.service());
    let clean = server.join();
    if let Some((stop_tx, handle)) = snapshotter {
        stop_tx.send(()).ok();
        handle.join().ok();
    }
    // One final snapshot after drain, so a graceful stop always leaves
    // the freshest cache on disk.
    if let Some(path) = &snapshot_path {
        match service.write_snapshot_to(path) {
            Ok(entries) => println!(
                "rvz serve: final snapshot wrote {entries} entries to {}",
                path.display()
            ),
            Err(e) => eprintln!("rvz serve: final snapshot failed: {e}"),
        }
    }
    if clean {
        println!("rvz serve: shut down cleanly");
    } else {
        println!("rvz serve: drain deadline expired, detached stalled workers");
    }
    Ok(())
}

fn cmd_client(opts: &Flags) -> Result<(), String> {
    let addr = opts.get("addr").ok_or("missing required flag `--addr`")?;
    let path = opts.get("path").ok_or("missing required flag `--path`")?;
    let body = opts.get("body").map(String::as_str);
    let default_method = if body.is_some() { "POST" } else { "GET" };
    let method = opts
        .get("method")
        .map(String::as_str)
        .unwrap_or(default_method)
        .to_ascii_uppercase();
    let client_opts = match get_timeout_ms(opts)? {
        Some(ms) => {
            plane_rendezvous::server::ClientOptions::uniform(std::time::Duration::from_millis(ms))
        }
        None => plane_rendezvous::server::ClientOptions::default(),
    };
    let policy = plane_rendezvous::server::RetryPolicy::with_retries(get_u32(opts, "retries", 0)?);
    let response = plane_rendezvous::server::client::request_with_retry(
        addr,
        &method,
        path,
        body,
        &client_opts,
        &policy,
    )
    .map_err(|e| format!("request to {addr} failed: {e}"))?;
    println!("HTTP {}", response.status);
    if let Some(cache) = response.header("x-rvz-cache") {
        println!("X-Rvz-Cache: {cache}");
    }
    if let Some(trace) = response.header("x-rvz-trace") {
        println!("X-Rvz-Trace: {trace}");
    }
    println!("{}", response.body);
    if response.status >= 400 {
        return Err(format!("server answered with status {}", response.status));
    }
    Ok(())
}
