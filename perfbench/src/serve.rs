//! The serve workload, `serve_cold`: a closed loop of `POST
//! /first-contact` over a keep-alive loopback connection against an
//! in-process `rvz serve`. Every request is a new canonical orbit at a
//! depth where the compiled stack covers the horizon, so each one pays
//! partner lowering, the SoA arena build and the lane kernel, and the
//! bounded caches insert and evict.

use crate::client::Client;
use crate::inputs::{body, is_feasible, request_bytes, serve_mix};
use crate::layers::{
    arena_bytes, cursor_layers, handled, overhead_share, p50_p99, replay_references, slot, wall,
    EngineCounters, Spans, OVERHEAD_PARTS,
};
use crate::{
    mean, median, peak_rss_mb, percentile, pin_to_one_cpu, ratio, reset_peak_rss, Args, Metrics,
    Outcome,
};
use rvz_experiments::{
    json, record_to_json, scenario_from_json, Algorithm, Canonical, Json, Scenario, SweepOptions,
    SweepRecord, DEFAULT_GRID,
};
use rvz_model::feasibility;
use rvz_server::http::read_request;
use rvz_server::{Request, Response, ServerHandle, Service, ServiceOptions};
use rvz_sim::batch::simulate_rendezvous_by_ref;
use rvz_sim::{
    first_contact_batch_soa, try_first_contact_programs, ContactOptions, EngineScratch, SimOutcome,
};
use rvz_trajectory::{Compile, CompileOptions, CompiledProgram, ProgramSoA};
use std::collections::HashSet;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::Barrier;
use std::time::Instant;

/// Server worker threads.
const WORKERS: usize = 2;
/// The service's compiled-program piece budget (the default).
const PIECE_BUDGET: usize = 32_768;

/// Depth, cache capacity, twin share, requests per `--seconds`.
const COLD_ROUNDS: u32 = 3;
const COLD_CAPACITY: usize = 256;
const COLD_TWINS_PER_100: usize = 25;
const COLD_REQUESTS_PER_SECOND: usize = 500;
/// Set-ups timed before and after the measured window ([`setup_s`]).
const COLD_SETUPS_BEFORE: usize = 4;
const COLD_SETUPS_AFTER: usize = 3;

fn cold_options() -> ServiceOptions {
    let defaults = SweepOptions::default();
    ServiceOptions {
        cache_capacity: COLD_CAPACITY,
        sweep: SweepOptions {
            contact: ContactOptions {
                horizon: rvz_core::completion_time(COLD_ROUNDS),
                ..defaults.contact
            },
            ..defaults
        },
        ..ServiceOptions::default()
    }
}

/// One measured request as the client saw it.
struct Sample {
    /// Index into the workload's requests.
    body: usize,
    /// From the start of the request write to the last response byte.
    latency_us: f64,
    /// The `200` body, or why the request failed.
    reply: Result<String, String>,
}

/// Sends every request in order over one keep-alive connection, on a
/// client thread of its own that connects before the clock starts.
/// Returns every request's sample and the wall time from the start of
/// the first request to the end of the last. One connection: with two,
/// the workers' allocator arenas fragmented differently from run to run
/// and peak RSS was not repeatable.
fn drive(server: &ServerHandle, requests: &[Vec<u8>]) -> (Vec<Sample>, f64) {
    let addr = server.addr().to_string();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let mut client = no_wakeup_preemption()
                .and_then(|()| Client::connect(&addr).map_err(|e| format!("connect: {e}")));
            barrier.wait();
            let samples: Vec<Sample> = (0..requests.len())
                .map(|i| request(client.as_mut(), i, requests))
                .collect();
            barrier.wait();
            samples
        });
        barrier.wait();
        let started = Instant::now();
        barrier.wait();
        let secs = started.elapsed().as_secs_f64();
        (client.join().expect("client thread panicked"), secs)
    })
}

/// `requests[i]`, timed from the start of the request write to the last
/// response byte.
fn request(client: Result<&mut Client, &mut String>, i: usize, requests: &[Vec<u8>]) -> Sample {
    let started = Instant::now();
    let reply = match client {
        Err(why) => Err(why.clone()),
        Ok(c) => c.send(&requests[i]).map_err(|e| format!("transport: {e}")),
    };
    let latency_us = started.elapsed().as_secs_f64() * 1e6;
    let reply = reply.and_then(|(status, body)| match status {
        200 => Ok(body),
        s => Err(format!("status {s}")),
    });
    Sample {
        body: i,
        latency_us,
        reply,
    }
}

/// `true` when a response body agrees with Theorem 4: the record's
/// verdict is the expected one, and it reports contact exactly when the
/// instance is feasible.
fn theorem4_holds(body: &str, feasible: bool) -> bool {
    let Ok(value) = json::parse(body) else {
        return false;
    };
    let Some(record) = value.get("record") else {
        return false;
    };
    let contact = record.get("outcome").and_then(Json::as_str) == Some("contact");
    record.get("feasible").and_then(Json::as_bool) == Some(feasible) && contact == feasible
}

/// Spawns a server `times` times, each followed by `warm` (the lazy
/// one-time work); keeps the last and returns each set-up's seconds.
fn set_up(
    options: &ServiceOptions,
    times: usize,
    warm: &dyn Fn(&ServerHandle) -> Vec<Sample>,
) -> (ServerHandle, Vec<Sample>, Vec<f64>) {
    let mut secs_each = Vec::new();
    let mut kept = None;
    for _ in 0..times {
        if let Some((old, _)) = kept.take() {
            assert!(ServerHandle::shutdown(old), "server drained");
        }
        let ((server, warmed), secs) = wall(|| {
            let server = rvz_server::spawn("127.0.0.1:0", Service::new(*options), WORKERS)
                .expect("bind a loopback port");
            let warmed = warm(&server);
            (server, warmed)
        });
        secs_each.push(secs);
        kept = Some((server, warmed));
    }
    let (server, warmed) = kept.expect("at least one set-up");
    (server, warmed, secs_each)
}

/// `setup_s`: the median of the set-ups timed before the measured
/// window and of `after` more, timed after it once the measured server
/// is shut down. Set-ups timed in one burst would catch the machine in
/// one state: the one this was tuned on ran the same short task at
/// either of two speeds, about 40% apart, for seconds at a time. None
/// are timed during the window: a second server next to the measured
/// one would add its memory to the peak RSS.
fn setup_s(
    mut before: Vec<f64>,
    after: usize,
    options: &ServiceOptions,
    warm: &dyn Fn(&ServerHandle) -> Vec<Sample>,
) -> f64 {
    for _ in 0..after {
        let (server, _, secs) = set_up(options, 1, warm);
        assert!(server.shutdown(), "server drained");
        before.extend(secs);
    }
    median(&before)
}

/// Confines server and client to one CPU ([`pin_to_one_cpu`]): left to
/// the scheduler, client and worker threads sometimes shared a CPU and
/// sometimes woke each other across CPUs, and latency moved between two
/// levels from run to run. A failure is a broken premise.
fn pinned() -> Vec<String> {
    match pin_to_one_cpu() {
        Ok(()) => Vec::new(),
        Err(e) => vec![format!("server and client confined to one CPU ({e})")],
    }
}

/// Puts the calling client thread under `SCHED_BATCH`: a fair share of
/// the CPU like any thread, but its wake-ups never preempt the running
/// one. The server answers with several writes, each of which wakes the
/// client; under the default policy the client preempted the server at
/// each of them, read a fragment and slept again, about sixteen context
/// switches per request, and the figures were mostly the scheduler's. A
/// client on another machine never takes the server's CPU mid-response;
/// under `SCHED_BATCH` this one does not either, and a request costs two
/// switches. A failure fails every request of the connection.
fn no_wakeup_preemption() -> Result<(), String> {
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }
    const SCHED_BATCH: i32 = 3;
    let priority: i32 = 0;
    // SAFETY: `priority` is a live `struct sched_param` (one `int`), which
    // the call only reads; pid 0 names the calling thread.
    if unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) } != 0 {
        return Err(format!(
            "sched_setscheduler(SCHED_BATCH) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// The end-to-end metrics of a measured window of `secs` seconds: its
/// throughput and the percentiles of all its requests' latencies. One
/// window rather than the median of several rounds: the machine this was
/// tuned on switched between two speeds, tens of percent apart, every
/// few seconds, and a median of rounds took one speed or the other where
/// the whole window's figures blend them.
fn end_to_end(m: &mut Metrics, samples: &[Sample], secs: f64, setup_s: f64, peak_rss_mb: f64) {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    m.insert("ops_per_s", samples.len() as f64 / secs);
    m.insert("latency_p50_us", percentile(&latencies, 50.0));
    m.insert("latency_p99_us", percentile(&latencies, 99.0));
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", peak_rss_mb);
}

/// One feasible scenario per algorithm, outside the measured set: the
/// warm-up requests that trigger the service's one-time reference
/// lowering and reference arena build.
fn warmup_requests() -> Vec<Vec<u8>> {
    Algorithm::ALL
        .iter()
        .map(|&algorithm| {
            request_bytes(&body(&Scenario {
                id: 0,
                algorithm,
                speed: 0.5,
                time_unit: 0.7,
                orientation: 0.0,
                chirality: rvz_model::Chirality::Consistent,
                distance: 1.0,
                bearing: 0.0,
                visibility: 0.1,
            }))
        })
        .collect()
}

pub fn cold(args: &Args) -> Outcome {
    let mut broken = pinned();
    let n = COLD_REQUESTS_PER_SECOND * args.seconds as usize;
    let scenarios = serve_mix(n, COLD_TWINS_PER_100, args.seed);
    let requests: Vec<Vec<u8>> = scenarios.iter().map(|s| request_bytes(&body(s))).collect();
    let warm = warmup_requests();
    let options = cold_options();

    let keys: HashSet<_> = scenarios
        .iter()
        .map(|s| s.canonicalize(DEFAULT_GRID).key)
        .collect();
    if keys.len() != n {
        broken.push(format!(
            "{} distinct canonical keys for {n} requests",
            keys.len()
        ));
    }

    let warm_up = |server: &ServerHandle| drive(server, &warm).0;
    let (server, warmed, setup_times) = set_up(&options, COLD_SETUPS_BEFORE, &warm_up);
    if warmed.iter().any(|s| s.reply.is_err()) {
        broken.push("warm-up requests answered".into());
    }
    let service = std::sync::Arc::clone(server.service());
    let cache_before = service.cache_stats();
    let engine_before = EngineCounters::read();
    let handled_before = handled();
    if let Err(e) = reset_peak_rss() {
        broken.push(e);
    }
    let (samples, secs) = drive(&server, &requests);
    let peak_rss_mb = peak_rss_mb();
    let engine = EngineCounters::read().since(&engine_before);
    let handled_after = handled();
    let cache = service.cache_stats();
    let program_entries = service.program_stats().entries;
    drop(service);
    assert!(server.shutdown(), "server drained");

    let misses = cache.misses - cache_before.misses;
    let evictions = cache.evictions - cache_before.evictions;
    if misses != n as u64 {
        broken.push(format!("{misses} cache misses for {n} distinct orbits"));
    }
    if evictions == 0 {
        broken.push("no evictions in the measured window".into());
    }
    let mut failed = 0;
    for s in &samples {
        let ok = match &s.reply {
            Ok(b) => theorem4_holds(b, is_feasible(&scenarios[s.body])),
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }

    let mut m = Metrics::new();
    if !args.trace {
        let setup_s = setup_s(setup_times, COLD_SETUPS_AFTER, &options, &warm_up);
        end_to_end(&mut m, &samples, secs, setup_s, peak_rss_mb);
    } else {
        m.insert(
            "cache.hit_ratio",
            ratio((cache.hits - cache_before.hits) as f64, n as f64),
        );
        m.insert("cache.evictions_per_op", evictions as f64 / n as f64);
        m.insert("cache.program_entries", program_entries as f64);
        // Loopback plus the worker queue: the client's mean latency less
        // the server's mean handling time, over the same requests.
        let handled_us = ratio(
            (handled_after.1 - handled_before.1) as f64,
            (handled_after.0 - handled_before.0) as f64,
        );
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        m.insert("service.wait_us", mean(&latencies) - handled_us);
        engine.report(&mut m);
        failed += replay_cold(&options, &warm, &requests, &samples, &mut m);
    }
    Outcome {
        attempted: n as u64,
        failed,
        broken_premises: broken,
        metrics: m,
    }
}

/// Per-request engine bookkeeping of the cold replay.
#[derive(Default)]
struct EngineTally {
    partner_pieces: Vec<f64>,
    arena_bytes: Vec<f64>,
    kernel_calls: u64,
    kernel_refusals: u64,
    kernel_steps: u64,
    scalar_answers: u64,
    cursor_answers: u64,
    cursor_steps: u64,
}

/// The service's compiled programs for the replay: the references and
/// their arenas, built once like the service's lazy set-up.
struct References {
    programs: [Option<CompiledProgram>; 2],
    arenas: [Option<ProgramSoA>; 2],
    copts: CompileOptions,
}

/// Resolves one canonical representative through the same public calls
/// the service's miss path makes, in the same order: partner lowering,
/// arena build, the lane kernel, then the scalar ladder, then the
/// cursor engine.
fn replay_engine(
    canonical: &Scenario,
    refs: &References,
    contact: &ContactOptions,
    spans: &mut Spans,
    tally: &mut EngineTally,
    scratch: &mut EngineScratch,
) -> SimOutcome {
    let instance = canonical.instance().expect("generated scenarios are valid");
    let r = canonical.visibility;
    if let Some(reference) = &refs.programs[slot(canonical.algorithm)] {
        let (attrs, offset) = (instance.attributes(), instance.offset());
        let partner = spans.time("lowering.partner", || match canonical.algorithm {
            Algorithm::WaitAndSearch => attrs
                .frame_warp(rvz_core::WaitAndSearch, offset)
                .compile(&refs.copts),
            Algorithm::UniversalSearch => attrs
                .frame_warp(rvz_search::UniversalSearch, offset)
                .compile(&refs.copts),
        });
        if let Ok(partner) = partner {
            tally.partner_pieces.push(partner.pieces().len() as f64);
            if let Some(arena) = &refs.arenas[slot(canonical.algorithm)] {
                let partner_arena =
                    spans.time("arena.build", || ProgramSoA::from_program(&partner));
                tally.arena_bytes.push(arena_bytes(&partner_arena));
                tally.kernel_calls += 1;
                let out = spans.time("kernel", || {
                    first_contact_batch_soa(
                        arena,
                        std::slice::from_ref(&partner_arena),
                        r,
                        contact,
                        scratch,
                    )
                    .pop()
                    .flatten()
                });
                if let Some(out) = out {
                    tally.kernel_steps += out.steps();
                    return out;
                }
                tally.kernel_refusals += 1;
            }
            let out = spans.time("scalar", || {
                try_first_contact_programs(reference, &partner, r, contact, scratch)
            });
            if let Some(out) = out {
                tally.scalar_answers += 1;
                return out;
            }
        }
    }
    let out = spans.time("cursor", || match canonical.algorithm {
        Algorithm::WaitAndSearch => {
            simulate_rendezvous_by_ref(&rvz_core::WaitAndSearch, &instance, contact)
        }
        Algorithm::UniversalSearch => {
            simulate_rendezvous_by_ref(&rvz_search::UniversalSearch, &instance, contact)
        }
    });
    tally.cursor_answers += 1;
    tally.cursor_steps += out.steps();
    out
}

/// The `/first-contact` response body for a record and its canonical
/// reduction, as the service renders it.
fn encode(record: &SweepRecord, canonical: &Canonical) -> String {
    Json::obj(vec![
        ("record", record_to_json(record)),
        (
            "canonical",
            Json::obj(vec![
                ("swapped", Json::Bool(canonical.swapped)),
                ("time_scale", Json::Num(canonical.transform.time_scale)),
                (
                    "distance_scale",
                    Json::Num(canonical.transform.distance_scale),
                ),
            ]),
        ),
    ])
    .render()
}

/// A loopback socket whose peer discards everything, so the replayed
/// response writes pay the same system calls as the server's.
struct Sink {
    stream: TcpStream,
    drain: std::thread::JoinHandle<()>,
}

impl Sink {
    fn open() -> Sink {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let stream =
            TcpStream::connect(listener.local_addr().expect("bound")).expect("connect loopback");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let (mut peer, _) = listener.accept().expect("accept loopback");
        let drain = std::thread::spawn(move || {
            let mut buf = [0u8; 64 * 1024];
            while matches!(peer.read(&mut buf), Ok(n) if n > 0) {}
        });
        Sink { stream, drain }
    }

    fn close(self) {
        drop(self.stream);
        self.drain.join().expect("drain thread panicked");
    }
}

fn parse(raw: &[u8]) -> Request {
    read_request(&mut &raw[..]).expect("replayed request bytes parse")
}

fn decode(req: &Request) -> Scenario {
    let text = std::str::from_utf8(&req.body).expect("UTF-8 body");
    scenario_from_json(&json::parse(text).expect("JSON body")).expect("valid scenario")
}

/// A fresh in-process service after the same warm-up the server got.
fn warmed_service(options: &ServiceOptions, warm: &[Vec<u8>]) -> Service {
    let service = Service::new(*options);
    for raw in warm {
        service.handle(&parse(raw));
    }
    service
}

/// The `serve_cold` traced replay; returns how many replayed outcomes
/// differ from the bodies the server returned.
fn replay_cold(
    options: &ServiceOptions,
    warm: &[Vec<u8>],
    raw: &[Vec<u8>],
    samples: &[Sample],
    m: &mut Metrics,
) -> u64 {
    let contact = options.sweep.contact;
    let copts = CompileOptions::to_horizon(contact.horizon).max_pieces(PIECE_BUDGET);
    let programs = replay_references(&copts, contact.horizon, &mut Spans::new(true), m);
    let arenas = [0, 1].map(|i| programs[i].as_ref().map(ProgramSoA::from_program));
    let refs = References {
        programs,
        arenas,
        copts,
    };
    let served: Vec<&str> = {
        let mut by_body = vec![""; raw.len()];
        for s in samples {
            if let Ok(b) = &s.reply {
                by_body[s.body] = b;
            }
        }
        by_body
    };
    let pass = |on: bool, count: usize| {
        let service = warmed_service(options, warm);
        let mut spans = Spans::new(on);
        let mut tally = EngineTally::default();
        let mut scratch = EngineScratch::new();
        let mut sink = Sink::open();
        let mut mismatches = 0;
        let ((), secs) = wall(|| {
            for (i, raw) in raw.iter().enumerate().take(count) {
                let req = spans.time("http.parse", || parse(raw));
                let (handled, _) = spans.time("service.handle", || service.handle(&req));
                let scenario = spans.time("json.decode", || decode(&req));
                let canonical = spans.time("canonical", || scenario.canonicalize(DEFAULT_GRID));
                let outcome = replay_engine(
                    &canonical.scenario,
                    &refs,
                    &contact,
                    &mut spans,
                    &mut tally,
                    &mut scratch,
                );
                let reply = spans.time("json.encode", || {
                    let record = SweepRecord {
                        scenario,
                        feasibility: feasibility(&scenario.attributes()),
                        outcome: canonical.transform.apply(outcome),
                    };
                    encode(&record, &canonical)
                });
                mismatches += u64::from(reply != served[i] || handled.body != served[i]);
                spans.time("http.write", || {
                    Response::ok(reply)
                        .header("X-Rvz-Cache", "miss")
                        .write_to(&mut sink.stream)
                        .expect("write to the loopback sink")
                });
            }
        });
        sink.close();
        (spans, tally, secs, mismatches)
    };
    // An untimed pass first, so no timed pass pays the first touch of
    // the heap the program cache grows into.
    pass(false, 2 * COLD_CAPACITY);
    let overhead = overhead_share(|on| pass(on, raw.len() / OVERHEAD_PARTS).2);
    let (spans, tally, _, mismatches) = pass(true, raw.len());
    m.insert("trace.overhead_share", overhead);

    let n = raw.len() as f64;
    serve_layers(m, &spans);
    let handle_total = spans.total(&["service.handle"]);
    let covered = spans.total(&[
        "json.decode",
        "canonical",
        "lowering.partner",
        "arena.build",
        "kernel",
        "scalar",
        "cursor",
        "json.encode",
    ]);
    m.insert("trace.unattributed_share", 1.0 - covered / handle_total);
    m.insert(
        "lowering.partner_us",
        mean(spans.samples("lowering.partner")),
    );
    m.insert("lowering.partner_pieces", mean(&tally.partner_pieces));
    m.insert("arena.build_us", mean(spans.samples("arena.build")));
    m.insert("arena.bytes", mean(&tally.arena_bytes));
    m.insert("kernel.us", mean(spans.samples("kernel")));
    let answered = (tally.kernel_calls - tally.kernel_refusals) as f64;
    m.insert(
        "kernel.steps_per_query",
        ratio(tally.kernel_steps as f64, answered),
    );
    m.insert(
        "kernel.refusal_share",
        ratio(tally.kernel_refusals as f64, tally.kernel_calls as f64),
    );
    m.insert("scalar.us", mean(spans.samples("scalar")));
    m.insert("scalar.query_share", tally.scalar_answers as f64 / n);
    cursor_layers(m, &spans, tally.cursor_answers, tally.cursor_steps, n);
    mismatches
}

/// The request-path layers of the replay: HTTP, JSON, canonicalization
/// and `Service::handle`.
fn serve_layers(m: &mut Metrics, spans: &Spans) {
    m.insert("http.parse_us", mean(spans.samples("http.parse")));
    m.insert("http.write_us", mean(spans.samples("http.write")));
    m.insert("json.decode_us", mean(spans.samples("json.decode")));
    m.insert("json.encode_us", mean(spans.samples("json.encode")));
    m.insert("canonical.us", mean(spans.samples("canonical")));
    let handle = spans.samples("service.handle");
    let (p50, p99) = p50_p99(handle);
    m.insert("service.handle_us_p50", p50);
    m.insert("service.handle_us_p99", p99);
}
