//! The sweep workload: `run_sweep_with` over a seeded mix of
//! Latin-hypercube instances and infeasible twins, one multi-worker
//! sweep per round, rendered through `write_jsonl`, each followed by a
//! single-worker sweep of one slice of the round for per-scenario
//! service times. At the
//! default depth the reference lowering refuses coverage, so the cursor
//! engine does the work; the twins' disproofs to the horizon make the
//! cost heavy-tailed.

use crate::inputs::{is_feasible, sweep_mix};
use crate::layers::{
    cursor_layers, overhead_share, replay_references, slot, wall, EngineCounters, Spans,
    OVERHEAD_PARTS,
};
use crate::{mean, median, peak_rss_mb, percentile, pin_to_one_cpu, Args, Metrics, Outcome};
use rvz_experiments::{
    record_to_json, run_sweep_with, write_jsonl, Algorithm, Scenario, SweepOptions, SweepRecord,
};
use rvz_sim::batch::{simulate_rendezvous_by_ref, try_simulate_rendezvous_lazy};
use rvz_sim::{ContactOptions, EngineScratch, SimOutcome};
use rvz_trajectory::{CompileOptions, CompiledProgram};
use std::hint::black_box;
use std::time::Instant;

/// Executor threads.
const THREADS: usize = 2;
/// Scenarios per `--seconds`.
const SCENARIOS_PER_SECOND: usize = 1_000;
/// Sweeps in the measured window, each over its part of the batch. The
/// single-worker latency sweeps and the set-up samples run between them,
/// so that each spans the run.
const ROUNDS: usize = 5;
/// Slices per round. The batch is generated in `ROUNDS * SLICES` parts
/// of the same mix, and an untraced run sweeps each round's first slice
/// again on a single worker for per-scenario service times.
const SLICES: usize = 5;
/// Set-up samples taken before each round and after the last, and
/// batch generations per sample: `setup_s` is the median sample's time
/// per generation. The samples span the whole run: the machine this was
/// tuned on ran one generation in either about 0.45 or 0.65 ms for
/// seconds at a time, so samples taken in one burst at start-up put a
/// run's set-up time in one mode or the other.
const SETUP_SAMPLES_PER_ROUND: usize = 4;
const GENERATIONS_PER_SETUP: usize = 8;

pub fn mixed(args: &Args) -> Outcome {
    let n = SCENARIOS_PER_SECOND * args.seconds as usize;
    let opts = SweepOptions {
        threads: THREADS,
        ..SweepOptions::default()
    };
    let scenarios = sweep_mix(n, args.seed, ROUNDS * SLICES);
    // Untimed: the heap grows to its working size.
    setup_sample(n, args.seed);
    let mut setup_times = Vec::with_capacity((ROUNDS + 1) * SETUP_SAMPLES_PER_ROUND);
    let mut sample_setup =
        || setup_times.extend((0..SETUP_SAMPLES_PER_ROUND).map(|_| setup_sample(n, args.seed)));

    // Each round is one sweep over its part of the batch, rendered to
    // JSONL: scenarios in, records out. The single-worker sweeps for
    // service times run between rounds, outside the timed sweeps, and
    // only in untraced runs, so the engine counters of traced runs count
    // the rounds alone.
    let engine_before = EngineCounters::read();
    let mut records = Vec::with_capacity(n);
    let mut jsonl = Vec::new();
    let mut window_s = 0.0;
    let mut latencies = Vec::new();
    let mut sweep_s = 0.0;
    let mut failed = 0;
    let mut broken = Vec::new();
    for r in 0..ROUNDS {
        sample_setup();
        let batch = part(&scenarios, r, ROUNDS);
        let (swept, secs) = wall(|| run_sweep_with(batch, &opts, |_, _| {}));
        let ((), write_secs) =
            wall(|| write_jsonl(&mut jsonl, &swept).expect("writing to memory cannot fail"));
        sweep_s += secs;
        window_s += secs + write_secs;
        if !args.trace {
            let slice = part(&scenarios, r * SLICES, ROUNDS * SLICES);
            match service_times(slice, &swept[..slice.len()], &opts) {
                Ok((gaps, mismatches)) => {
                    latencies.extend(gaps);
                    failed += mismatches;
                }
                Err(e) => broken.push(format!("single-worker sweep confined to one CPU ({e})")),
            }
        }
        records.extend(swept);
    }
    sample_setup();
    let engine = EngineCounters::read().since(&engine_before);

    let lines = jsonl
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    if lines != n {
        broken.push(format!("{lines} JSONL records for {n} scenarios"));
    }
    failed += scenarios
        .iter()
        .zip(&records)
        .filter(|(s, r)| {
            r.scenario != **s || r.feasibility.is_feasible() != is_feasible(s) || !r.consistent()
        })
        .count() as u64;

    let mut m = Metrics::new();
    if !args.trace {
        m.insert("ops_per_s", n as f64 / window_s);
        m.insert("latency_p50_us", percentile(&latencies, 50.0));
        m.insert("latency_p99_us", percentile(&latencies, 99.0));
        m.insert("setup_s", median(&setup_times));
        m.insert("peak_rss_mb", peak_rss_mb());
    } else {
        engine.report(&mut m);
        failed += replay(&scenarios, &records, &opts, sweep_s, &mut m);
    }
    Outcome {
        attempted: n as u64,
        failed,
        broken_premises: broken,
        metrics: m,
    }
}

/// The `r`-th of `parts` consecutive, nearly equal parts of `items`.
fn part<T>(items: &[T], r: usize, parts: usize) -> &[T] {
    &items[items.len() * r / parts..items.len() * (r + 1) / parts]
}

/// Seconds per generation of the batch, over [`GENERATIONS_PER_SETUP`]
/// back-to-back generations.
fn setup_sample(n: usize, seed: u64) -> f64 {
    let ((), secs) = wall(|| {
        for _ in 0..GENERATIONS_PER_SETUP {
            black_box(sweep_mix(n, seed, ROUNDS * SLICES));
        }
    });
    secs / GENERATIONS_PER_SETUP as f64
}

/// Per-scenario service time, µs: a single-worker sweep of `scenarios`
/// on a thread of its own confined to one CPU, like the serve workloads,
/// timed as the gap between consecutive record callbacks. With one
/// worker the executor runs each scenario and its callback inline on the
/// calling thread, so each gap is exactly one scenario's `run_one` plus
/// the callback; the first gap of each algorithm includes the worker's
/// one-time reference lowering. Also returns how many records differ
/// from the multi-worker sweep's `records` of the same scenarios.
fn service_times(
    scenarios: &[Scenario],
    records: &[SweepRecord],
    opts: &SweepOptions,
) -> Result<(Vec<f64>, u64), String> {
    let single = SweepOptions {
        threads: 1,
        ..*opts
    };
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                pin_to_one_cpu()?;
                let mut gaps = Vec::with_capacity(scenarios.len());
                let mut last = Instant::now();
                let serial = run_sweep_with(scenarios, &single, |_, _| {
                    let now = Instant::now();
                    gaps.push((now - last).as_secs_f64() * 1e6);
                    last = now;
                });
                let mismatches = serial.iter().zip(records).filter(|(a, b)| a != b).count();
                Ok((gaps, mismatches as u64))
            })
            .join()
            .expect("single-worker sweep panicked")
    })
}

/// Resolves one scenario through the calls a sweep worker makes: the
/// streaming compiled path when the reference covers the horizon, the
/// cursor engine otherwise.
fn replay_one(
    s: &Scenario,
    refs: &[Option<CompiledProgram>; 2],
    contact: &ContactOptions,
    copts: &CompileOptions,
    spans: &mut Spans,
    scratch: &mut EngineScratch,
) -> (SimOutcome, bool) {
    let instance = s.instance().expect("generated scenarios are valid");
    if let Some(reference) = &refs[slot(s.algorithm)] {
        let out = spans.time("scalar", || match s.algorithm {
            Algorithm::WaitAndSearch => try_simulate_rendezvous_lazy(
                reference,
                &rvz_core::WaitAndSearch,
                &instance,
                contact,
                copts,
                scratch,
            ),
            Algorithm::UniversalSearch => try_simulate_rendezvous_lazy(
                reference,
                &rvz_search::UniversalSearch,
                &instance,
                contact,
                copts,
                scratch,
            ),
        });
        if let Some(out) = out {
            return (out, false);
        }
    }
    let out = spans.time("cursor", || match s.algorithm {
        Algorithm::WaitAndSearch => {
            simulate_rendezvous_by_ref(&rvz_core::WaitAndSearch, &instance, contact)
        }
        Algorithm::UniversalSearch => {
            simulate_rendezvous_by_ref(&rvz_search::UniversalSearch, &instance, contact)
        }
    });
    (out, true)
}

/// Replays `scenarios` as one sweep worker would, timing into `spans`
/// when they are on: both reference lowerings, then each scenario's
/// engine call, then its JSONL record. Returns the outcomes and the
/// cursor engine's answer and step counts.
fn replay_batch(
    scenarios: &[Scenario],
    records: &[SweepRecord],
    opts: &SweepOptions,
    spans: &mut Spans,
    m: &mut Metrics,
) -> (Vec<SimOutcome>, u64, u64) {
    let contact = opts.contact;
    let copts = CompileOptions::to_horizon(contact.horizon).max_pieces(opts.compile_pieces);
    let mut scratch = EngineScratch::new();
    let (mut answers, mut steps) = (0, 0);
    let refs = replay_references(&copts, contact.horizon, spans, m);
    let outcomes = scenarios
        .iter()
        .map(|s| {
            let (out, on_cursor) = replay_one(s, &refs, &contact, &copts, spans, &mut scratch);
            if on_cursor {
                answers += 1;
                steps += out.steps();
            }
            out
        })
        .collect();
    let mut sink = Vec::new();
    for r in records {
        spans.time("json.encode", || record_to_json(r).render());
        spans.time("report.jsonl", || {
            write_jsonl(&mut sink, std::slice::from_ref(r)).expect("writing to memory")
        });
        sink.clear();
    }
    (outcomes, answers, steps)
}

/// Chunks the traced replay alternates with single-worker sweeps.
const CHUNKS: usize = 8;

/// The traced replay. Worker time is the wall time of single-worker
/// sweeps, chunk by chunk, each next to the traced replay of the same
/// chunk in alternating order, so a drift in machine speed cancels out
/// of the unattributed share. The tracing overhead comes from untimed
/// and timed replays of the first `1 / OVERHEAD_PARTS` of the batch.
/// Returns how many replayed outcomes, or single-worker records, differ
/// from the sweep's records.
fn replay(
    scenarios: &[Scenario],
    records: &[SweepRecord],
    opts: &SweepOptions,
    sweep_s: f64,
    m: &mut Metrics,
) -> u64 {
    let head = scenarios.len() / OVERHEAD_PARTS;
    let overhead = overhead_share(|on| {
        let mut spans = Spans::new(on);
        let (_, secs) = wall(|| {
            replay_batch(
                &scenarios[..head],
                &records[..head],
                opts,
                &mut spans,
                &mut Metrics::new(),
            )
        });
        secs
    });

    let single = SweepOptions {
        threads: 1,
        ..*opts
    };
    let size = scenarios.len().div_ceil(CHUNKS);
    let mut spans = Spans::new(true);
    let (mut worker_s, mut mismatches, mut answers, mut steps) = (0.0, 0, 0, 0);
    for (k, (chunk, recs)) in scenarios.chunks(size).zip(records.chunks(size)).enumerate() {
        for serial_step in [k % 2 == 0, k % 2 == 1] {
            if serial_step {
                let (serial, secs) = wall(|| run_sweep_with(chunk, &single, |_, _| {}));
                worker_s += secs;
                mismatches += serial.iter().zip(recs).filter(|(a, b)| a != b).count() as u64;
            } else {
                let (outcomes, a, st) = replay_batch(chunk, recs, opts, &mut spans, m);
                answers += a;
                steps += st;
                mismatches += outcomes
                    .iter()
                    .zip(recs)
                    .filter(|(o, r)| **o != r.outcome)
                    .count() as u64;
            }
        }
    }

    let n = scenarios.len() as f64;
    let references_us = spans.total(&["lowering.reference"]);
    let engine_us = spans.total(&["cursor", "scalar"]);
    // Each worker lowers both references once per sweep, and the
    // measured window runs one sweep per round.
    let per_worker_us = 2.0 * mean(spans.samples("lowering.reference"));
    let lowering_us = (THREADS * ROUNDS) as f64 * per_worker_us;
    m.insert("executor.reference_us", per_worker_us);
    m.insert(
        "executor.busy_share",
        (lowering_us + engine_us) / (THREADS as f64 * sweep_s * 1e6),
    );
    m.insert(
        "trace.unattributed_share",
        1.0 - (references_us + engine_us) / (worker_s * 1e6),
    );
    m.insert("trace.overhead_share", overhead);
    m.insert("json.encode_us", mean(spans.samples("json.encode")));
    m.insert(
        "report.jsonl_us_per_record",
        mean(spans.samples("report.jsonl")),
    );
    m.insert("scalar.us", mean(spans.samples("scalar")));
    m.insert("scalar.query_share", (n - answers as f64) / n);
    cursor_layers(m, &spans, answers, steps, n);
    mismatches
}
