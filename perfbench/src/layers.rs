//! Shared pieces of the traced replays: per-call span timing, engine
//! counter snapshots from the `rvz_obs` registry, and the lowering and
//! arena calls every workload's replay makes.

use crate::{mean, percentile, ratio, Metrics};
use rvz_experiments::Algorithm;
use rvz_obs::registry;
use rvz_sim::KERNEL_LANES;
use rvz_trajectory::{Compile, CompileOptions, CompiledProgram, ProgramSoA};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-call durations in µs, keyed by span name. With timing off the
/// same calls run without reading the clock, which is the untraced
/// baseline the tracing overhead is measured against.
pub struct Spans {
    on: bool,
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            calls: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording its duration under `name` when timing is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.calls.entry(name).or_default().push(us);
        out
    }

    /// Every recorded duration of `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.calls.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summed duration over several span names, µs.
    pub fn total(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.samples(n).iter().sum::<f64>())
            .sum()
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Each [`overhead_share`] pass covers `1 / OVERHEAD_PARTS` of the
/// inputs.
pub const OVERHEAD_PARTS: usize = 32;

/// The tracing overhead as a share of untraced time, from four quartets
/// of passes over the same inputs, each in the order untraced, traced,
/// traced, untraced: a steady drift in machine speed cancels within a
/// quartet, and a change of speed lasting a few passes averages out
/// over the quartets. `pass_secs(traced)` runs one pass and returns its
/// wall time.
pub fn overhead_share(mut pass_secs: impl FnMut(bool) -> f64) -> f64 {
    let (mut untraced, mut traced) = (0.0, 0.0);
    for _ in 0..4 {
        untraced += pass_secs(false);
        traced += pass_secs(true) + pass_secs(true);
        untraced += pass_secs(false);
    }
    traced / untraced - 1.0
}

/// The engine paths `rvz_engine_queries_total` distinguishes.
const PATHS: [&str; 5] = [
    "generic",
    "cursor",
    "compiled-eager",
    "compiled-lazy",
    "compiled-soa",
];

/// A snapshot of the process-wide engine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    queries: [u64; 5],
    steps: [u64; 5],
    kernel_chunks: u64,
    lanes_active: u64,
}

impl EngineCounters {
    pub fn read() -> Self {
        let get =
            |name, labels: &[(&'static str, &'static str)]| registry().counter(name, labels).get();
        let mut c = EngineCounters::default();
        for (i, path) in PATHS.iter().enumerate() {
            c.queries[i] = get("rvz_engine_queries_total", &[("path", path)]);
            c.steps[i] = get("rvz_engine_steps_total", &[("path", path)]);
        }
        c.kernel_chunks = get("rvz_engine_kernel_chunks_total", &[]);
        c.lanes_active = get("rvz_engine_kernel_lanes_active", &[]);
        c
    }

    /// What was counted since `before`.
    pub fn since(&self, before: &EngineCounters) -> EngineCounters {
        let mut d = EngineCounters::default();
        for i in 0..PATHS.len() {
            d.queries[i] = self.queries[i] - before.queries[i];
            d.steps[i] = self.steps[i] - before.steps[i];
        }
        d.kernel_chunks = self.kernel_chunks - before.kernel_chunks;
        d.lanes_active = self.lanes_active - before.lanes_active;
        d
    }

    fn queries(&self, path: &str) -> u64 {
        PATHS
            .iter()
            .position(|p| *p == path)
            .map_or(0, |i| self.queries[i])
    }

    /// Exact path counts as shares of all engine queries, steps per
    /// query, and (on the lane kernel) chunks and lane occupancy.
    pub fn report(&self, m: &mut Metrics) {
        let total = self.queries.iter().sum::<u64>() as f64;
        for (name, path) in [
            ("engine.share.compiled-soa", "compiled-soa"),
            ("engine.share.compiled-lazy", "compiled-lazy"),
            ("engine.share.compiled-eager", "compiled-eager"),
            ("engine.share.cursor", "cursor"),
        ] {
            m.insert(name, ratio(self.queries(path) as f64, total));
        }
        let steps: u64 = self.steps.iter().sum();
        m.insert("engine.steps_per_query", ratio(steps as f64, total));
        let soa = self.queries("compiled-soa") as f64;
        m.insert(
            "kernel.chunks_per_query",
            ratio(self.kernel_chunks as f64, soa),
        );
        let lanes = (self.kernel_chunks * KERNEL_LANES as u64) as f64;
        m.insert(
            "kernel.lane_utilization",
            ratio(self.lanes_active as f64, lanes),
        );
    }
}

/// Requests the service has handled and their summed handling time, µs,
/// from its `rvz_request_duration_us` histogram (each request's time is
/// recorded in whole microseconds, rounded down).
pub fn handled() -> (u64, u64) {
    let h = registry()
        .histogram("rvz_request_duration_us", &[])
        .snapshot();
    (h.count, h.sum)
}

/// The index of `algorithm` in [`Algorithm::ALL`] and in per-algorithm
/// arrays.
pub fn slot(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::WaitAndSearch => 0,
        Algorithm::UniversalSearch => 1,
    }
}

/// Lowers the reference program of `algorithm` (the common algorithm
/// from the origin), as the service and each sweep worker do.
pub fn lower_reference(algorithm: Algorithm, copts: &CompileOptions) -> Option<CompiledProgram> {
    match algorithm {
        Algorithm::WaitAndSearch => rvz_core::WaitAndSearch.compile(copts),
        Algorithm::UniversalSearch => rvz_search::UniversalSearch.compile(copts),
    }
    .ok()
}

/// Replays both reference lowerings under `copts` into `spans`; reports
/// the mean time and pieces per attempt and how many cover `horizon`.
/// Returns the horizon-covering references (the ones the service and
/// the sweep workers keep).
pub fn replay_references(
    copts: &CompileOptions,
    horizon: f64,
    spans: &mut Spans,
    m: &mut Metrics,
) -> [Option<CompiledProgram>; 2] {
    let mut pieces = Vec::new();
    let mut covers = 0.0;
    let refs = Algorithm::ALL.map(|algorithm| {
        let program = spans.time("lowering.reference", || lower_reference(algorithm, copts));
        pieces.push(program.as_ref().map_or(0.0, |p| p.pieces().len() as f64));
        let program = program.filter(|p| p.covers(horizon));
        if program.is_some() {
            covers += 1.0;
        }
        program
    });
    m.insert(
        "lowering.reference_us",
        mean(spans.samples("lowering.reference")),
    );
    m.insert("lowering.reference_pieces", mean(&pieces));
    m.insert("lowering.reference_covers", covers);
    refs
}

/// An arena's size computed from its column lengths: seven `f64`
/// columns and one `u32` column per piece, the round marks, and the
/// baked envelope tree (two boxes of four `f64` per leaf slot, leaves
/// padded to a power of two). Circular side-table entries are not
/// counted.
pub fn arena_bytes(arena: &ProgramSoA) -> f64 {
    let n = arena.len();
    let columns = n * (7 * 8 + 4);
    let marks = arena.round_marks().len() * 8;
    let tree = 2 * n.next_power_of_two() * 4 * 8;
    (columns + marks + tree) as f64
}

/// The p50 and p99 of a span's samples.
pub fn p50_p99(samples: &[f64]) -> (f64, f64) {
    (percentile(samples, 50.0), percentile(samples, 99.0))
}

/// The cursor engine's per-call timings and counts over `ops`
/// operations.
pub fn cursor_layers(m: &mut Metrics, spans: &Spans, answers: u64, steps: u64, ops: f64) {
    let (p50, p99) = p50_p99(spans.samples("cursor"));
    m.insert("cursor.us_p50", p50);
    m.insert("cursor.us_p99", p99);
    m.insert(
        "cursor.steps_per_query",
        ratio(steps as f64, answers as f64),
    );
    m.insert("cursor.query_share", answers as f64 / ops);
}
