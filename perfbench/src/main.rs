//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload in a fresh process (peak RSS and
//! the `rvz_obs` counters are process-wide) and prints, as the last line
//! of stdout, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics of an untraced
//! run; `--trace 1` repeats the same untraced run for its exact counts
//! and then replays its inputs through each layer's public calls,
//! timing every call, for the per-layer metrics. Workloads, their
//! configurations and the layers they stress are described in
//! `perfbench/WORKLOADS.md`.

mod client;
mod inputs;
mod layers;
mod serve;
mod sweep;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Metric values by name; units come from [`END_TO_END`] and
/// [`PER_LAYER`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// The end-to-end metrics of an untraced run (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run (`--trace 1`), with units. A
/// layer the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("report.jsonl_us_per_record", "us"),
    ("canonical.us", "us"),
    ("service.handle_us_p50", "us"),
    ("service.handle_us_p99", "us"),
    ("service.wait_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_op", "count"),
    ("cache.program_entries", "count"),
    ("lowering.partner_us", "us"),
    ("lowering.partner_pieces", "count"),
    ("lowering.reference_us", "us"),
    ("lowering.reference_pieces", "count"),
    ("lowering.reference_covers", "count"),
    ("arena.build_us", "us"),
    ("arena.bytes", "B"),
    ("kernel.us", "us"),
    ("kernel.steps_per_query", "count"),
    ("kernel.chunks_per_query", "count"),
    ("kernel.lane_utilization", "ratio"),
    ("kernel.refusal_share", "ratio"),
    ("scalar.us", "us"),
    ("scalar.query_share", "ratio"),
    ("cursor.us_p50", "us"),
    ("cursor.us_p99", "us"),
    ("cursor.steps_per_query", "count"),
    ("cursor.query_share", "ratio"),
    ("executor.busy_share", "ratio"),
    ("executor.reference_us", "us"),
    ("engine.share.compiled-soa", "ratio"),
    ("engine.share.compiled-lazy", "ratio"),
    ("engine.share.compiled-eager", "ratio"),
    ("engine.share.cursor", "ratio"),
    ("engine.steps_per_query", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What a workload run reports.
pub struct Outcome {
    /// Operations measured (requests or scenarios).
    pub attempted: u64,
    /// Operations that failed: non-200 status, transport error, or a
    /// failed correctness check.
    pub failed: u64,
    /// Workload premises that did not hold (empty when all hold).
    pub broken_premises: Vec<String>,
    pub metrics: Metrics,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("`--trace` expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_cold|sweep_mixed \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve_cold" => serve::cold(&args),
        "sweep_mixed" => sweep::mixed(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    for premise in &outcome.broken_premises {
        eprintln!("perfbench: premise does not hold: {premise}");
    }
    let correct = outcome.failed == 0 && outcome.broken_premises.is_empty();
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric `{name}` is not in the reported table"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity; a ratio over an empty set reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    rvz_experiments::percentile(&sorted, p).unwrap_or(0.0)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Starts a new peak for [`peak_rss_mb`]: hands the allocator's free
/// memory back to the kernel, then resets the process's `VmHWM` to its
/// current resident set. Called after set-up, so the peak is the measured
/// window's and not that of set-up's transient allocations, which the
/// allocator kept or returned differently from run to run.
pub fn reset_peak_rss() -> Result<(), String> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free heap memory.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set failed: {e}"))
}

/// Confines the calling thread, and every thread it spawns afterwards,
/// to one CPU: the lowest-numbered CPU it may run on. A run that cannot
/// be pinned reports a broken premise, so its figures are never taken
/// for a pinned run's.
pub fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // Room for 1,024 CPUs, the size of glibc's `cpu_set_t`.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live CPU set of `size` bytes, which the call
    // only writes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the thread may run on no CPU")?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized CPU set of `size` bytes,
    // which the call only reads.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}
