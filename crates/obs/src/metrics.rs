//! Lock-free counters, gauges and fixed-bucket log-linear histograms,
//! plus the global registry that names them.
//!
//! Everything here is built for the engine's hot path: recording a
//! metric is a handful of relaxed atomic operations and **never
//! allocates** once the metric handle exists (the allocation gate in
//! `rvz-sim/tests/alloc_gate.rs` runs with telemetry recording live).
//! Handles are `&'static` — the registry leaks each metric exactly once
//! — so call sites cache them in a `OnceLock` (the
//! [`counter!`](crate::counter), [`gauge!`](crate::gauge) and
//! [`histogram!`](crate::histogram) macros do this per call site) and the
//! registry mutex is touched only on first use.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Global kill switch (`rvz … --no-metrics`). When off, counters,
/// histograms, spans and the flight recorder all become no-ops; gauges
/// still store (they are written at scrape time, and with metrics off
/// nothing scrapes them).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is recording enabled?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the global recording switch (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Shards per counter: enough to keep an 8–16 worker pool off each
/// other's cache lines without bloating every counter.
const SHARDS: usize = 16;

/// One cache line per shard so concurrent writers do not false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

/// The writing thread's home shard, assigned round-robin at first use.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    HOME.with(|h| *h)
}

/// A monotone event counter, sharded across cache lines.
///
/// `add` is one relaxed `fetch_add` on the calling thread's home shard;
/// `get` sums the shards (reads may land between two writers' updates —
/// totals are eventually exact once writers quiesce, which is the
/// contract a scrape needs).
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    pub(crate) fn new() -> Self {
        Counter {
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds `n` events (no-op when recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A point-in-time signed value (queue depth, in-flight requests).
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Stores the current value (gauges ignore the kill switch — they
    /// are written at scrape time, not on the hot path).
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The stored value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution bits: 2 → four linear sub-buckets per octave,
/// bounding the relative bucketing error at 25%.
const SUB_BITS: u32 = 2;

/// Total bucket count covering all of `u64` (indices 0..=251): four
/// exact small-value buckets plus four sub-buckets for each of the 62
/// octaves `2..=63`.
pub const BUCKETS: usize = 4 + (64 - SUB_BITS as usize) * 4;

/// The bucket index recording value `v`: exact for `v < 4`, then
/// log-linear — octave `⌊log₂ v⌋` split into four linear sub-buckets.
/// Consecutive values map to the same or adjacent buckets; the scheme
/// covers all of `u64` in [`BUCKETS`] buckets with ≤ 25% relative
/// error.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (octave - 2)) & 3) as usize;
        (octave - 1) * 4 + sub
    }
}

/// The largest value bucket `i` records (inclusive). Together with
/// [`bucket_index`]: `bucket_upper_bound(bucket_index(v)) >= v` and the
/// previous bucket's bound is `< v`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i < 4 {
        i as u64
    } else {
        let octave = i / 4 + 1;
        let sub = (i % 4) as u64;
        ((1u64 << octave) - 1) + (sub + 1) * (1u64 << (octave - 2))
    }
}

/// A fixed-bucket log-linear histogram: 252 atomic buckets covering all
/// of `u64` with ≤ 25% relative error, plus exact `count` and `sum`.
///
/// `observe` is three relaxed `fetch_add`s — no locks, no allocation,
/// no floating point. Merging two histograms is bucket-wise addition,
/// which is associative and commutative (property-tested), so per-worker
/// histograms can be combined in any order.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation (no-op when recording is disabled).
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A consistent-enough copy for rendering and merging (concurrent
    /// writers may land between bucket and count reads; totals agree
    /// once writers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`], mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Builds a snapshot directly from observations, without a
    /// registry (the metrics property tests build their merge and
    /// percentile samples with it).
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> Self {
        let mut snap = HistogramSnapshot::default();
        for v in values {
            snap.buckets[bucket_index(v)] += 1;
            snap.count += 1;
            snap.sum = snap.sum.saturating_add(v);
        }
        snap
    }

    /// Bucket-wise merge (associative and commutative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The upper bound of the bucket holding the `p`-th percentile
    /// (`0 < p <= 100`), or `None` on an empty histogram.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(bucket_upper_bound(BUCKETS - 1))
    }
}

/// What a registry entry points at.
pub(crate) enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One named, labeled metric.
pub(crate) struct Entry {
    pub(crate) name: &'static str,
    pub(crate) labels: Vec<(&'static str, &'static str)>,
    pub(crate) metric: Metric,
}

/// The process-wide metric registry: names → leaked `&'static` metric
/// handles, deduplicated by `(name, labels)`.
///
/// The registry lock is taken only on handle lookup; the macros cache
/// the returned reference per call site, so steady-state recording
/// never touches it.
pub struct Registry {
    pub(crate) entries: Mutex<Vec<Entry>>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        entries: Mutex::new(Vec::new()),
    })
}

impl Registry {
    fn lookup<T, F, G>(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        make: F,
        cast: G,
    ) -> &'static T
    where
        F: FnOnce() -> Metric,
        G: Fn(&Metric) -> Option<&'static T>,
    {
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return cast(&e.metric).unwrap_or_else(|| {
                panic!("metric {name} already registered as a {}", e.metric.kind())
            });
        }
        let metric = make();
        let handle = cast(&metric).expect("freshly made metric has the requested kind");
        entries.push(Entry {
            name,
            labels: labels.to_vec(),
            metric,
        });
        handle
    }

    /// The counter `name{labels}`, created (and leaked) on first use.
    pub fn counter(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
    ) -> &'static Counter {
        self.lookup(
            name,
            labels,
            || Metric::Counter(Box::leak(Box::new(Counter::new()))),
            |m| match m {
                Metric::Counter(c) => Some(*c),
                _ => None,
            },
        )
    }

    /// The gauge `name{labels}`, created (and leaked) on first use.
    pub fn gauge(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
    ) -> &'static Gauge {
        self.lookup(
            name,
            labels,
            || Metric::Gauge(Box::leak(Box::new(Gauge::new()))),
            |m| match m {
                Metric::Gauge(g) => Some(*g),
                _ => None,
            },
        )
    }

    /// The histogram `name{labels}`, created (and leaked) on first use.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
    ) -> &'static Histogram {
        self.lookup(
            name,
            labels,
            || Metric::Histogram(Box::leak(Box::new(Histogram::new()))),
            |m| match m {
                Metric::Histogram(h) => Some(*h),
                _ => None,
            },
        )
    }
}

/// A `&'static Counter` handle, registered on first execution of the
/// call site and cached in a per-site `OnceLock` thereafter.
#[macro_export]
macro_rules! counter {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__OBS_HANDLE.get_or_init(|| $crate::registry().counter($name, &[$(($k, $v)),*]))
    }};
}

/// A `&'static Gauge` handle, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__OBS_HANDLE.get_or_init(|| $crate::registry().gauge($name, &[$(($k, $v)),*]))
    }};
}

/// A `&'static Histogram` handle, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__OBS_HANDLE.get_or_init(|| $crate::registry().histogram($name, &[$(($k, $v)),*]))
    }};
}
