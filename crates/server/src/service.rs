//! The query service: endpoint dispatch over the `Scenario → canonical
//! key → cache → engine` pipeline.
//!
//! ## Determinism contract
//!
//! Every response body is a pure function of the request. A cache miss
//! simulates the query's **canonical representative** (a pure function
//! of the query, see [`rvz_experiments::canonicalize`]) under the
//! service's fixed engine options, then maps the outcome back through
//! the orbit's inverse transform; a cache hit returns the stored value
//! of that same computation. Identical requests therefore produce
//! byte-identical JSON regardless of worker count, arrival order,
//! cache state, or whether the cache is enabled at all. Mutable
//! observability (hit/miss markers, counters) lives in the
//! `X-Rvz-Cache` response header and the `/stats` endpoint, never in a
//! result body.
//!
//! ## Engine-frame semantics
//!
//! The engine options (horizon, tolerance, step budget) apply **in the
//! canonical frame**: two orbit-mates share one cache entry exactly
//! because they share one canonical simulation, so a query whose
//! description is the `τ`-scaled twin of the representative sees the
//! horizon scaled by the same `τ` its times are. This is the
//! cache-coherence argument from attribute symmetry: the orbit is
//! served by *one* answer, transported along the symmetry.

use crate::cache::{CacheStats, ResultCache};
use crate::faults::{FaultPlan, FaultSite, FaultState};
use crate::http::{Request, Response};
use crate::snapshot::{
    engine_fingerprint, read_snapshot, write_snapshot, RestoreOutcome, SnapshotData,
};
use rvz_experiments::{
    breaker_token, orbit_key, record_to_json, run_sweep, scenario_from_json, Algorithm, Json,
    Scenario, Summary, SweepOptions, SweepRecord, DEFAULT_GRID,
};
use rvz_model::{feasibility, Chirality, RobotAttributes};
use rvz_sim::{first_contact_streamed, Budget, ContactOptions, EngineScratch, SimOutcome};
use rvz_trajectory::{Compile, CompileOptions, ProgramSoA, SoaStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tuning for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceOptions {
    /// Maximum resident cache entries (across all shards).
    pub cache_capacity: usize,
    /// Shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Canonicalization grid step (snapped to a power of two;
    /// `≤ 0` for bit-exact keys). Defaults to [`DEFAULT_GRID`].
    pub cache_grid: f64,
    /// Disables the cache entirely: every request simulates its
    /// canonical representative on the engine route a miss takes, so
    /// response bytes are the same either way. Tests set it to force
    /// engine work on every request.
    pub no_cache: bool,
    /// Engine options and batch thread count for cache misses.
    ///
    /// `sweep.compile_pieces` is the piece budget of the service's
    /// **compiled path** (`0` disables it). The **reference** program
    /// (the common algorithm from the origin, a function of the
    /// algorithm and the service horizon alone) is streamed into a SoA
    /// arena **at most once per algorithm for the process lifetime** —
    /// including the negative result, so a horizon too deep for the
    /// budget is probed exactly once and every later query skips
    /// straight to the cursor engine. Each miss **streams** the orbit's
    /// frame-warped **partner** into a transient SoA arena
    /// ([`SoaStream`]), only as far as the lane kernel runs: a feasible
    /// pair that meets early lowers an early prefix, an infeasible twin
    /// streams to the horizon in one step, and the answer is
    /// bit-for-bit the one the eager partner arena gives
    /// ([`first_contact_streamed`]). Partners are never cached: a miss
    /// on an evicted orbit re-streams its partner (same bytes) and
    /// never re-lowers the reference. Everything the kernel does not
    /// answer runs on the cursor engine through the sweep executor,
    /// which never lowers.
    pub sweep: SweepOptions,
    /// Per-request wall-clock deadline for engine work. Each request
    /// gets a fresh [`Budget`] starting at dispatch; an exhausted one
    /// surfaces as an `"outcome":"deadline"` record (HTTP 200). A
    /// deadline outcome is **never cached** — it reflects this
    /// request's wall clock, not the scenario — so the determinism
    /// contract ("byte-identical responses regardless of cache state")
    /// continues to hold for every cached byte.
    pub deadline: Option<Duration>,
    /// Maximum concurrent engine-heavy requests (`/first-contact`,
    /// `/sweep`); beyond it requests are shed with `503` +
    /// `Retry-After`. `0` disables the limit.
    pub max_inflight: usize,
    /// Deterministic fault injection (tests/CI only; `None` in
    /// production costs one null check per site).
    pub faults: Option<FaultPlan>,
    /// Disables the observability surface: `/metrics` and
    /// `/trace/recent` answer 404 exactly like unknown endpoints, and
    /// service-level counters stop recording. Response bodies and every
    /// other header are byte-identical either way (`X-Rvz-Trace` is
    /// always attached — its sequence is deterministic, not sampled).
    pub no_metrics: bool,
    /// Structured slow-query log threshold: requests whose total
    /// handling time reaches this many milliseconds emit one JSONL line
    /// on stderr (trace ID, endpoint, status, canonical orbit digest,
    /// engine path/steps, cache outcome). `None` disables the log.
    pub slow_log_ms: Option<u64>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_capacity: 65_536,
            cache_shards: 16,
            cache_grid: DEFAULT_GRID,
            no_cache: false,
            sweep: SweepOptions::default(),
            deadline: None,
            max_inflight: 0,
            faults: None,
            no_metrics: false,
            slow_log_ms: None,
        }
    }
}

/// What the connection loop should do after sending the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Begin graceful shutdown (a `/shutdown` request was accepted).
    Shutdown,
}

/// The shared, thread-safe query service.
pub struct Service {
    opts: ServiceOptions,
    cache: ResultCache<SimOutcome>,
    /// Reference arenas, one per [`Algorithm`]: a pure function of the
    /// algorithm and the service horizon, lowered at most once for the
    /// process lifetime (`None` when the lowering does not cover the
    /// horizon) and shared by every miss.
    reference: [OnceLock<Option<Arc<ProgramSoA>>>; 2],
    /// How many reference lowerings actually ran (observability: stays
    /// at ≤ 2 no matter how many orbits stream through).
    reference_lowerings: AtomicU64,
    requests: AtomicU64,
    /// Engine-heavy requests currently inside their handler.
    inflight: AtomicUsize,
    /// Requests shed by the in-flight limit (503s).
    shed: AtomicU64,
    /// Requests whose engine work hit the wall-clock deadline.
    deadline_outcomes: AtomicU64,
    /// When this service was constructed (`/stats` uptime).
    start: Instant,
    /// Deterministic trace-ID sequence for requests that arrive without
    /// an `X-Rvz-Trace` header. A counter, not a clock or RNG, so two
    /// services fed the same request sequence emit identical headers —
    /// the wire byte-identity the `--no-metrics` gate is tested against.
    trace_seq: AtomicU64,
    /// The accept loop's live queue depth, attached by the server at
    /// spawn (absent for a bare in-process service).
    server_queued: OnceLock<Arc<AtomicUsize>>,
    /// Connections shed at the accept queue, attached alongside.
    server_shed: OnceLock<Arc<AtomicU64>>,
    /// Fault-injection state, built from `opts.faults` (`None` off).
    faults: Option<Arc<FaultState>>,
    /// Durability observability (restore outcome, snapshot-write
    /// bookkeeping); `None` inside until snapshots are used.
    durability: Mutex<Durability>,
}

/// Snapshot/restore bookkeeping behind [`Service::durability`], fed by
/// [`Service::restore_from`] and [`Service::write_snapshot_to`] and
/// reported under `/stats` → `durability`.
#[derive(Debug, Default)]
struct Durability {
    /// `Some` once a boot-time restore was attempted.
    restore: Option<RestoreOutcome>,
    /// When the last successful snapshot write finished.
    last_snapshot: Option<Instant>,
    /// Entries persisted by the last successful snapshot write.
    persisted_entries: usize,
    /// Successful snapshot writes.
    writes: u64,
    /// Failed snapshot writes (the previous snapshot stays intact).
    write_failures: u64,
}

impl Service {
    /// Creates a service with the given tuning.
    pub fn new(opts: ServiceOptions) -> Self {
        let faults = opts
            .faults
            .filter(|p| p.is_active())
            .map(|p| Arc::new(FaultState::new(p)));
        preregister_metrics();
        Service {
            cache: ResultCache::new(opts.cache_capacity, opts.cache_shards),
            reference: [OnceLock::new(), OnceLock::new()],
            reference_lowerings: AtomicU64::new(0),
            opts,
            requests: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            deadline_outcomes: AtomicU64::new(0),
            start: Instant::now(),
            trace_seq: AtomicU64::new(1),
            server_queued: OnceLock::new(),
            server_shed: OnceLock::new(),
            faults,
            durability: Mutex::new(Durability::default()),
        }
    }

    /// Attaches the accept loop's live queue-depth and shed counters so
    /// `/stats` and `/metrics` can report them. Idempotent — the first
    /// attachment wins (one service, one server).
    pub fn attach_server_gauges(&self, queued: Arc<AtomicUsize>, shed: Arc<AtomicU64>) {
        let _ = self.server_queued.set(queued);
        let _ = self.server_shed.set(shed);
    }

    /// The engine-configuration digest pinning this service's cached
    /// bytes: a snapshot restores only under an identical fingerprint
    /// (see [`crate::snapshot`]).
    pub fn engine_fingerprint(&self) -> u64 {
        engine_fingerprint(
            self.opts.cache_grid,
            &self.opts.sweep.contact,
            self.opts.sweep.compile_pieces,
        )
    }

    /// Captures the current cache state for a snapshot: the result
    /// entries in per-shard recency order. In-flight single-flight
    /// claims and deadline outcomes are never included (claims are not
    /// values; deadlines are never cached).
    pub fn snapshot_data(&self) -> SnapshotData {
        SnapshotData {
            results: self.cache.export(),
        }
    }

    /// Restores caches from the snapshot at `path` (if any), degrading
    /// gracefully: corrupt or mismatched snapshots cold-start. Returns
    /// the outcome; it is also kept for `/stats` and the boot banner.
    pub fn restore_from(&self, path: &Path) -> RestoreOutcome {
        let disk = self.faults.as_ref().and_then(|f| f.disk());
        let (data, outcome) = read_snapshot(path, self.engine_fingerprint(), disk.as_ref());
        for (key, value) in data.results {
            self.cache.insert(key, value);
        }
        let mut d = self.durability.lock().expect("durability poisoned");
        d.restore = Some(outcome.clone());
        outcome
    }

    /// Writes a snapshot of the current cache state to `path` (durable:
    /// temp + fsync + atomic rename). On failure the previous snapshot
    /// is left intact and the failure is counted, never propagated to
    /// request handling.
    ///
    /// # Errors
    ///
    /// Returns the I/O error (including injected disk faults) for the
    /// caller's log line.
    pub fn write_snapshot_to(&self, path: &Path) -> std::io::Result<usize> {
        let data = self.snapshot_data();
        let entries = data.results.len();
        let disk = self.faults.as_ref().and_then(|f| f.disk());
        let result = write_snapshot(path, self.engine_fingerprint(), &data, disk);
        let mut d = self.durability.lock().expect("durability poisoned");
        match result {
            Ok(()) => {
                d.last_snapshot = Some(Instant::now());
                d.persisted_entries = entries;
                d.writes += 1;
                Ok(entries)
            }
            Err(e) => {
                d.write_failures += 1;
                Err(e)
            }
        }
    }

    /// The last boot-restore outcome, if a restore was attempted.
    pub fn restore_outcome(&self) -> Option<RestoreOutcome> {
        self.durability
            .lock()
            .expect("durability poisoned")
            .restore
            .clone()
    }

    /// The configured options.
    pub fn options(&self) -> &ServiceOptions {
        &self.opts
    }

    /// Cache counters (also served under `/stats`).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The compiled programs the service holds: `entries` is the
    /// number of reference arenas resident (at most one per algorithm)
    /// and `misses` the reference lowerings that ran. Partners are
    /// streamed per miss and never held.
    pub fn program_stats(&self) -> CacheStats {
        CacheStats {
            entries: self
                .reference
                .iter()
                .filter(|slot| matches!(slot.get(), Some(Some(_))))
                .count(),
            misses: self.reference_lowerings(),
            ..CacheStats::default()
        }
    }

    /// How many reference lowerings have run (at most one per algorithm).
    pub fn reference_lowerings(&self) -> u64 {
        self.reference_lowerings.load(Ordering::Relaxed)
    }

    /// Handles one request: trace-ID stamping, dispatch, then request
    /// metrics and the slow-query log.
    ///
    /// Every response carries an `X-Rvz-Trace` header — echoed from the
    /// client's `X-Rvz-Trace` when it parses as 16 hex digits, drawn
    /// from a deterministic per-service sequence otherwise — so the
    /// wire bytes do not depend on whether metrics are enabled.
    ///
    /// May panic under injected faults ([`FaultSite::HandlerPanic`]);
    /// the connection loop isolates that panic to a `500` for this
    /// request.
    pub fn handle(&self, req: &Request) -> (Response, Control) {
        let started = Instant::now();
        let trace = self.trace_id_for(req);
        rvz_obs::set_trace_id(trace);
        rvz_sim::telemetry::clear_last();
        LAST_ORBIT.with(|o| o.set(None));
        rvz_obs::span!("request");
        let (response, control) = self.dispatch(req);
        let response = response.header("X-Rvz-Trace", &format!("{trace:016x}"));
        let elapsed = started.elapsed();
        if !self.opts.no_metrics {
            record_request_metrics(&response, elapsed);
        }
        if let Some(limit) = self.opts.slow_log_ms {
            if elapsed.as_millis() as u64 >= limit {
                slow_log(req, &response, trace, elapsed);
            }
        }
        (response, control)
    }

    /// The trace ID for one request: the client's (16 hex digits)
    /// echoed, or the next value of the deterministic sequence.
    fn trace_id_for(&self, req: &Request) -> u64 {
        if let Some(raw) = req.headers.get("x-rvz-trace") {
            if raw.trim().len() == 16 {
                if let Ok(n) = u64::from_str_radix(raw.trim(), 16) {
                    return n;
                }
            }
        }
        self.trace_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Endpoint dispatch (the body of [`Service::handle`] minus the
    /// per-request observability wrapper).
    fn dispatch(&self, req: &Request) -> (Response, Control) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(f) = &self.faults {
            if f.fires(FaultSite::HandlerPanic) {
                panic!("injected fault: request handler panic");
            }
        }
        let metrics_on = !self.opts.no_metrics;
        let response = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::ok(Json::obj(vec![("ok", Json::Bool(true))]).render()),
            ("GET", "/stats") => self.stats_response(),
            ("GET", "/metrics") if metrics_on => self.metrics_response(),
            ("GET", "/trace/recent") if metrics_on => trace_recent_response(req),
            (_, "/metrics" | "/trace/recent") if metrics_on => {
                Response::error(405, "method not allowed for this endpoint")
            }
            ("GET", "/feasibility") => self.feasibility_from_query(req),
            ("POST", "/feasibility") => self.feasibility_from_body(req),
            ("POST", "/first-contact") => self.with_admission(|| self.first_contact(req)),
            ("POST", "/sweep") => self.with_admission(|| self.sweep(req)),
            ("POST", "/shutdown") => {
                let body = Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("shutting_down", Json::Bool(true)),
                ])
                .render();
                let mut resp = Response::ok(body);
                resp.close = true;
                return (resp, Control::Shutdown);
            }
            (
                _,
                "/healthz" | "/stats" | "/feasibility" | "/first-contact" | "/sweep" | "/shutdown",
            ) => Response::error(405, "method not allowed for this endpoint"),
            // Includes /metrics and /trace/recent under --no-metrics:
            // the observability surface disappears indistinguishably
            // from an endpoint that never existed.
            _ => Response::error(404, "no such endpoint"),
        };
        (response, Control::Continue)
    }

    /// Runs an engine-heavy endpoint under the in-flight limit,
    /// shedding with `503` + `Retry-After` when it is exceeded. The
    /// slot is released on unwind too (injected handler faults must not
    /// leak admission capacity).
    fn with_admission(&self, run: impl FnOnce() -> Response) -> Response {
        let max = self.opts.max_inflight;
        if max == 0 {
            return run();
        }
        if self.inflight.fetch_add(1, Ordering::SeqCst) >= max {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.shed.fetch_add(1, Ordering::Relaxed);
            if !self.opts.no_metrics {
                rvz_obs::counter!("rvz_shed_total", "cause" => "max_inflight").inc();
            }
            return Response::error(503, "server overloaded: engine in-flight limit reached")
                .header("Retry-After", "1");
        }
        struct Release<'a>(&'a AtomicUsize);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let _slot = Release(&self.inflight);
        run()
    }

    /// The engine options for one request: the service's tuning plus a
    /// fresh wall-clock [`Budget`] when a deadline is configured.
    fn request_contact(&self) -> ContactOptions {
        match self.opts.deadline {
            Some(limit) => self.opts.sweep.contact.with_budget(Budget::new(limit)),
            None => self.opts.sweep.contact,
        }
    }

    /// Requests shed by the in-flight limit so far.
    pub fn shed_requests(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    fn stats_response(&self) -> Response {
        let stats = self.cache.stats();
        let programs = self.program_stats().entries;
        let body = Json::obj(vec![
            (
                "requests",
                Json::Num(self.requests.load(Ordering::Relaxed) as f64),
            ),
            ("uptime_s", Json::Num(self.start.elapsed().as_secs_f64())),
            (
                "build",
                Json::obj(vec![
                    ("version", Json::Str(env!("CARGO_PKG_VERSION").to_string())),
                    (
                        "engine_fingerprint",
                        Json::Str(format!("{:016x}", self.engine_fingerprint())),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("enabled", Json::Bool(!self.opts.no_cache)),
                    ("entries", Json::Num(stats.entries as f64)),
                    ("capacity", Json::Num(self.opts.cache_capacity as f64)),
                    ("hits", Json::Num(stats.hits as f64)),
                    ("misses", Json::Num(stats.misses as f64)),
                    ("evictions", Json::Num(stats.evictions as f64)),
                    ("joined", Json::Num(stats.joined as f64)),
                    ("grid", Json::Num(self.opts.cache_grid)),
                ]),
            ),
            (
                "programs",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.opts.sweep.compile_pieces > 0)),
                    ("entries", Json::Num(programs as f64)),
                    (
                        "piece_budget",
                        Json::Num(self.opts.sweep.compile_pieces as f64),
                    ),
                    (
                        "reference_lowerings",
                        Json::Num(self.reference_lowerings() as f64),
                    ),
                ]),
            ),
            (
                "admission",
                Json::obj(vec![
                    ("max_inflight", Json::Num(self.opts.max_inflight as f64)),
                    (
                        "inflight",
                        Json::Num(self.inflight.load(Ordering::SeqCst) as f64),
                    ),
                    ("shed", Json::Num(self.shed_requests() as f64)),
                    (
                        "queue_depth",
                        Json::Num(
                            self.server_queued
                                .get()
                                .map_or(-1.0, |q| q.load(Ordering::Relaxed) as f64),
                        ),
                    ),
                    (
                        "shed_by_cause",
                        Json::obj(vec![
                            (
                                "queue",
                                Json::Num(
                                    self.server_shed
                                        .get()
                                        .map_or(0.0, |s| s.load(Ordering::Relaxed) as f64),
                                ),
                            ),
                            ("max_inflight", Json::Num(self.shed_requests() as f64)),
                            (
                                "deadline",
                                Json::Num(self.deadline_outcomes.load(Ordering::Relaxed) as f64),
                            ),
                        ]),
                    ),
                    (
                        "deadline_ms",
                        Json::Num(self.opts.deadline.map_or(0.0, |d| d.as_secs_f64() * 1e3)),
                    ),
                ]),
            ),
            ("durability", self.durability_json()),
        ])
        .render();
        Response::ok(body)
    }

    /// `GET /metrics`: the full registry as Prometheus text exposition
    /// (format v0.0.4). Point-in-time gauges — uptime, in-flight and
    /// queue depth, cache sizes — are written at scrape time; counters
    /// and histograms accumulate as requests flow.
    fn metrics_response(&self) -> Response {
        use rvz_obs::gauge;
        gauge!("rvz_uptime_seconds").set(self.start.elapsed().as_secs() as i64);
        gauge!("rvz_inflight").set(self.inflight.load(Ordering::SeqCst) as i64);
        gauge!("rvz_cache_entries").set(self.cache.stats().entries as i64);
        gauge!("rvz_program_cache_entries").set(self.program_stats().entries as i64);
        gauge!("rvz_queue_depth").set(
            self.server_queued
                .get()
                .map_or(0, |q| q.load(Ordering::Relaxed)) as i64,
        );
        gauge!("rvz_shed_connections").set(
            self.server_shed
                .get()
                .map_or(0, |s| s.load(Ordering::Relaxed)) as i64,
        );
        Response::ok_text(rvz_obs::render(), "text/plain; version=0.0.4")
    }

    /// The `/stats` → `durability` object: whether snapshots are in
    /// use, how the boot restore went (`cold|warm|salvaged {n}`), how
    /// stale the last snapshot is, and write bookkeeping.
    fn durability_json(&self) -> Json {
        let d = self.durability.lock().expect("durability poisoned");
        let restore = match &d.restore {
            None => Json::Str("none".to_string()),
            Some(outcome) => Json::Str(outcome.label()),
        };
        let restored = d.restore.as_ref().map_or(0, |o| o.entries());
        Json::obj(vec![
            ("enabled", Json::Bool(d.restore.is_some())),
            ("restore", restore),
            ("restored_entries", Json::Num(restored as f64)),
            (
                "snapshot_age_s",
                match d.last_snapshot {
                    None => Json::Num(-1.0),
                    Some(at) => Json::Num(at.elapsed().as_secs_f64()),
                },
            ),
            ("persisted_entries", Json::Num(d.persisted_entries as f64)),
            ("writes", Json::Num(d.writes as f64)),
            ("write_failures", Json::Num(d.write_failures as f64)),
        ])
    }

    fn feasibility_from_query(&self, req: &Request) -> Response {
        let parse_f64 = |key: &str, default: f64| -> Result<f64, String> {
            match req.query_value(key) {
                None => Ok(default),
                Some(raw) => raw
                    .parse::<f64>()
                    .map_err(|_| format!("query parameter `{key}` expects a number, got `{raw}`")),
            }
        };
        let attrs = (|| -> Result<RobotAttributes, String> {
            // A typo'd parameter must not silently answer for the
            // default scenario (same contract as the CLI's flag registry).
            if let Some((unknown, _)) = req
                .query
                .iter()
                .find(|(k, _)| !matches!(k.as_str(), "v" | "tau" | "phi" | "chi"))
            {
                return Err(format!(
                    "unknown query parameter `{unknown}` (expected v, tau, phi, chi)"
                ));
            }
            let v = parse_f64("v", 1.0)?;
            let tau = parse_f64("tau", 1.0)?;
            let phi = parse_f64("phi", 0.0)?;
            let chi = match req.query_value("chi") {
                None => Chirality::Consistent,
                Some(raw) => rvz_experiments::parse_chirality(raw)?,
            };
            if !(v > 0.0 && v.is_finite() && tau > 0.0 && tau.is_finite()) {
                return Err("`v` and `tau` must be positive and finite".into());
            }
            if !phi.is_finite() {
                return Err("`phi` must be finite".into());
            }
            Ok(RobotAttributes::new(v, tau, phi, chi))
        })();
        match attrs {
            Ok(attrs) => self.feasibility_response(&attrs),
            Err(e) => Response::error(400, &e),
        }
    }

    fn feasibility_from_body(&self, req: &Request) -> Response {
        match parse_body(&req.body).and_then(|json| scenario_from_json(&json)) {
            Ok(scenario) => self.feasibility_response(&scenario.attributes()),
            Err(e) => Response::error(400, &e),
        }
    }

    fn feasibility_response(&self, attrs: &RobotAttributes) -> Response {
        let verdict = feasibility(attrs);
        // The verdict-level orbit: the full attribute quotient under
        // which the answer is provably constant.
        let probe = Scenario {
            speed: attrs.speed(),
            time_unit: attrs.time_unit(),
            orientation: attrs.orientation(),
            chirality: attrs.chirality(),
            ..reference_scenario()
        };
        let orbit = orbit_key(&probe, self.opts.cache_grid);
        let body = Json::obj(vec![
            (
                "attributes",
                Json::obj(vec![
                    ("speed", Json::Num(attrs.speed())),
                    ("time_unit", Json::Num(attrs.time_unit())),
                    ("orientation", Json::Num(attrs.orientation())),
                    ("chirality", Json::Str(attrs.chirality().to_string())),
                ]),
            ),
            ("feasible", Json::Bool(verdict.is_feasible())),
            ("breaker", Json::Str(breaker_token(&verdict).to_string())),
            ("verdict", Json::Str(verdict.to_string())),
            (
                "orbit",
                Json::obj(vec![
                    ("time_unit", Json::Num(f64::from_bits(orbit.time_unit))),
                    ("speed", Json::Num(f64::from_bits(orbit.speed))),
                    ("orientation", Json::Num(f64::from_bits(orbit.orientation))),
                    ("chirality", Json::Str(orbit.chirality.to_string())),
                ]),
            ),
        ])
        .render();
        Response::ok(body)
    }

    /// Answers one scenario through the canonical cache; returns the
    /// record, the canonical reduction it travelled through, and
    /// whether the outcome came from the cache.
    fn answer(&self, scenario: &Scenario) -> (SweepRecord, rvz_experiments::Canonical, bool) {
        let canonical = scenario.canonicalize(self.opts.cache_grid);
        let contact = self.request_contact();
        let (outcome, hit) = if self.opts.no_cache {
            // Cache off bypasses the result cache only: every
            // request runs the same engine route a miss takes, so the
            // bytes do not depend on the cache setting.
            (self.simulate(&canonical.scenario, &contact), false)
        } else {
            self.cache.get_or_compute_if(
                canonical.key,
                || {
                    if let Some(f) = &self.faults {
                        if f.fires(FaultSite::CacheFail) {
                            panic!("injected fault: cache compute failure");
                        }
                    }
                    self.simulate(&canonical.scenario, &contact)
                },
                // A deadline outcome reflects this request's wall
                // clock, not the scenario: caching it would serve a
                // timeout to future requests that had time to finish.
                |outcome| !matches!(outcome, SimOutcome::Deadline { .. }),
            )
        };
        let record = SweepRecord {
            scenario: *scenario,
            feasibility: feasibility(&scenario.attributes()),
            outcome: canonical.transform.apply(outcome),
        };
        LAST_ORBIT.with(|o| o.set(Some(orbit_digest(&canonical.key))));
        if matches!(record.outcome, SimOutcome::Deadline { .. }) {
            self.count_deadlines(1);
        }
        if !self.opts.no_metrics {
            cache_counter(self.opts.no_cache, hit).inc();
        }
        (record, canonical, hit)
    }

    /// Counts wall-clock deadline outcomes (the third shed cause in
    /// `/stats` → `admission.shed_by_cause`).
    fn count_deadlines(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.deadline_outcomes.fetch_add(n, Ordering::Relaxed);
        if !self.opts.no_metrics {
            rvz_obs::counter!("rvz_shed_total", "cause" => "deadline").add(n);
        }
    }

    /// Simulates the canonical representative: through the compiled
    /// path when it is enabled and the reference lowering covers the
    /// horizon, otherwise through the cursor-path sweep executor. Both
    /// paths are deterministic functions of the scenario, so responses
    /// stay pure functions of the query.
    fn simulate(&self, canonical: &Scenario, contact: &ContactOptions) -> SimOutcome {
        if let Some(f) = &self.faults {
            if f.fires(FaultSite::EngineDelay) {
                // Injected engine latency: the request spends extra
                // wall clock inside "the engine" (drives deadline and
                // overload paths deterministically in tests).
                std::thread::sleep(f.delay());
            }
        }
        if self.opts.sweep.compile_pieces > 0 {
            if let Some(outcome) = self.simulate_compiled(canonical, contact) {
                return outcome;
            }
        }
        let single = SweepOptions {
            threads: 1,
            contact: *contact,
            ..self.opts.sweep
        };
        run_sweep(std::slice::from_ref(canonical), &single)[0].outcome
    }

    /// The compiled path: the shared reference arena against the
    /// orbit's partner, streamed into a transient SoA arena by
    /// [`first_contact_streamed`] — bit-for-bit what the lane batch
    /// kernel answers on the eager partner arena, at the cost of the
    /// prefix the query actually runs on. Theorem-4-infeasible
    /// representatives stream to the horizon in one step: their query
    /// runs to the horizon anyway, so prefixes would only add retries.
    /// `None` — a kernel refusal on the finished arena (the piece
    /// budget truncated the partner) or a partner whose lowering fails
    /// — hands the query to the cursor executor.
    ///
    /// Which engine resolves a representative is a pure function of
    /// the scenario and the engine options, so the determinism contract
    /// holds for every cached byte; a `/sweep` representative resolves
    /// through this same function, so batch and single answers agree
    /// by construction.
    fn simulate_compiled(
        &self,
        canonical: &Scenario,
        contact: &ContactOptions,
    ) -> Option<SimOutcome> {
        let reference = self.reference_for(canonical.algorithm)?;
        let instance = canonical.instance().ok()?;
        let (attrs, offset) = (instance.attributes(), instance.offset());
        let source: Box<dyn Compile> = match canonical.algorithm {
            Algorithm::WaitAndSearch => Box::new(attrs.frame_warp(rvz_core::WaitAndSearch, offset)),
            Algorithm::UniversalSearch => {
                Box::new(attrs.frame_warp(rvz_search::UniversalSearch, offset))
            }
        };
        let mut partner = SoaStream::new(&*source, self.compile_options());
        if !feasibility(attrs).is_feasible() {
            partner.finish();
        }
        let mut scratch = EngineScratch::new();
        let radius = canonical.visibility;
        let outcome =
            first_contact_streamed(&reference, &mut partner, radius, contact, &mut scratch);
        if !self.opts.no_metrics {
            rvz_obs::histogram!("rvz_partner_pieces").observe(partner.arena().len() as u64);
            rvz_obs::counter!("rvz_stream_extensions_total").add(partner.extensions());
        }
        outcome
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions::to_horizon(self.opts.sweep.contact.horizon)
            .max_pieces(self.opts.sweep.compile_pieces)
    }

    /// The reference arena for an algorithm, streamed to its end at
    /// most once for the process lifetime. A truncated reference would
    /// refuse every disproof-shaped query, so only horizon-covering
    /// lowerings are kept.
    fn reference_for(&self, algorithm: Algorithm) -> Option<Arc<ProgramSoA>> {
        let slot = match algorithm {
            Algorithm::WaitAndSearch => 0,
            Algorithm::UniversalSearch => 1,
        };
        self.reference[slot]
            .get_or_init(|| {
                self.reference_lowerings.fetch_add(1, Ordering::Relaxed);
                let source: &dyn Compile = match algorithm {
                    Algorithm::WaitAndSearch => &rvz_core::WaitAndSearch,
                    Algorithm::UniversalSearch => &rvz_search::UniversalSearch,
                };
                let mut stream = SoaStream::new(source, self.compile_options());
                stream.finish();
                (stream.error().is_none() && stream.arena().covers(self.opts.sweep.contact.horizon))
                    .then(|| Arc::new(stream.into_arena()))
            })
            .clone()
    }

    fn first_contact(&self, req: &Request) -> Response {
        let scenario = match parse_body(&req.body).and_then(|json| scenario_from_json(&json)) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &e),
        };
        let (record, canonical, hit) = self.answer(&scenario);
        let body = Json::obj(vec![
            ("record", record_to_json(&record)),
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
        .render();
        Response::ok(body).header("X-Rvz-Cache", cache_marker(self.opts.no_cache, hit))
    }

    fn sweep(&self, req: &Request) -> Response {
        let scenarios = match parse_body(&req.body).and_then(|json| {
            let list = json
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or("body must be {\"scenarios\": [...]}")?
                .to_vec();
            if list.is_empty() {
                return Err("`scenarios` must be non-empty".into());
            }
            list.iter()
                .enumerate()
                .map(|(i, v)| {
                    let mut s = scenario_from_json(v).map_err(|e| format!("scenario #{i}: {e}"))?;
                    if v.get("id").is_none() {
                        s.id = i as u64;
                    }
                    Ok(s)
                })
                .collect::<Result<Vec<Scenario>, String>>()
        }) {
            Ok(s) => s,
            Err(e) => return Response::error(400, &e),
        };

        // Resolve each scenario against the cache; batch the distinct
        // missing representatives through one `run_sweep` call. Probes
        // bypass the per-lookup counters so that `misses` keeps meaning
        // "engine runs" — orbit-mates deduped within the batch count as
        // one miss, which is also what the response header reports.
        let canonicals: Vec<_> = scenarios
            .iter()
            .map(|s| s.canonicalize(self.opts.cache_grid))
            .collect();
        let mut outcomes: Vec<Option<SimOutcome>> = vec![None; scenarios.len()];
        let mut hits = 0u64;
        if !self.opts.no_cache {
            for (i, c) in canonicals.iter().enumerate() {
                if let Some(outcome) = self.cache.probe(&c.key) {
                    outcomes[i] = Some(outcome);
                    hits += 1;
                }
            }
        }
        let mut missing: Vec<Scenario> = Vec::new();
        let mut missing_index: std::collections::HashMap<rvz_experiments::CacheKey, usize> =
            std::collections::HashMap::new();
        for (i, c) in canonicals.iter().enumerate() {
            if outcomes[i].is_none() && !missing_index.contains_key(&c.key) {
                missing_index.insert(c.key, missing.len());
                let mut rep = c.scenario;
                rep.id = missing.len() as u64;
                missing.push(rep);
            }
        }
        let misses = missing.len() as u64;
        if !self.opts.no_cache {
            self.cache.record(hits, misses);
            if !self.opts.no_metrics {
                cache_counter(false, true).add(hits);
                cache_counter(false, false).add(misses);
            }
        } else if !self.opts.no_metrics {
            cache_counter(true, false).add(scenarios.len() as u64);
        }
        let contact = self.request_contact();
        if !missing.is_empty() {
            // Resolve each representative through the single-query
            // compiled path (the per-process reference arena and a
            // streamed partner), so batch and single answers are the
            // same function; whatever it hands back runs on the cursor
            // engine through the executor.
            let mut computed: Vec<Option<SimOutcome>> = vec![None; missing.len()];
            if self.opts.sweep.compile_pieces > 0 {
                for (slot, rep) in computed.iter_mut().zip(&missing) {
                    *slot = self.simulate_compiled(rep, &contact);
                }
            }
            let leftover: Vec<Scenario> = missing
                .iter()
                .enumerate()
                .filter(|(j, _)| computed[*j].is_none())
                .map(|(idx, rep)| Scenario {
                    id: idx as u64,
                    ..*rep
                })
                .collect();
            if !leftover.is_empty() {
                let sweep = SweepOptions {
                    contact,
                    ..self.opts.sweep
                };
                for record in run_sweep(&leftover, &sweep) {
                    computed[record.scenario.id as usize] = Some(record.outcome);
                }
            }
            let computed: Vec<SimOutcome> =
                computed.into_iter().map(|o| o.expect("resolved")).collect();
            for (key, &j) in &missing_index {
                // Deadline outcomes are wall-clock artifacts of this
                // request; never let them answer future queries.
                if !self.opts.no_cache && !matches!(computed[j], SimOutcome::Deadline { .. }) {
                    self.cache.insert(*key, computed[j]);
                }
            }
            for (i, c) in canonicals.iter().enumerate() {
                if outcomes[i].is_none() {
                    let j = *missing_index.get(&c.key).expect("every miss was batched");
                    outcomes[i] = Some(computed[j]);
                }
            }
        }

        let records: Vec<SweepRecord> = scenarios
            .iter()
            .zip(&canonicals)
            .zip(&outcomes)
            .map(|((s, c), outcome)| SweepRecord {
                scenario: *s,
                feasibility: feasibility(&s.attributes()),
                outcome: c.transform.apply(outcome.expect("resolved above")),
            })
            .collect();
        let summary = Summary::from_records(&records);
        self.count_deadlines(summary.deadlines as u64);
        let body = Json::obj(vec![
            (
                "records",
                Json::Arr(records.iter().map(record_to_json).collect()),
            ),
            (
                "summary",
                Json::obj(vec![
                    ("total", Json::Num(summary.total as f64)),
                    ("contacts", Json::Num(summary.contacts as f64)),
                    ("horizons", Json::Num(summary.horizons as f64)),
                    ("step_budgets", Json::Num(summary.step_budgets as f64)),
                    ("deadlines", Json::Num(summary.deadlines as f64)),
                    ("consistent", Json::Num(summary.consistent as f64)),
                ]),
            ),
        ])
        .render();
        Response::ok(body).header("X-Rvz-Cache", &format!("hits={hits};misses={misses}"))
    }
}

thread_local! {
    /// The canonical-orbit digest of this thread's most recent
    /// [`Service::answer`] call, for the slow-query log (cache hits
    /// have no engine telemetry, but they do have an orbit).
    static LAST_ORBIT: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// FNV-1a digest of a canonical cache key — a compact, stable orbit
/// identifier for log lines (the full key is six f64 bit patterns).
fn orbit_digest(key: &rvz_experiments::CacheKey) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let fold = |h: u64, w: u64| -> u64 {
        let mut h = h ^ w;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    h = fold(
        h,
        matches!(key.algorithm, Algorithm::UniversalSearch) as u64,
    );
    h = fold(h, matches!(key.chirality, Chirality::Mirrored) as u64);
    for &w in &key.bits {
        h = fold(h, w);
    }
    h
}

/// Per-request counters and the latency histogram (called once per
/// [`Service::handle`] unless the service runs with `no_metrics`).
fn record_request_metrics(resp: &Response, elapsed: Duration) {
    use rvz_obs::{counter, histogram};
    counter!("rvz_requests_total").inc();
    status_counter(resp.status).inc();
    histogram!("rvz_request_duration_us").observe(elapsed.as_micros() as u64);
}

/// The `rvz_responses_total{status=…}` counter for a status code (one
/// macro call site per label value so each handle caches
/// independently).
fn status_counter(status: u16) -> &'static rvz_obs::Counter {
    use rvz_obs::counter;
    match status {
        200 => counter!("rvz_responses_total", "status" => "200"),
        400 => counter!("rvz_responses_total", "status" => "400"),
        404 => counter!("rvz_responses_total", "status" => "404"),
        405 => counter!("rvz_responses_total", "status" => "405"),
        413 => counter!("rvz_responses_total", "status" => "413"),
        500 => counter!("rvz_responses_total", "status" => "500"),
        503 => counter!("rvz_responses_total", "status" => "503"),
        _ => counter!("rvz_responses_total", "status" => "other"),
    }
}

/// The `rvz_cache_requests_total{outcome=…}` counter matching
/// [`cache_marker`]'s labels.
fn cache_counter(no_cache: bool, hit: bool) -> &'static rvz_obs::Counter {
    use rvz_obs::counter;
    match (no_cache, hit) {
        (true, _) => counter!("rvz_cache_requests_total", "outcome" => "bypass"),
        (false, true) => counter!("rvz_cache_requests_total", "outcome" => "hit"),
        (false, false) => counter!("rvz_cache_requests_total", "outcome" => "miss"),
    }
}

/// Touches every metric family the service can emit so a `/metrics`
/// scrape lists them all from the first request — CI greps for family
/// names before it has driven any faults or engine paths.
fn preregister_metrics() {
    use rvz_obs::{counter, histogram};
    let _ = counter!("rvz_requests_total");
    let _ = histogram!("rvz_request_duration_us");
    for status in [200, 400, 404, 405, 413, 500, 503, 0] {
        let _ = status_counter(status);
    }
    let _ = cache_counter(true, false);
    let _ = cache_counter(false, true);
    let _ = cache_counter(false, false);
    let _ = counter!("rvz_shed_total", "cause" => "queue");
    let _ = counter!("rvz_shed_total", "cause" => "max_inflight");
    let _ = counter!("rvz_shed_total", "cause" => "deadline");
    let _ = histogram!("rvz_partner_pieces");
    let _ = counter!("rvz_stream_extensions_total");
    crate::faults::preregister_injected_metrics();
    rvz_sim::telemetry::preregister_metrics();
}

/// `GET /trace/recent`: the flight-recorder ring as JSON, newest span
/// first (`?n=` caps the count, default 64).
fn trace_recent_response(req: &Request) -> Response {
    let max = req
        .query_value("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64)
        .min(rvz_obs::RING_CAPACITY);
    let events: Vec<Json> = rvz_obs::recent(max)
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("span", Json::Str(e.name.to_string())),
                ("trace", Json::Str(format!("{:016x}", e.trace_id))),
                ("start_us", Json::Num(e.start_us as f64)),
                ("dur_us", Json::Num(e.dur_us as f64)),
                ("thread", Json::Num(f64::from(e.thread))),
                ("depth", Json::Num(f64::from(e.depth))),
            ])
        })
        .collect();
    Response::ok(Json::obj(vec![("events", Json::Arr(events))]).render())
}

/// One structured JSONL line on stderr for a request that crossed the
/// slow-query threshold: trace ID, endpoint, status, total time, cache
/// outcome, the canonical orbit digest, and the engine work profile
/// when an engine ran.
fn slow_log(req: &Request, resp: &Response, trace: u64, elapsed: Duration) {
    let cache = resp
        .extra_headers
        .iter()
        .find(|(n, _)| n == "X-Rvz-Cache")
        .map_or("-", |(_, v)| v.as_str());
    let mut line = format!(
        "{{\"slow_query\":true,\"trace\":\"{trace:016x}\",\"method\":\"{}\",\"path\":\"{}\",\
         \"status\":{},\"total_ms\":{:.3},\"cache\":\"{cache}\"",
        req.method,
        req.path,
        resp.status,
        elapsed.as_secs_f64() * 1e3,
    );
    if let Some(orbit) = LAST_ORBIT.with(|o| o.get()) {
        line.push_str(&format!(",\"orbit\":\"{orbit:016x}\""));
    }
    if let Some(t) = rvz_sim::telemetry::last() {
        line.push_str(&format!(
            ",\"engine_path\":\"{}\",\"engine_outcome\":\"{}\",\"steps\":{},\
             \"envelope_queries\":{},\"pruned_intervals\":{}",
            t.path.label(),
            t.outcome,
            t.steps,
            t.envelope_queries,
            t.pruned_intervals,
        ));
    }
    line.push('}');
    eprintln!("{line}");
}

fn cache_marker(no_cache: bool, hit: bool) -> &'static str {
    match (no_cache, hit) {
        (true, _) => "bypass",
        (false, true) => "hit",
        (false, false) => "miss",
    }
}

fn reference_scenario() -> Scenario {
    rvz_experiments::ScenarioGrid::new().build()[0]
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body must be UTF-8".to_string())?;
    if text.trim().is_empty() {
        // An absent body denotes the all-defaults query.
        return Ok(Json::Obj(Vec::new()));
    }
    rvz_experiments::json::parse(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn request(method: &str, path: &str, body: &str) -> Request {
        let (path, query_string) = path.split_once('?').unwrap_or((path, ""));
        let query = query_string
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (k, v) = p.split_once('=').unwrap_or((p, ""));
                (k.to_string(), v.to_string())
            })
            .collect();
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            headers: HashMap::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn test_options() -> ServiceOptions {
        // Cheap engine settings so unit tests stay fast.
        ServiceOptions {
            sweep: SweepOptions {
                threads: 1,
                contact: rvz_sim::ContactOptions {
                    max_steps: 20_000,
                    horizon: rvz_core::completion_time(6),
                    ..SweepOptions::default().contact
                },
                ..SweepOptions::default()
            },
            ..ServiceOptions::default()
        }
    }

    fn service() -> Service {
        Service::new(test_options())
    }

    #[test]
    fn healthz_and_stats_respond() {
        let svc = service();
        let (resp, flow) = svc.handle(&request("GET", "/healthz", ""));
        assert_eq!((resp.status, flow), (200, Control::Continue));
        assert_eq!(resp.body, r#"{"ok":true}"#);
        let (resp, _) = svc.handle(&request("GET", "/stats", ""));
        assert!(resp.body.contains("\"requests\":2"));
        assert!(resp.body.contains("\"enabled\":true"));
    }

    #[test]
    fn feasibility_get_matches_theorem4() {
        let svc = service();
        let (resp, _) = svc.handle(&request("GET", "/feasibility?tau=0.5", ""));
        assert!(resp.body.contains("\"feasible\":true"));
        assert!(resp.body.contains("\"breaker\":\"clocks\""));
        let (resp, _) = svc.handle(&request("GET", "/feasibility", ""));
        assert!(resp.body.contains("\"feasible\":false"));
        // The reciprocal clock lands in the same verdict orbit.
        let (a, _) = svc.handle(&request("GET", "/feasibility?tau=0.5", ""));
        let (b, _) = svc.handle(&request("GET", "/feasibility?tau=2", ""));
        let orbit = |body: &str| body.split("\"orbit\"").nth(1).unwrap().to_string();
        assert_eq!(orbit(&a.body), orbit(&b.body));
    }

    #[test]
    fn feasibility_rejects_bad_input_without_panicking() {
        let svc = service();
        for query in [
            "/feasibility?v=-1",
            "/feasibility?v=zoom",
            "/feasibility?tau=0",
            "/feasibility?phi=inf",
            "/feasibility?chi=2",
            // A typo'd key must not silently answer the default query.
            "/feasibility?taw=0.5",
        ] {
            let (resp, _) = svc.handle(&request("GET", query, ""));
            assert_eq!(resp.status, 400, "query {query}");
        }
        let (resp, _) = svc.handle(&request("POST", "/feasibility", "{\"speed\":-3}"));
        assert_eq!(resp.status, 400);
        let (resp, _) = svc.handle(&request("POST", "/feasibility", "not json"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn first_contact_is_deterministic_and_caches_twins() {
        let svc = service();
        let body = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
        let (first, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(first.status, 200);
        assert!(first.body.contains("\"outcome\":\"contact\""));
        assert_eq!(header(&first, "X-Rvz-Cache"), "miss");

        let (again, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(again.body, first.body, "identical queries, identical bytes");
        assert_eq!(header(&again, "X-Rvz-Cache"), "hit");

        // The role-swapped twin: same orbit, one cache entry, outcome
        // mapped through the inverse transform (v·τ = 0.5 here).
        let scenario =
            rvz_experiments::scenario_from_json(&rvz_experiments::json::parse(body).unwrap())
                .unwrap();
        let (twin, transform) = scenario.role_swap();
        let twin_body = format!(
            concat!(
                "{{\"speed\":{},\"time_unit\":{},\"orientation\":{},\"chirality\":\"{}\",",
                "\"distance\":{},\"bearing\":{},\"visibility\":{}}}"
            ),
            twin.speed,
            twin.time_unit,
            twin.orientation,
            twin.chirality,
            twin.distance,
            twin.bearing,
            twin.visibility,
        );
        let (resp, _) = svc.handle(&request("POST", "/first-contact", &twin_body));
        assert_eq!(
            header(&resp, "X-Rvz-Cache"),
            "hit",
            "the symmetric twin must resolve to the same cache entry"
        );
        assert!(resp.body.contains("\"swapped\":true") || transform.is_identity());
        let stats = svc.cache_stats();
        assert_eq!(stats.entries, 1, "one orbit, one entry");
    }

    #[test]
    fn sweep_batches_and_dedups_symmetric_families() {
        let svc = service();
        // Scenario #1 is the role-swap twin of scenario #0 (v·τ = 0.5,
        // bearing π/3 + π); scenario #2 is a genuinely different cell.
        let body = r#"{"scenarios":[
            {"speed":0.5,"distance":0.9,"visibility":0.25},
            {"speed":2,"distance":1.8,"visibility":0.5,"bearing":4.188790204786391},
            {"speed":0.5,"distance":0.9,"visibility":0.25,"bearing":2.0}
        ]}"#;
        let (resp, _) = svc.handle(&request("POST", "/sweep", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"total\":3"));
        // Records come back in query order with dense default ids.
        assert!(resp.body.contains("\"id\":0"));
        assert!(resp.body.contains("\"id\":2"));
        assert_eq!(
            header(&resp, "X-Rvz-Cache"),
            "hits=0;misses=2",
            "the symmetric family funnels into one engine run"
        );
        let (resp2, _) = svc.handle(&request("POST", "/sweep", body));
        assert_eq!(resp2.body, resp.body);
        assert_eq!(header(&resp2, "X-Rvz-Cache"), "hits=3;misses=0");
    }

    #[test]
    fn sweep_bytes_match_across_batch_and_single_resolution() {
        // The determinism contract across the batch-kernel routing: a
        // representative must produce identical bytes whether it
        // resolves inside a `/sweep` group, as a singleton batch via
        // `/first-contact`, or replays from the cache afterwards. The
        // far scenario exercises the window-table disproof; the near
        // ones the lane kernel proper.
        let body = r#"{"scenarios":[
            {"speed":0.5,"distance":0.9,"visibility":0.25},
            {"speed":0.75,"distance":1.2,"visibility":0.3},
            {"speed":0.6,"distance":400.0,"visibility":0.25}
        ]}"#;
        let cold = service();
        let (via_batch, _) = cold.handle(&request("POST", "/sweep", body));
        assert_eq!(via_batch.status, 200, "{}", via_batch.body);

        let warm = service();
        for single in [
            r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#,
            r#"{"speed":0.6,"distance":400.0,"visibility":0.25}"#,
        ] {
            let (resp, _) = warm.handle(&request("POST", "/first-contact", single));
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        // This sweep mixes cache hits (seeded by the single-query
        // path) with one genuine batch-kernel miss.
        let (mixed, _) = warm.handle(&request("POST", "/sweep", body));
        assert_eq!(header(&mixed, "X-Rvz-Cache"), "hits=2;misses=1");
        assert_eq!(via_batch.body, mixed.body);
    }

    #[test]
    fn sweep_rejects_malformed_batches() {
        let svc = service();
        for body in [
            "",
            "{}",
            r#"{"scenarios":[]}"#,
            r#"{"scenarios":[{"speed":-1}]}"#,
            r#"{"scenarios":"many"}"#,
        ] {
            let (resp, _) = svc.handle(&request("POST", "/sweep", body));
            assert_eq!(resp.status, 400, "body {body:?} -> {}", resp.body);
        }
    }

    #[test]
    fn warm_misses_reuse_cached_programs() {
        // A horizon the reference lowering covers: the compiled path
        // engages. The durable guarantee is the shared *reference*
        // arena — lowered once for the process no matter how many
        // orbits stream through or get evicted. Partners are never
        // cached: every miss streams its own, so an evicted orbit's
        // re-miss re-streams its partner (and only its partner) and
        // answers with the same bytes.
        let svc = Service::new(ServiceOptions {
            sweep: SweepOptions {
                threads: 1,
                contact: rvz_sim::ContactOptions {
                    horizon: rvz_search::times::rounds_total(4),
                    max_steps: 100_000,
                    ..rvz_sim::ContactOptions::default()
                },
                ..SweepOptions::default()
            },
            // Capacity 1 with 1 shard: the second distinct orbit evicts
            // the first result.
            cache_capacity: 1,
            cache_shards: 1,
            ..ServiceOptions::default()
        });
        let compiled_path = || rvz_sim::telemetry::last().map(|t| t.path);
        let body_a = r#"{"algorithm":"alg4","speed":0.5,"distance":0.9,"visibility":0.25}"#;
        let body_b = r#"{"algorithm":"alg4","speed":0.75,"distance":0.9,"visibility":0.25}"#;
        let (first, _) = svc.handle(&request("POST", "/first-contact", body_a));
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(compiled_path(), Some(rvz_sim::EnginePath::CompiledSoA));
        assert_eq!(
            svc.reference_lowerings(),
            1,
            "the first miss lowers the reference"
        );
        assert_eq!(svc.program_stats().entries, 1, "and holds it");
        let (_, _) = svc.handle(&request("POST", "/first-contact", body_b));
        // A second orbit streams its own partner but *shares* the
        // reference arena — the big arena is never lowered twice.
        assert_eq!(compiled_path(), Some(rvz_sim::EnginePath::CompiledSoA));
        assert_eq!(svc.reference_lowerings(), 1, "reference must be shared");
        let (again, _) = svc.handle(&request("POST", "/first-contact", body_a));
        assert_eq!(header(&again, "X-Rvz-Cache"), "miss", "result was evicted");
        assert_eq!(
            compiled_path(),
            Some(rvz_sim::EnginePath::CompiledSoA),
            "the re-miss re-streams its partner through the kernel"
        );
        assert_eq!(again.body, first.body, "same query, same bytes");
        assert_eq!(
            svc.reference_lowerings(),
            1,
            "a warm miss re-runs the engine without re-lowering the reference"
        );
        assert_eq!(svc.program_stats().entries, 1, "no partner is held");
        let (stats, _) = svc.handle(&request("GET", "/stats", ""));
        assert!(
            stats.body.contains("\"reference_lowerings\":1"),
            "{}",
            stats.body
        );
    }

    #[test]
    fn no_cache_mode_bypasses_the_cache() {
        let svc = Service::new(ServiceOptions {
            no_cache: true,
            ..test_options()
        });
        let body = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
        let (a, _) = svc.handle(&request("POST", "/first-contact", body));
        let (b, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(a.body, b.body);
        assert_eq!(header(&a, "X-Rvz-Cache"), "bypass");
        assert_eq!(header(&b, "X-Rvz-Cache"), "bypass");
        assert_eq!(svc.cache_stats().entries, 0);
    }

    #[test]
    fn no_cache_answers_byte_identical_to_the_cached_service() {
        // A depth-3 horizon the reference lowering covers, so a cached
        // miss takes the compiled path; with the cache off, a request
        // must take the same engine route or its bytes would depend on
        // the cache setting.
        let options = |no_cache| ServiceOptions {
            no_cache,
            sweep: SweepOptions {
                threads: 1,
                contact: rvz_sim::ContactOptions {
                    horizon: rvz_core::completion_time(3),
                    ..SweepOptions::default().contact
                },
                ..SweepOptions::default()
            },
            ..ServiceOptions::default()
        };
        // A feasible pair and an exact twin.
        let feasible = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
        let twin = r#"{"speed":1,"distance":0.9,"visibility":0.1}"#;
        let sweep = format!(r#"{{"scenarios":[{feasible},{twin}]}}"#);
        let requests = [
            ("/first-contact", feasible.to_string()),
            ("/first-contact", twin.to_string()),
            ("/sweep", sweep),
        ];
        for (path, body) in &requests {
            // Fresh services per request: the cached side answers a miss.
            let cached = Service::new(options(false));
            let bypass = Service::new(options(true));
            let (a, _) = cached.handle(&request("POST", path, body));
            let (b, _) = bypass.handle(&request("POST", path, body));
            assert_eq!(a.status, 200, "{}", a.body);
            assert_eq!(a.body, b.body, "{path} {body}");
        }
    }

    #[test]
    fn unknown_paths_and_methods_are_distinguished() {
        let svc = service();
        let (resp, _) = svc.handle(&request("GET", "/nope", ""));
        assert_eq!(resp.status, 404);
        let (resp, _) = svc.handle(&request("DELETE", "/sweep", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn shutdown_signals_the_control_flow() {
        let svc = service();
        let (resp, flow) = svc.handle(&request("POST", "/shutdown", ""));
        assert_eq!(flow, Control::Shutdown);
        assert!(resp.close);
        assert!(resp.body.contains("\"shutting_down\":true"));
    }

    #[test]
    fn deadline_outcomes_surface_and_are_never_cached() {
        // A zero budget expires before the first check boundary. The
        // scenario is the fully symmetric (infeasible) twin with a huge
        // horizon and pruning off, so every engine path has to *step*
        // its way forward — past the 1024-step check — rather than
        // resolving from envelopes or compiled strides.
        let options = || {
            let mut opts = test_options();
            opts.sweep.contact.prune = false;
            opts.sweep.contact.horizon = 1e9;
            opts
        };
        let mut opts = options();
        opts.deadline = Some(std::time::Duration::ZERO);
        let svc = Service::new(opts);
        let body = r#"{"speed":1,"distance":0.9,"visibility":0.25}"#;
        let (resp, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.body.contains("\"outcome\":\"deadline\""),
            "{}",
            resp.body
        );
        assert_eq!(header(&resp, "X-Rvz-Cache"), "miss");
        // A deadline artifact must not answer the next request.
        let (again, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(header(&again, "X-Rvz-Cache"), "miss", "deadline was cached");
        assert_eq!(svc.cache_stats().entries, 0);

        // The same scenario without a deadline runs to its step budget
        // (no deadline token) and caches normally.
        let healthy = Service::new(options());
        let (resp, _) = healthy.handle(&request("POST", "/first-contact", body));
        assert!(
            !resp.body.contains("\"outcome\":\"deadline\""),
            "{}",
            resp.body
        );
        assert_eq!(healthy.cache_stats().entries, 1);
    }

    #[test]
    fn inflight_limit_sheds_with_503_and_retry_after() {
        use crate::faults::FaultPlan;
        let mut opts = test_options();
        opts.max_inflight = 1;
        opts.no_cache = true;
        // Every engine run sleeps 200ms, guaranteeing overlap.
        opts.faults = Some(FaultPlan {
            seed: 1,
            delay_rate: 1.0,
            delay_ms: 200,
            ..FaultPlan::default()
        });
        let svc = std::sync::Arc::new(Service::new(opts));
        let body = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
        let bg = {
            let svc = std::sync::Arc::clone(&svc);
            std::thread::spawn(move || {
                let (resp, _) = svc.handle(&request("POST", "/first-contact", body));
                resp.status
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (resp, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert_eq!(header(&resp, "Retry-After"), "1");
        assert!(resp.body.contains("in-flight"));
        assert_eq!(bg.join().unwrap(), 200, "the admitted request completes");
        assert_eq!(svc.shed_requests(), 1);
        // The slot was released: a fresh request is admitted again.
        let (resp, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(resp.status, 200);
    }

    fn header<'a>(resp: &'a Response, name: &str) -> &'a str {
        resp.extra_headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .unwrap_or("")
    }

    #[test]
    fn snapshot_restore_serves_byte_identical_hits_without_engine_runs() {
        let dir = std::env::temp_dir().join(format!("rvz-svc-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");

        // A horizon the reference lowering covers, so the compiled
        // path engages (one reference arena is held; partners are not).
        let program_options = || ServiceOptions {
            sweep: SweepOptions {
                threads: 1,
                contact: rvz_sim::ContactOptions {
                    horizon: rvz_search::times::rounds_total(4),
                    max_steps: 100_000,
                    ..rvz_sim::ContactOptions::default()
                },
                ..SweepOptions::default()
            },
            ..ServiceOptions::default()
        };
        let svc = Service::new(program_options());
        let bodies: Vec<String> = [0.5f64, 0.625, 0.75]
            .iter()
            .map(|v| {
                format!(
                    "{{\"algorithm\":\"alg4\",\"speed\":{v},\"distance\":0.9,\"visibility\":0.25}}"
                )
            })
            .collect();
        let mut answers = Vec::new();
        for body in &bodies {
            let (resp, _) = svc.handle(&request("POST", "/first-contact", body));
            assert_eq!(resp.status, 200);
            assert_eq!(header(&resp, "X-Rvz-Cache"), "miss");
            answers.push(resp.body);
        }
        assert_eq!(svc.program_stats().entries, 1, "one reference, no partners");
        let entries = svc.write_snapshot_to(&path).unwrap();
        assert_eq!(entries, svc.cache_stats().entries, "results only");

        // A fresh process: restore must be warm, and every previously
        // answered query must come back byte-identical as a cache hit
        // with zero engine runs (misses stay 0).
        let restored = Service::new(program_options());
        let outcome = restored.restore_from(&path);
        assert!(matches!(outcome, RestoreOutcome::Warm { .. }), "{outcome}");
        assert_eq!(restored.cache_stats().entries, svc.cache_stats().entries);
        for (body, expected) in bodies.iter().zip(&answers) {
            let (resp, _) = restored.handle(&request("POST", "/first-contact", body));
            assert_eq!(
                &resp.body, expected,
                "restore is byte-identical to recompute"
            );
            assert_eq!(header(&resp, "X-Rvz-Cache"), "hit");
        }
        assert_eq!(
            restored.cache_stats().misses,
            0,
            "no engine ran after restore"
        );
        assert_eq!(
            restored.reference_lowerings(),
            0,
            "hits never lower a reference"
        );

        let (stats, _) = restored.handle(&request("GET", "/stats", ""));
        assert!(
            stats.body.contains("\"restore\":\"warm\""),
            "{}",
            stats.body
        );
        assert!(
            stats.body.contains("\"restored_entries\":3"),
            "{}",
            stats.body
        );

        // A service under *different* engine options must refuse the
        // snapshot (cold) rather than serve non-reproducible bytes.
        let mut skewed = program_options();
        skewed.sweep.contact.max_steps += 1;
        let cold = Service::new(skewed);
        let outcome = cold.restore_from(&path);
        assert!(matches!(outcome, RestoreOutcome::Cold { .. }), "{outcome}");
        assert_eq!(cold.cache_stats().entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_restore_preserves_eviction_order_across_processes() {
        let dir = std::env::temp_dir().join(format!("rvz-svc-lru-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snap");

        // A tiny single-shard cache so recency is observable through
        // eviction.
        let mut opts = test_options();
        opts.cache_capacity = 3;
        opts.cache_shards = 1;
        let svc = Service::new(opts);
        let body = |v: f64| format!("{{\"speed\":{v},\"distance\":0.9,\"visibility\":0.25}}");
        for v in [0.5, 0.625, 0.75] {
            svc.handle(&request("POST", "/first-contact", &body(v)));
        }
        // Refresh the oldest entry so it is MRU at snapshot time.
        svc.handle(&request("POST", "/first-contact", &body(0.5)));
        svc.write_snapshot_to(&path).unwrap();

        let mut opts = test_options();
        opts.cache_capacity = 3;
        opts.cache_shards = 1;
        let restored = Service::new(opts);
        restored.restore_from(&path);
        // A new insert must evict the restored LRU (0.625), not the
        // refreshed 0.5: recency order survived the round trip.
        restored.handle(&request("POST", "/first-contact", &body(0.875)));
        let (resp, _) = restored.handle(&request("POST", "/first-contact", &body(0.5)));
        assert_eq!(header(&resp, "X-Rvz-Cache"), "hit", "MRU survived");
        let (resp, _) = restored.handle(&request("POST", "/first-contact", &body(0.625)));
        assert_eq!(header(&resp, "X-Rvz-Cache"), "miss", "LRU was evicted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_report_durability_defaults_when_snapshots_are_off() {
        let svc = service();
        let (resp, _) = svc.handle(&request("GET", "/stats", ""));
        assert!(resp.body.contains("\"durability\""), "{}", resp.body);
        assert!(resp.body.contains("\"restore\":\"none\""), "{}", resp.body);
        assert!(resp.body.contains("\"snapshot_age_s\":-1"), "{}", resp.body);
    }

    #[test]
    fn stats_report_uptime_build_and_shed_causes() {
        let svc = service();
        let (resp, _) = svc.handle(&request("GET", "/stats", ""));
        assert!(resp.body.contains("\"uptime_s\""), "{}", resp.body);
        assert!(resp.body.contains("\"build\""), "{}", resp.body);
        assert!(
            resp.body.contains("\"engine_fingerprint\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"queue_depth\":-1"), "{}", resp.body);
        assert!(resp.body.contains("\"shed_by_cause\""), "{}", resp.body);
    }

    #[test]
    fn every_response_carries_a_trace_id_and_echoes_the_clients() {
        let svc = service();
        let (resp, _) = svc.handle(&request("GET", "/healthz", ""));
        let trace = header(&resp, "X-Rvz-Trace");
        assert_eq!(trace.len(), 16, "trace ID is 16 hex digits: {trace}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()));

        // A well-formed client trace ID is echoed verbatim.
        let mut req = request("GET", "/healthz", "");
        req.headers
            .insert("x-rvz-trace".to_string(), "00000000deadbeef".to_string());
        let (resp, _) = svc.handle(&req);
        assert_eq!(header(&resp, "X-Rvz-Trace"), "00000000deadbeef");

        // A malformed one falls back to the deterministic sequence.
        let mut req = request("GET", "/healthz", "");
        req.headers
            .insert("x-rvz-trace".to_string(), "not-a-trace".to_string());
        let (resp, _) = svc.handle(&req);
        assert_ne!(header(&resp, "X-Rvz-Trace"), "not-a-trace");
        assert_eq!(header(&resp, "X-Rvz-Trace").len(), 16);
    }

    #[test]
    fn metrics_endpoint_serves_the_exposition() {
        let svc = service();
        let body = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
        let (resp, _) = svc.handle(&request("POST", "/first-contact", body));
        assert_eq!(resp.status, 200);
        let (scrape, _) = svc.handle(&request("GET", "/metrics", ""));
        assert_eq!(scrape.status, 200, "{}", scrape.body);
        assert_eq!(scrape.content_type, "text/plain; version=0.0.4");
        // Every family the service can emit is present from the first
        // scrape (preregistered), even those with zero increments.
        for family in [
            "# TYPE rvz_requests_total counter",
            "# TYPE rvz_request_duration_us histogram",
            "rvz_responses_total{status=\"200\"}",
            "rvz_cache_requests_total{outcome=\"miss\"}",
            "rvz_engine_queries_total",
            "rvz_faults_injected_total",
            "rvz_shed_total{cause=\"max_inflight\"}",
        ] {
            assert!(scrape.body.contains(family), "scrape missing {family}");
        }
        // Method guard: the observability endpoints are GET-only.
        let (resp, _) = svc.handle(&request("POST", "/metrics", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn trace_recent_serves_the_flight_recorder() {
        let svc = service();
        // The handle() wrapper records a "request" span per request.
        let (resp, _) = svc.handle(&request("GET", "/healthz", ""));
        assert_eq!(resp.status, 200);
        let (resp, _) = svc.handle(&request("GET", "/trace/recent?n=5", ""));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed = rvz_experiments::json::parse(&resp.body).unwrap();
        let events = parsed
            .get("events")
            .and_then(Json::as_array)
            .expect("events array");
        assert!(events.len() <= 5, "?n= caps the event count");
        assert!(!events.is_empty(), "the healthz request recorded a span");
        for e in events {
            for key in ["span", "trace", "start_us", "dur_us", "thread", "depth"] {
                assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
            }
        }
    }

    #[test]
    fn no_metrics_responses_are_byte_identical_and_endpoints_hidden() {
        let on = Service::new(test_options());
        let off = Service::new(ServiceOptions {
            no_metrics: true,
            ..test_options()
        });
        let body = r#"{"speed":0.5,"distance":0.9,"visibility":0.25}"#;
        // Identical request sequences: every byte of every response —
        // body, status, and headers including X-Rvz-Trace — agrees.
        for req in [
            request("POST", "/first-contact", body),
            request("POST", "/first-contact", body),
            request("GET", "/feasibility?tau=0.5", ""),
            request("GET", "/healthz", ""),
        ] {
            let (a, _) = on.handle(&req);
            let (b, _) = off.handle(&req);
            assert_eq!(a.status, b.status, "{}", req.path);
            assert_eq!(a.body, b.body, "{}", req.path);
            assert_eq!(a.extra_headers, b.extra_headers, "{}", req.path);
        }
        // The observability endpoints answer exactly like unknown paths.
        let (unknown, _) = off.handle(&request("GET", "/no-such-endpoint", ""));
        for path in ["/metrics", "/trace/recent"] {
            let (hidden, _) = off.handle(&request("GET", path, ""));
            assert_eq!(hidden.status, 404, "{path}");
            assert_eq!(hidden.body, unknown.body, "{path}");
            assert_eq!(hidden.content_type, unknown.content_type, "{path}");
        }
    }
}
