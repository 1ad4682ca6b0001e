//! Deterministic, seeded fault injection for the serve stack and the
//! durable-state layer.
//!
//! The overload, panic-isolation and durability guarantees are only
//! worth committing if they are *exercised*. One [`FaultPlan`] — a seed,
//! a rate per [`FaultSite`] and a per-site cap — drives all nine sites
//! (five in the serve stack, four in the file I/O of
//! [`crate::durable`]), so a failing run reproduces from its spec alone,
//! and one [`Faults`] per process carries the plan's runtime state to
//! every injection point: the server's workers, the service, the
//! snapshot writer and reader, and the sweep checkpoint.
//!
//! ## Zero cost when off
//!
//! Every injection point is guarded by an `Option<Arc<Faults>>` that is
//! `None` in production ([`FaultPlan::arm`] gives `None` for a plan
//! with no rate set): the fast path pays one pointer-null check and
//! touches no RNG, no atomics, no clock.
//!
//! ## Determinism
//!
//! Each site keeps its own decision counter; the `n`-th decision at a
//! site is a pure function of `(seed, site, n)` via a split
//! [`SplitMix64`] stream, so the *sequence* of injected faults per site
//! is identical across runs. A site whose rate is zero never draws or
//! counts a decision. (Which request draws which decision depends on
//! arrival order; single-threaded drivers — the CI suite — are fully
//! deterministic end to end.)

use crate::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a fault can be injected: five in-process serve sites, then
/// four disk sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a server worker's queue-pop critical section — the
    /// worker dies *while holding the queue lock*, poisoning it.
    /// Exercises the pool's poison recovery.
    WorkerPanic,
    /// Panic inside the service's request dispatch. Exercises
    /// per-request `catch_unwind` isolation.
    HandlerPanic,
    /// Panic inside the result cache's compute closure. Exercises the
    /// single-flight claim release (waiters must not hang).
    CacheFail,
    /// Drop the connection instead of writing the response — the client
    /// sees a truncated/reset stream.
    ConnReset,
    /// Sleep before running the engine (artificial engine latency).
    EngineDelay,
    /// A write persists only a prefix of the buffer, then errors — the
    /// torn-record case an appended journal must salvage around.
    ShortWrite,
    /// The atomic rename of a [`DurableFile`](crate::DurableFile) commit
    /// fails: the temp file is left behind and the destination keeps its
    /// old contents.
    TornRename,
    /// A read returns the file's bytes with one flipped — the case the
    /// per-record CRC exists to catch.
    ReadCorrupt,
    /// `fsync` reports failure: the caller must not assume durability
    /// for anything written since the last successful sync.
    FsyncFail,
}

const SITE_COUNT: usize = 9;

/// Per-site salt so split streams never collide across sites.
const SITE_SALT: [u64; SITE_COUNT] = [
    0x5752_4B50_414E_4943, // "WRKPANIC"
    0x484E_444C_5041_4E49, // "HNDLPANI"
    0x4341_4348_4546_4149, // "CACHEFAI"
    0x434F_4E4E_5245_5345, // "CONNRESE"
    0x454E_4744_454C_4159, // "ENGDELAY"
    0x5348_4F52_5457_5254, // "SHORTWRT"
    0x544F_524E_5245_4E4D, // "TORNRENM"
    0x5245_4144_434F_5252, // "READCORR"
    0x4653_594E_4346_4149, // "FSYNCFAI"
];

impl FaultSite {
    /// Every site, in declaration order.
    const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::WorkerPanic,
        FaultSite::HandlerPanic,
        FaultSite::CacheFail,
        FaultSite::ConnReset,
        FaultSite::EngineDelay,
        FaultSite::ShortWrite,
        FaultSite::TornRename,
        FaultSite::ReadCorrupt,
        FaultSite::FsyncFail,
    ];

    /// The site's `site` label on `rvz_faults_injected_total`. It is
    /// also the site's spec key, except for
    /// [`FaultSite::EngineDelay`], whose key is `delay_rate`.
    fn label(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::HandlerPanic => "handler_panic",
            FaultSite::CacheFail => "cache_fail",
            FaultSite::ConnReset => "conn_reset",
            FaultSite::EngineDelay => "engine_delay",
            FaultSite::ShortWrite => "short_write",
            FaultSite::TornRename => "torn_rename",
            FaultSite::ReadCorrupt => "read_corrupt",
            FaultSite::FsyncFail => "fsync_fail",
        }
    }

    fn key(self) -> &'static str {
        match self {
            FaultSite::EngineDelay => "delay_rate",
            site => site.label(),
        }
    }

    /// `true` for the four disk sites (declared last), the only ones a
    /// process without the serve stack (a checkpointed sweep) can reach.
    fn is_disk(self) -> bool {
        self as usize >= FaultSite::ShortWrite as usize
    }
}

/// The seeded fault plan: one seed, a rate in `[0, 1]` per site, the
/// engine delay, and one cap on injections per site.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every site's decision stream.
    pub seed: u64,
    /// Rate of [`FaultSite::WorkerPanic`].
    pub worker_panic: f64,
    /// Rate of [`FaultSite::HandlerPanic`].
    pub handler_panic: f64,
    /// Rate of [`FaultSite::CacheFail`].
    pub cache_fail: f64,
    /// Rate of [`FaultSite::ConnReset`].
    pub conn_reset: f64,
    /// Rate of [`FaultSite::EngineDelay`].
    pub delay_rate: f64,
    /// Injected engine latency per [`FaultSite::EngineDelay`] firing.
    pub delay_ms: u64,
    /// Rate of [`FaultSite::ShortWrite`].
    pub short_write: f64,
    /// Rate of [`FaultSite::TornRename`].
    pub torn_rename: f64,
    /// Rate of [`FaultSite::ReadCorrupt`].
    pub read_corrupt: f64,
    /// Rate of [`FaultSite::FsyncFail`].
    pub fsync_fail: f64,
    /// Maximum injections per site (`0` = unlimited).
    pub limit: u64,
}

impl FaultPlan {
    /// Parses a `key=value[,key=value...]` spec, e.g.
    /// `seed=42,handler_panic=0.1,delay_rate=0.2,delay_ms=5,limit=3`.
    ///
    /// Keys: `seed`, `limit`, `delay_ms` (integers); the site rates
    /// `worker_panic`, `handler_panic`, `cache_fail`, `conn_reset`,
    /// `delay_rate`, `short_write`, `torn_rename`, `read_corrupt`,
    /// `fsync_fail`, each in `[0, 1]`. Unknown keys are rejected
    /// eagerly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause and key, e.g.
    /// `in fault spec clause `worker_panic=2`: fault spec key
    /// `worker_panic` must be in [0, 1], got 2`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse_keys(spec, false)
    }

    /// As [`FaultPlan::parse`] for a process without the serve stack:
    /// only `seed`, `limit` and the four disk-site rates are accepted,
    /// and a serve-only key is refused by name.
    ///
    /// # Errors
    ///
    /// As for [`FaultPlan::parse`], plus a serve-only key.
    pub fn parse_disk(spec: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse_keys(spec, true)
    }

    fn parse_keys(spec: &str, disk_only: bool) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let clause = part.trim();
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault spec clause `{clause}` is not `key=value`"))?;
            plan.apply(key.trim(), value.trim(), disk_only)
                .map_err(|e| format!("in fault spec clause `{clause}`: {e}"))?;
        }
        Ok(plan)
    }

    fn apply(&mut self, key: &str, value: &str, disk_only: bool) -> Result<(), String> {
        let int = || -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("fault spec key `{key}` expects an integer, got `{value}`"))
        };
        let serve_only = || {
            format!(
                "fault spec key `{key}` belongs to a serve-only site; only the disk sites \
                 apply here (seed, short_write, torn_rename, read_corrupt, fsync_fail, limit)"
            )
        };
        match key {
            "seed" => self.seed = int()?,
            "limit" => self.limit = int()?,
            "delay_ms" if disk_only => return Err(serve_only()),
            "delay_ms" => self.delay_ms = int()?,
            _ => {
                let site = FaultSite::ALL
                    .into_iter()
                    .find(|site| site.key() == key)
                    .ok_or_else(|| {
                        format!(
                            "unknown fault spec key `{key}` (expected seed, worker_panic, \
                             handler_panic, cache_fail, conn_reset, delay_rate, delay_ms, \
                             short_write, torn_rename, read_corrupt, fsync_fail, limit)"
                        )
                    })?;
                if disk_only && !site.is_disk() {
                    return Err(serve_only());
                }
                let rate: f64 = value.parse().map_err(|_| {
                    format!("fault spec key `{key}` expects a number, got `{value}`")
                })?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!(
                        "fault spec key `{key}` must be in [0, 1], got {rate}"
                    ));
                }
                *self.rate_mut(site) = rate;
            }
        }
        Ok(())
    }

    fn rate_mut(&mut self, site: FaultSite) -> &mut f64 {
        match site {
            FaultSite::WorkerPanic => &mut self.worker_panic,
            FaultSite::HandlerPanic => &mut self.handler_panic,
            FaultSite::CacheFail => &mut self.cache_fail,
            FaultSite::ConnReset => &mut self.conn_reset,
            FaultSite::EngineDelay => &mut self.delay_rate,
            FaultSite::ShortWrite => &mut self.short_write,
            FaultSite::TornRename => &mut self.torn_rename,
            FaultSite::ReadCorrupt => &mut self.read_corrupt,
            FaultSite::FsyncFail => &mut self.fsync_fail,
        }
    }

    /// The rate of `site`.
    fn rate(&self, site: FaultSite) -> f64 {
        let mut plan = *self;
        *plan.rate_mut(site)
    }

    /// `true` when at least one site can fire.
    pub fn is_active(&self) -> bool {
        FaultSite::ALL.into_iter().any(|site| self.rate(site) > 0.0)
    }

    /// The runtime state for this plan, or `None` when no site can fire
    /// (so production pays one null check per site visit).
    pub fn arm(self) -> Option<Arc<Faults>> {
        self.is_active().then(|| Arc::new(Faults::new(self)))
    }
}

/// The `rvz_faults_injected_total{site=…}` counter for `site`.
fn injected_metric(site: FaultSite) -> &'static rvz_obs::Counter {
    rvz_obs::registry().counter("rvz_faults_injected_total", &[("site", site.label())])
}

/// Touches all nine `rvz_faults_injected_total{site=…}` counters so a
/// fresh `/metrics` scrape lists the family before any fault fires.
pub fn preregister_metrics() {
    for site in FaultSite::ALL {
        let _ = injected_metric(site);
    }
}

/// Runtime fault state: the plan plus per-site decision and injection
/// counters, shared via `Arc` by every injection point of a process.
pub struct Faults {
    plan: FaultPlan,
    decisions: [AtomicU64; SITE_COUNT],
    injected: [AtomicU64; SITE_COUNT],
}

impl Faults {
    /// Builds the runtime state for a plan.
    pub fn new(plan: FaultPlan) -> Faults {
        Faults {
            plan,
            decisions: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The split stream behind the `n`-th decision at `site`.
    pub(crate) fn stream(&self, site: FaultSite, n: u64) -> SplitMix64 {
        SplitMix64::new(self.plan.seed ^ SITE_SALT[site as usize]).split(n)
    }

    /// Decides (deterministically per site-visit index) whether this
    /// visit to `site` injects a fault, honoring the plan's `limit`.
    pub fn fires(&self, site: FaultSite) -> bool {
        let rate = self.plan.rate(site);
        if rate <= 0.0 {
            return false;
        }
        let n = self.decisions[site as usize].fetch_add(1, Ordering::Relaxed);
        if self.stream(site, n).next_f64() >= rate {
            return false;
        }
        // Reserve one slot under the cap (`0` = none); give it back on
        // overrun.
        let count = &self.injected[site as usize];
        if count.fetch_add(1, Ordering::Relaxed) >= self.plan.limit && self.plan.limit > 0 {
            count.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        injected_metric(site).inc();
        true
    }

    /// How many faults have been injected at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize].load(Ordering::Relaxed)
    }

    /// The configured artificial engine latency.
    pub fn delay(&self) -> Duration {
        Duration::from_millis(self.plan.delay_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_key() {
        let plan = FaultPlan::parse(
            "seed=42, worker_panic=0.25, handler_panic=1, cache_fail=0.5, \
             conn_reset=0.1, delay_rate=0.75, delay_ms=7, short_write=0.25, \
             torn_rename=1, read_corrupt=0.5, fsync_fail=0.75, limit=3",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                seed: 42,
                worker_panic: 0.25,
                handler_panic: 1.0,
                cache_fail: 0.5,
                conn_reset: 0.1,
                delay_rate: 0.75,
                delay_ms: 7,
                short_write: 0.25,
                torn_rename: 1.0,
                read_corrupt: 0.5,
                fsync_fail: 0.75,
                limit: 3,
            }
        );
        assert!(plan.is_active());
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan::default().arm().is_none());
        // Every single rate arms the plan on its own.
        for site in FaultSite::ALL {
            let plan = FaultPlan::parse(&format!("{}=0.5", site.key())).unwrap();
            assert_eq!(plan.rate(site), 0.5, "{site:?}");
            assert!(plan.arm().is_some(), "{site:?}");
        }
    }

    #[test]
    fn parse_rejects_bad_specs_naming_the_key() {
        for (spec, needle) in [
            ("bogus=1", "unknown fault spec key `bogus`"),
            ("engine_delay=1", "unknown fault spec key `engine_delay`"),
            ("worker_panic=2", "`worker_panic` must be in [0, 1]"),
            ("worker_panic=-0.5", "must be in [0, 1]"),
            ("short_write=7", "`short_write` must be in [0, 1]"),
            ("short_write=2", "`short_write` must be in [0, 1], got 2"),
            ("fsync_fail=x", "`fsync_fail` expects a number"),
            ("seed=abc", "expects an integer"),
            ("seed=x", "in fault spec clause `seed=x`"),
            ("limit=-1", "`limit` expects an integer"),
            ("handler_panic", "not `key=value`"),
            ("short_write", "clause `short_write` is not `key=value`"),
            ("delay_ms=1.5", "expects an integer"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec {spec:?} -> {err}");
        }
    }

    #[test]
    fn parse_errors_name_the_offending_clause() {
        // A multi-clause spec must point at the clause that failed, not
        // just the key (clauses can repeat keys or hold typos).
        let err = FaultPlan::parse("seed=1, handler_panic=0.5, conn_reset=1.5").unwrap_err();
        assert!(
            err.contains("in fault spec clause `conn_reset=1.5`"),
            "{err}"
        );
        assert!(err.contains("`conn_reset` must be in [0, 1]"), "{err}");
        let err = FaultPlan::parse("seed=1,read_corrupt=nope").unwrap_err();
        assert!(err.contains("clause `read_corrupt=nope`"), "{err}");
    }

    #[test]
    fn disk_specs_take_the_disk_keys_and_refuse_serve_only_ones() {
        let plan = FaultPlan::parse_disk(
            "seed=9, short_write=0.25, torn_rename=1, read_corrupt=0.5, fsync_fail=0.75, limit=2",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                seed: 9,
                short_write: 0.25,
                torn_rename: 1.0,
                read_corrupt: 0.5,
                fsync_fail: 0.75,
                limit: 2,
                ..FaultPlan::default()
            }
        );
        for key in [
            "worker_panic",
            "handler_panic",
            "cache_fail",
            "conn_reset",
            "delay_rate",
            "delay_ms",
        ] {
            let err = FaultPlan::parse_disk(&format!("seed=1,{key}=1")).unwrap_err();
            assert!(err.contains(&format!("clause `{key}=1`")), "{err}");
            assert!(
                err.contains(&format!("`{key}` belongs to a serve-only site")),
                "{err}"
            );
        }
        let err = FaultPlan::parse_disk("bogus=1").unwrap_err();
        assert!(err.contains("unknown fault spec key `bogus`"), "{err}");
        for site in FaultSite::ALL {
            assert_eq!(
                FaultPlan::parse_disk(&format!("{}=1", site.key())).is_ok(),
                site.is_disk(),
                "{site:?}"
            );
        }
    }

    #[test]
    fn struct_literal_plan_gives_disk_sites_its_seed_and_limit() {
        let faults = Faults::new(FaultPlan {
            seed: 3,
            limit: 1,
            fsync_fail: 1.0,
            ..FaultPlan::default()
        });
        let fired = (0..16)
            .filter(|_| faults.fires(FaultSite::FsyncFail))
            .count();
        assert_eq!(fired, 1, "the plan's limit caps the disk site");
        assert_eq!(faults.injected(FaultSite::FsyncFail), 1);
    }

    #[test]
    fn pinned_seed_decisions_match_the_recorded_sequences() {
        // The first 64 decisions per site at seed 42, rate 0.5, bit i
        // set when visit i fires. Every pinned-seed test relies on
        // these: a changed salt or stream would move them.
        let plan = FaultSite::ALL.into_iter().fold(
            FaultPlan::parse("seed=42").unwrap(),
            |mut plan, site| {
                *plan.rate_mut(site) = 0.5;
                plan
            },
        );
        let faults = Faults::new(plan);
        let masks = FaultSite::ALL
            .map(|site| (0..64).fold(0u64, |mask, i| mask | (u64::from(faults.fires(site)) << i)));
        assert_eq!(
            masks,
            [
                0x3345_bafc_1211_c818,
                0x5c66_b4d7_8063_e661,
                0x7fbd_ad42_b2f2_9ca4,
                0x4fce_2ae1_6f89_1057,
                0x1a04_1e6f_6111_c5eb,
                0x54dc_075c_920c_211f,
                0x37a5_b66b_21c1_c96a,
                0xdc6d_d388_1769_875b,
                0x4fd6_bb9a_d447_2a6c,
            ]
        );
    }

    #[test]
    fn decision_sequences_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 7,
            handler_panic: 0.5,
            ..FaultPlan::default()
        };
        let a = Faults::new(plan);
        let b = Faults::new(plan);
        let seq = |s: &Faults| -> Vec<bool> {
            (0..64).map(|_| s.fires(FaultSite::HandlerPanic)).collect()
        };
        let sa = seq(&a);
        assert_eq!(sa, seq(&b), "same seed, same decision sequence");
        assert!(sa.iter().any(|&f| f) && sa.iter().any(|&f| !f));
        // A different seed gives a different sequence.
        let c = Faults::new(FaultPlan { seed: 8, ..plan });
        assert_ne!(sa, seq(&c));
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan {
            seed: 3,
            handler_panic: 0.5,
            cache_fail: 0.5,
            ..FaultPlan::default()
        };
        let s = Faults::new(plan);
        let h: Vec<bool> = (0..64).map(|_| s.fires(FaultSite::HandlerPanic)).collect();
        let c: Vec<bool> = (0..64).map(|_| s.fires(FaultSite::CacheFail)).collect();
        assert_ne!(h, c, "per-site salts must decorrelate the streams");
    }

    #[test]
    fn limit_caps_total_injections() {
        let plan = FaultPlan {
            seed: 1,
            handler_panic: 1.0,
            limit: 2,
            ..FaultPlan::default()
        };
        let s = Faults::new(plan);
        let fired: usize = (0..16).filter(|_| s.fires(FaultSite::HandlerPanic)).count();
        assert_eq!(fired, 2);
        assert_eq!(s.injected(FaultSite::HandlerPanic), 2);
    }

    #[test]
    fn zero_rate_sites_never_fire_or_count() {
        let s = Faults::new(FaultPlan {
            seed: 9,
            worker_panic: 1.0,
            short_write: 1.0,
            ..FaultPlan::default()
        });
        for _ in 0..32 {
            assert!(!s.fires(FaultSite::ConnReset));
            assert!(!s.fires(FaultSite::FsyncFail));
            assert!(!s.fires(FaultSite::TornRename));
        }
        for site in [
            FaultSite::ConnReset,
            FaultSite::FsyncFail,
            FaultSite::TornRename,
        ] {
            assert_eq!(s.injected(site), 0, "{site:?}");
            assert_eq!(s.decisions[site as usize].load(Ordering::Relaxed), 0);
        }
        assert!(s.fires(FaultSite::WorkerPanic));
        assert!(s.fires(FaultSite::ShortWrite));
    }

    #[test]
    fn injected_faults_bump_the_global_site_counter() {
        // Process-global counter shared with concurrent tests: assert a
        // lower bound on the delta, not an exact value.
        let before = injected_metric(FaultSite::TornRename).get();
        let faults = Faults::new(FaultPlan {
            seed: 7,
            torn_rename: 1.0,
            limit: 2,
            ..FaultPlan::default()
        });
        assert!(faults.fires(FaultSite::TornRename));
        assert!(faults.fires(FaultSite::TornRename));
        assert!(!faults.fires(FaultSite::TornRename), "limit spent");
        assert!(injected_metric(FaultSite::TornRename).get() >= before + 2);
        assert_eq!(faults.injected(FaultSite::TornRename), 2);
    }

    #[test]
    fn preregistration_lists_all_nine_labels() {
        preregister_metrics();
        let text = rvz_obs::render();
        for site in FaultSite::ALL {
            let series = format!("rvz_faults_injected_total{{site=\"{}\"}}", site.label());
            assert!(text.contains(&series), "missing {series}");
        }
    }
}
