//! Per-query engine telemetry: which path answered, how hard it worked.
//!
//! Every engine entry point records one [`EngineTelemetry`] at query
//! end: into the thread-local [`last`] slot (the serve slow-query log
//! reads it to explain an individual request) and into the global
//! `rvz-obs` counters (`rvz_engine_queries_total{path=…}`,
//! `rvz_engine_steps_total{path=…}`, the envelope/prune/step-choice
//! totals, `rvz_engine_steps_by_pair_total{pair=…}` and `rvz_engine_outcomes_total{outcome=…}`) that `/metrics`
//! exposes.
//!
//! Recording is observation-only and allocation-free: the telemetry
//! struct is `Copy`, the counter handles are cached `&'static`
//! references, and nothing here feeds back into engine control flow —
//! outcomes are bit-identical with recording on, off, or disabled via
//! the global kill switch (the allocation gate in `tests/alloc_gate.rs`
//! runs with recording live).

use crate::engine::{EngineStats, PairKind, SimOutcome};
use rvz_obs::{counter, Counter};
use std::cell::Cell;

/// Which engine answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// The monotone-cursor engine with swept-envelope pruning.
    Cursor,
    /// The scalar compiled ladder over eagerly lowered programs.
    CompiledEager,
    /// The lane kernel over structure-of-arrays arenas
    /// (`rvz_sim::kernel`), including the many-vs-many batch entry
    /// points.
    CompiledSoA,
}

impl EnginePath {
    /// The stable label used in metrics and the slow-query log.
    pub fn label(self) -> &'static str {
        match self {
            EnginePath::Cursor => "cursor",
            EnginePath::CompiledEager => "compiled-eager",
            EnginePath::CompiledSoA => "compiled-soa",
        }
    }
}

/// One query's work profile, as recorded at query end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// The engine path that answered.
    pub path: EnginePath,
    /// The outcome classification (`"contact"`, `"horizon"`,
    /// `"step-budget"`, `"deadline"`), or `"refused"` when a truncated
    /// program could not answer.
    pub outcome: &'static str,
    /// Advancement steps used.
    pub steps: u64,
    /// Envelope queries issued by the pruning layer.
    pub envelope_queries: u64,
    /// Intervals skipped on an envelope separation certificate.
    pub pruned_intervals: u64,
    /// Steps advanced by an exact analytic root (affine quadratic or
    /// cosine law).
    pub analytic_steps: u64,
    /// Steps advanced by the curvature certificate.
    pub curvature_steps: u64,
    /// Steps advanced by the wait-window certificate.
    pub window_steps: u64,
    /// Steps advanced by the conservative / piece-boundary certificate.
    pub conservative_steps: u64,
    /// Lane-kernel chunks evaluated (zero on scalar paths).
    pub lane_chunks: u64,
    /// Whole intervals certified or localized by lane chunks.
    pub lane_intervals: u64,
    /// Steps by piece-pair kind, indexed by [`PairKind`] (cursor
    /// engine only).
    pub pair_steps: [u64; PairKind::ALL.len()],
}

thread_local! {
    static LAST: Cell<Option<EngineTelemetry>> = const { Cell::new(None) };
}

/// The calling thread's most recently recorded query telemetry.
pub fn last() -> Option<EngineTelemetry> {
    LAST.with(|l| l.get())
}

/// Clears the thread's [`last`] slot (per-request bookkeeping: a cache
/// hit must not inherit the previous miss's engine profile).
pub fn clear_last() {
    LAST.with(|l| l.set(None));
}

/// Per-path `(queries, steps)` counters, one macro call site per path
/// so each handle caches independently.
fn path_counters(path: EnginePath) -> (&'static Counter, &'static Counter) {
    match path {
        EnginePath::Cursor => (
            counter!("rvz_engine_queries_total", "path" => "cursor"),
            counter!("rvz_engine_steps_total", "path" => "cursor"),
        ),
        EnginePath::CompiledEager => (
            counter!("rvz_engine_queries_total", "path" => "compiled-eager"),
            counter!("rvz_engine_steps_total", "path" => "compiled-eager"),
        ),
        EnginePath::CompiledSoA => (
            counter!("rvz_engine_queries_total", "path" => "compiled-soa"),
            counter!("rvz_engine_steps_total", "path" => "compiled-soa"),
        ),
    }
}

/// Kernel-vs-scalar dispatch counters: which implementation a compiled
/// query was answered by (`soa` = the lane kernel, `scalar` = the
/// per-piece ladder). A lane-kernel query that *contains* scalar
/// fallback intervals (circular pieces) still counts once as `soa` —
/// dispatch is per query, lane utilization is the
/// `rvz_engine_kernel_lanes_active` counter.
fn dispatch_counter(soa: bool) -> &'static Counter {
    if soa {
        counter!("rvz_engine_kernel_dispatch_total", "kernel" => "soa")
    } else {
        counter!("rvz_engine_kernel_dispatch_total", "kernel" => "scalar")
    }
}

/// The step counter for a piece-pair kind.
fn pair_counter(kind: PairKind) -> &'static Counter {
    match kind {
        PairKind::Curved => counter!("rvz_engine_steps_by_pair_total", "pair" => "curved"),
        PairKind::Wait => counter!("rvz_engine_steps_by_pair_total", "pair" => "wait"),
        PairKind::CircleCircle => {
            counter!("rvz_engine_steps_by_pair_total", "pair" => "circle-circle")
        }
        PairKind::CircleLeg => counter!("rvz_engine_steps_by_pair_total", "pair" => "circle-leg"),
        PairKind::LegLeg => counter!("rvz_engine_steps_by_pair_total", "pair" => "leg-leg"),
    }
}

/// The outcome counter for a classification label.
fn outcome_counter(outcome: &str) -> &'static Counter {
    match outcome {
        "contact" => counter!("rvz_engine_outcomes_total", "outcome" => "contact"),
        "horizon" => counter!("rvz_engine_outcomes_total", "outcome" => "horizon"),
        "step-budget" => counter!("rvz_engine_outcomes_total", "outcome" => "step-budget"),
        "deadline" => counter!("rvz_engine_outcomes_total", "outcome" => "deadline"),
        _ => counter!("rvz_engine_outcomes_total", "outcome" => "refused"),
    }
}

/// Records one finished query (engine-internal; every entry point calls
/// this exactly once per query).
pub(crate) fn record(path: EnginePath, outcome: Option<&SimOutcome>, stats: EngineStats) {
    let outcome_label = outcome.map_or("refused", SimOutcome::classification);
    let steps = outcome.map_or(0, SimOutcome::steps);
    let telemetry = EngineTelemetry {
        path,
        outcome: outcome_label,
        steps,
        envelope_queries: stats.envelope_queries,
        pruned_intervals: stats.pruned_intervals,
        analytic_steps: stats.analytic_steps,
        curvature_steps: stats.curvature_steps,
        window_steps: stats.window_steps,
        conservative_steps: stats.conservative_steps,
        lane_chunks: stats.lane_chunks,
        lane_intervals: stats.lane_intervals,
        pair_steps: stats.pair_steps,
    };
    LAST.with(|l| l.set(Some(telemetry)));
    if !rvz_obs::enabled() {
        return;
    }
    let (queries, steps_counter) = path_counters(path);
    queries.inc();
    steps_counter.add(steps);
    outcome_counter(outcome_label).inc();
    counter!("rvz_engine_envelope_queries_total").add(stats.envelope_queries);
    counter!("rvz_engine_pruned_intervals_total").add(stats.pruned_intervals);
    counter!("rvz_engine_steps_analytic_total").add(stats.analytic_steps);
    counter!("rvz_engine_steps_curvature_total").add(stats.curvature_steps);
    counter!("rvz_engine_steps_window_total").add(stats.window_steps);
    counter!("rvz_engine_steps_conservative_total").add(stats.conservative_steps);
    for kind in PairKind::ALL {
        pair_counter(kind).add(stats.pair_steps[kind as usize]);
    }
    match path {
        EnginePath::CompiledEager => dispatch_counter(false).inc(),
        EnginePath::CompiledSoA => {
            dispatch_counter(true).inc();
            counter!("rvz_engine_kernel_chunks_total").add(stats.lane_chunks);
            counter!("rvz_engine_kernel_lanes_active").add(stats.lane_intervals);
        }
        EnginePath::Cursor => {}
    }
}

/// Touches every engine metric family so `/metrics` lists them all
/// before the first query (CI greps family names on a fresh scrape).
pub fn preregister_metrics() {
    for path in [
        EnginePath::Cursor,
        EnginePath::CompiledEager,
        EnginePath::CompiledSoA,
    ] {
        let _ = path_counters(path);
    }
    for outcome in ["contact", "horizon", "step-budget", "deadline", "refused"] {
        let _ = outcome_counter(outcome);
    }
    for kind in PairKind::ALL {
        let _ = pair_counter(kind);
    }
    let _ = dispatch_counter(false);
    let _ = dispatch_counter(true);
    let _ = counter!("rvz_engine_envelope_queries_total");
    let _ = counter!("rvz_engine_pruned_intervals_total");
    let _ = counter!("rvz_engine_steps_analytic_total");
    let _ = counter!("rvz_engine_steps_curvature_total");
    let _ = counter!("rvz_engine_steps_window_total");
    let _ = counter!("rvz_engine_steps_conservative_total");
    let _ = counter!("rvz_engine_kernel_chunks_total");
    let _ = counter!("rvz_engine_kernel_lanes_active");
    let _ = counter!("rvz_engine_compile_ns_total");
}

/// Records compile/lowering wall-clock attributed to engine queries
/// (the serve and sweep layers time their compile calls and report
/// here).
pub fn record_compile_ns(ns: u64) {
    counter!("rvz_engine_compile_ns_total").add(ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{first_contact, ContactOptions, Stationary};
    use rvz_geometry::Vec2;

    #[test]
    fn queries_stamp_the_thread_local_slot() {
        clear_last();
        assert_eq!(last(), None);
        let a = Stationary::new(Vec2::ZERO);
        let b = Stationary::new(Vec2::new(10.0, 0.0));
        let out = first_contact(&a, &b, 1.0, &ContactOptions::default());
        let t = last().expect("query recorded telemetry");
        assert_eq!(t.path, EnginePath::Cursor);
        assert_eq!(t.outcome, out.classification());
        assert_eq!(t.steps, out.steps());
        clear_last();
        assert_eq!(last(), None);
    }

    #[test]
    fn pair_labels_are_stable_and_indexed_in_order() {
        let labels: Vec<_> = PairKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            ["curved", "wait", "circle-circle", "circle-leg", "leg-leg"]
        );
        for (i, kind) in PairKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn path_labels_are_stable() {
        assert_eq!(EnginePath::Cursor.label(), "cursor");
        assert_eq!(EnginePath::CompiledEager.label(), "compiled-eager");
        assert_eq!(EnginePath::CompiledSoA.label(), "compiled-soa");
    }
}
