//! Per-query engine telemetry: which path answered, how hard it worked.
//!
//! Every engine entry point records one [`QueryRecord`] at query end —
//! its path, its outcome and its own [`EngineStats`] — into the
//! thread-local [`last`] slot (the serve slow-query log reads it to
//! explain an individual request) and into the global `rvz-obs`
//! counters that `/metrics` exposes: `rvz_engine_queries_total{path=…}`,
//! `rvz_engine_steps_total{path=…}`,
//! `rvz_engine_outcomes_total{outcome=…}`,
//! `rvz_engine_envelope_queries_total`,
//! `rvz_engine_pruned_intervals_total`, the step-choice totals
//! `rvz_engine_steps_{analytic,curvature,window,conservative}_total`,
//! `rvz_engine_steps_by_pair_total{pair=…}`, and on the lane kernel
//! `rvz_engine_kernel_chunks_total` and `rvz_engine_kernel_lanes_active`.
//!
//! Recording is observation-only and allocation-free: the record is
//! `Copy`, the counter handles are cached `&'static`
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

/// One finished query as the engine recorded it: the path that
/// answered, its outcome (`None` when a truncated program refused), and
/// the engine's own work counters.
pub type QueryRecord = (EnginePath, Option<SimOutcome>, EngineStats);

thread_local! {
    static LAST: Cell<Option<QueryRecord>> = const { Cell::new(None) };
}

/// The calling thread's most recently recorded query.
pub fn last() -> Option<QueryRecord> {
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
    LAST.with(|l| l.set(Some((path, outcome.copied(), stats))));
    if !rvz_obs::enabled() {
        return;
    }
    let (queries, steps) = path_counters(path);
    queries.inc();
    steps.add(outcome.map_or(0, SimOutcome::steps));
    outcome_counter(outcome.map_or("refused", SimOutcome::classification)).inc();
    counter!("rvz_engine_envelope_queries_total").add(stats.envelope_queries);
    counter!("rvz_engine_pruned_intervals_total").add(stats.pruned_intervals);
    counter!("rvz_engine_steps_analytic_total").add(stats.analytic_steps);
    counter!("rvz_engine_steps_curvature_total").add(stats.curvature_steps);
    counter!("rvz_engine_steps_window_total").add(stats.window_steps);
    counter!("rvz_engine_steps_conservative_total").add(stats.conservative_steps);
    for kind in PairKind::ALL {
        pair_counter(kind).add(stats.pair_steps[kind as usize]);
    }
    if path == EnginePath::CompiledSoA {
        counter!("rvz_engine_kernel_chunks_total").add(stats.lane_chunks);
        counter!("rvz_engine_kernel_lanes_active").add(stats.lane_intervals);
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
    let _ = counter!("rvz_engine_envelope_queries_total");
    let _ = counter!("rvz_engine_pruned_intervals_total");
    let _ = counter!("rvz_engine_steps_analytic_total");
    let _ = counter!("rvz_engine_steps_curvature_total");
    let _ = counter!("rvz_engine_steps_window_total");
    let _ = counter!("rvz_engine_steps_conservative_total");
    let _ = counter!("rvz_engine_kernel_chunks_total");
    let _ = counter!("rvz_engine_kernel_lanes_active");
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
        let (path, outcome, _) = last().expect("query recorded telemetry");
        assert_eq!(path, EnginePath::Cursor);
        assert_eq!(outcome, Some(out));
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
