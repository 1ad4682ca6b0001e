//! The monomorphic `CompiledProgram × CompiledProgram` engine.
//!
//! The cursor engine ([`crate::first_contact_cursors`]) is generic over
//! [`Cursor`](rvz_trajectory::Cursor) implementations and pays for that
//! generality per probe: frame-warp matrix products, schedule round
//! arithmetic, and (on the heterogeneous swarm path) virtual dispatch
//! through `Box<dyn Cursor>`. This module runs the *same certificate
//! ladder* on two flat [`CompiledProgram`] arenas instead:
//!
//! * a probe is an index bump plus one fused multiply-add (the warp and
//!   clock arithmetic were baked into the pieces at lowering time);
//! * envelope pruning queries the programs' **baked** bounding-box
//!   trees — `O(log n)` branchless min/max unions, one square root per
//!   envelope pair, purely functional, zero allocation (the cursor
//!   path's `Path` tree is built lazily per cursor);
//! * pruning windows are **seeded from the compiled round marks**, so
//!   the first look-ahead already spans a schedule round instead of
//!   galloping up from the leaf scale;
//! * the whole query runs without a single heap allocation — enforced
//!   by a counting-allocator test gate (`tests/alloc_gate.rs`).
//!
//! The streaming lowering ([`SoaStream`](rvz_trajectory::SoaStream))
//! feeds the lane kernel (`crate::kernel`), not this ladder.
//!
//! ## Partial programs
//!
//! Lowering is budgeted (`Θ(4ᵏ)` segments per schedule round), so a
//! program may cover only a prefix `[0, end_time]` of the query horizon.
//! [`try_first_contact_programs`] resolves every query it can answer
//! within the covered span (a contact before the truncation point, or a
//! horizon that fits) and reports `None` — *never a wrong answer* —
//! when the query needs uncovered time; callers fall back to the cursor
//! path. [`first_contact_programs`] is the asserting variant for fully
//! covered programs.
//!
//! Equivalence with the cursor engine (identical classifications,
//! contact times within the shared declaration slack) is enforced by
//! `tests/engine_equivalence.rs` over a seeded Latin hypercube.

use crate::engine::{
    circular_pair_law, curvature_step, piece_gap_lower_bound, ContactOptions, EngineStats,
    SimOutcome,
};
use rvz_trajectory::{CompiledProgram, Motion};

/// Reusable per-worker workspace for the compiled and SoA engines.
///
/// Holds the last query's pruning-layer counters, which telemetry and
/// the benches read back after each query. One scratch per thread,
/// reused across a whole batch; the compiled and lane-kernel queries
/// perform **zero** heap allocations (test-gated).
#[derive(Debug, Clone, Default)]
pub struct EngineScratch {
    /// Pruning-layer work counters of the most recent query.
    pub(crate) stats: EngineStats,
}

impl EngineScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        EngineScratch::default()
    }

    /// The pruning-layer counters of the most recent pair query.
    pub fn last_stats(&self) -> EngineStats {
        self.stats
    }
}

/// First contact between two fully covered compiled programs.
///
/// # Panics
///
/// Panics when either program does not cover `opts.horizon` (use
/// [`try_first_contact_programs`] for budget-truncated programs), and on
/// invalid options/radius as in [`crate::first_contact`].
pub fn first_contact_programs(
    a: &CompiledProgram,
    b: &CompiledProgram,
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> SimOutcome {
    assert!(
        a.covers(opts.horizon) && b.covers(opts.horizon),
        "programs must cover the horizon {} (covered: {} / {})",
        opts.horizon,
        a.end_time(),
        b.end_time()
    );
    try_first_contact_programs(a, b, radius, opts, scratch)
        .expect("fully covered programs always resolve")
}

/// First contact between two compiled programs, tolerating truncated
/// coverage.
///
/// Returns `Some` when the query resolves within the covered span — a
/// contact (or the horizon) no later than both programs' covered end —
/// and `None` when the engine would need uncovered time; the caller
/// then falls back to the cursor path. A `None` is a *refusal*, never
/// an approximation: every returned outcome is exactly what the fully
/// compiled run would produce.
///
/// # Panics
///
/// On invalid options or radius, as in [`crate::first_contact`].
pub fn try_first_contact_programs(
    a: &CompiledProgram,
    b: &CompiledProgram,
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> Option<SimOutcome> {
    let out = try_first_contact_programs_impl(a, b, radius, opts, scratch);
    crate::telemetry::record(
        crate::telemetry::EnginePath::CompiledEager,
        out.as_ref(),
        scratch.stats,
    );
    out
}

/// The compiled ladder proper (telemetry recorded by the public wrapper
/// above).
fn try_first_contact_programs_impl(
    a: &CompiledProgram,
    b: &CompiledProgram,
    radius: f64,
    opts: &ContactOptions,
    scratch: &mut EngineScratch,
) -> Option<SimOutcome> {
    opts.validate();
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive and finite, got {radius}"
    );
    let rel_speed = a.speed_bound() + b.speed_bound();
    assert!(
        rel_speed.is_finite(),
        "speed bounds must be finite, got {rel_speed}"
    );
    let threshold = radius + opts.tolerance;

    let mut ia = 0_usize;
    let mut ib = 0_usize;
    let mut t = 0.0_f64;
    let mut min_distance = f64::INFINITY;
    let mut min_distance_time = 0.0;
    let mut steps = 0_u64;
    let mut stats = EngineStats::default();
    let mut window = 0.0_f64;
    let mut cooldown = 0_u32;
    let mut miss_streak = 0_u32;

    let outcome = loop {
        let pa = a.probe_from(&mut ia, t);
        let pb = b.probe_from(&mut ib, t);
        let d = pa.position.distance(pb.position);
        debug_assert!(
            d.is_finite(),
            "compiled program produced a non-finite position at t={t}"
        );
        if d < min_distance {
            min_distance = d;
            min_distance_time = t;
        }
        if d <= threshold {
            break SimOutcome::Contact {
                time: t,
                distance: d,
                steps,
            };
        }
        if t >= opts.horizon {
            break SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            };
        }
        steps += 1;
        if steps > opts.max_steps {
            break SimOutcome::StepBudget {
                time: t,
                min_distance,
                steps: opts.max_steps,
            };
        }
        if let Some(budget) = &opts.budget {
            if budget.fires_at(steps) {
                break SimOutcome::Deadline {
                    time: t,
                    min_distance,
                    steps,
                };
            }
        }

        // The cursor engine's certificate ladder, rung for rung.
        let conservative = if rel_speed > 0.0 {
            (d - radius) / rel_speed
        } else {
            f64::INFINITY
        };
        let mut exact_root = false;
        let mut curved = false;
        let step = match (pa.motion, pb.motion) {
            (Motion::Affine { velocity: va }, Motion::Affine { velocity: vb }) => {
                let boundary = pa.piece_end.min(pb.piece_end).min(opts.horizon);
                let ub = (boundary - t).max(0.0);
                let q0 = pb.position - pa.position;
                let dv = vb - va;
                let a2 = dv.norm_squared();
                let b2 = q0.dot(dv);
                let c2 = q0.norm_squared() - threshold * threshold;
                let mut jump = f64::NAN;
                if a2 > 0.0 && b2 < 0.0 {
                    let disc = b2 * b2 - a2 * c2;
                    if disc >= 0.0 {
                        let root = c2 / (-b2 + disc.sqrt());
                        if root <= ub {
                            jump = root;
                            exact_root = true;
                        }
                    }
                    if !exact_root {
                        let vertex = -b2 / a2;
                        if vertex < ub {
                            let dmin = (q0 + dv * vertex).norm();
                            if dmin < min_distance {
                                min_distance = dmin;
                                min_distance_time = t + vertex;
                            }
                        }
                    }
                }
                if exact_root {
                    jump
                } else {
                    ub.max(conservative)
                }
            }
            (ma, mb) => {
                let boundary = pa.piece_end.min(pb.piece_end).min(opts.horizon);
                let ub = (boundary - t).max(0.0);
                if let Some(law) = circular_pair_law(&pa, &pb, ma, mb) {
                    match law.first_crossing(threshold * threshold, ub) {
                        Some(du) => {
                            exact_root = true;
                            du
                        }
                        None => {
                            if law.p - law.q.abs() < min_distance * min_distance * (1.0 - 1e-12) {
                                if let Some((dmin, smin)) = law.minimum_within(ub) {
                                    if dmin < min_distance {
                                        min_distance = dmin;
                                        min_distance_time = t + smin;
                                    }
                                }
                            }
                            ub.max(conservative)
                        }
                    }
                } else if piece_gap_lower_bound(&pa, &pb, ma, mb, ub) > threshold {
                    ub.max(conservative)
                } else if conservative.is_finite() {
                    let curvature =
                        curvature_step(&pa, &pb, d, ub, threshold - 0.5 * opts.tolerance);
                    curved = curvature > conservative;
                    curvature.max(conservative)
                } else {
                    break SimOutcome::Horizon {
                        min_distance,
                        min_distance_time,
                        steps,
                    };
                }
            }
        };
        if exact_root {
            stats.analytic_steps += 1;
        } else if curved {
            stats.curvature_steps += 1;
        } else {
            stats.conservative_steps += 1;
        }
        let floor = 4.0 * f64::EPSILON * (1.0 + t.abs());
        let base = step.max(floor);
        let mut t_next = t + base;

        // Envelope pruning on the baked trees, windows seeded from the
        // compiled round marks: the first look-ahead spans to the next
        // schedule boundary instead of galloping up from leaf scale.
        if opts.prune && !exact_root && t_next < opts.horizon {
            if cooldown > 0 {
                cooldown -= 1;
            } else {
                let mut advanced = false;
                let mut w = window.max(4.0 * base);
                if window == 0.0 {
                    let mark = match (a.next_mark_after(t_next), b.next_mark_after(t_next)) {
                        (Some(ma), Some(mb)) => Some(ma.max(mb)),
                        (m, None) | (None, m) => m,
                    };
                    if let Some(m) = mark {
                        w = w.max(m - t_next);
                    }
                }
                loop {
                    let span = w.min(opts.horizon - t_next);
                    if span <= 2.0 * base {
                        break;
                    }
                    stats.envelope_queries += 2;
                    let ea = a.envelope_box(t_next, t_next + span);
                    let eb = b.envelope_box(t_next, t_next + span);
                    if ea.gap(&eb) > threshold {
                        stats.pruned_intervals += 1;
                        t_next += span;
                        advanced = true;
                        if t_next >= opts.horizon {
                            break;
                        }
                        w *= 2.0;
                    } else {
                        w *= 0.5;
                        break;
                    }
                }
                window = w;
                if advanced {
                    miss_streak = 0;
                } else {
                    miss_streak = (miss_streak + 1).min(3);
                    cooldown = 1 << miss_streak;
                }
            }
        }
        t = t_next.min(opts.horizon);
        if !a.covers(t) || !b.covers(t) {
            // The query needs uncovered time: refuse rather than guess.
            scratch.stats = stats;
            return None;
        }
    };
    scratch.stats = stats;
    Some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{first_contact, first_contact_cursors_instrumented};
    use crate::Stationary;
    use rvz_geometry::Vec2;
    use rvz_search::UniversalSearch;
    use rvz_trajectory::{
        Compile, CompileOptions, CompiledProgram, MonotoneTrajectory, PathBuilder,
    };

    fn compile<T: Compile + ?Sized>(t: &T, horizon: f64) -> CompiledProgram {
        t.compile(&CompileOptions::to_horizon(horizon)).unwrap()
    }

    #[test]
    fn head_on_paths_match_cursor_engine() {
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .build();
        let b = PathBuilder::at(Vec2::new(10.0, 0.0))
            .line_to(Vec2::ZERO)
            .build();
        let opts = ContactOptions::default();
        let mut scratch = EngineScratch::new();
        let out = first_contact_programs(
            &compile(&a, opts.horizon),
            &compile(&b, opts.horizon),
            1.0,
            &opts,
            &mut scratch,
        );
        let t = out.contact_time().expect("contact");
        assert!((t - 4.5).abs() < 1e-6, "t = {t}");
        assert!(out.steps() <= 3);
    }

    #[test]
    fn universal_twins_disprove_on_baked_trees() {
        let horizon = rvz_search::times::rounds_total(4);
        let a = UniversalSearch;
        let b = rvz_model::RobotAttributes::reference()
            .frame_warp(UniversalSearch, Vec2::new(0.0, 2.0));
        let pa = compile(&a, horizon);
        let pb = compile(&b, horizon);
        assert!(pa.covers(horizon) && pb.covers(horizon));
        let opts = ContactOptions::with_horizon(horizon);
        let mut scratch = EngineScratch::new();
        let out = first_contact_programs(&pa, &pb, 0.1, &opts, &mut scratch);
        match out {
            SimOutcome::Horizon { min_distance, .. } => {
                assert!((min_distance - 2.0).abs() < 1e-9, "min {min_distance}");
            }
            other => panic!("twins met: {other:?}"),
        }
        assert!(
            scratch.last_stats().pruned_intervals > 0,
            "no pruning fired"
        );
        // Classification matches the cursor engine.
        let (cursor_out, _) =
            first_contact_cursors_instrumented(&mut a.cursor(), &mut b.cursor(), 0.1, &opts);
        assert_eq!(out.classification(), cursor_out.classification());
        assert!(
            out.steps() <= cursor_out.steps() * 2 + 16,
            "compiled engine stepped wildly more: {} vs {}",
            out.steps(),
            cursor_out.steps()
        );
    }

    #[test]
    fn partial_programs_resolve_early_contacts_and_refuse_late_ones() {
        // Contact at t = 4.5 — resolvable on a program truncated at 6.
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .build();
        let b = Stationary::new(Vec2::new(5.5, 0.0));
        let opts = ContactOptions::with_horizon(50.0);
        let truncated = a.compile(&CompileOptions::to_horizon(6.0)).unwrap();
        assert!(!truncated.covers(opts.horizon));
        let target = compile(&b, opts.horizon);
        let mut scratch = EngineScratch::new();
        let resolved = try_first_contact_programs(&truncated, &target, 1.0, &opts, &mut scratch)
            .expect("contact happens inside the covered span");
        assert!((resolved.contact_time().unwrap() - 4.5).abs() < 1e-6);
        assert_eq!(
            resolved,
            first_contact(&a, &b, 1.0, &opts),
            "partial resolution must equal the full cursor run"
        );

        // A far target forces the engine past the truncation: refusal.
        let far = compile(&Stationary::new(Vec2::new(100.0, 0.0)), opts.horizon);
        assert_eq!(
            try_first_contact_programs(&truncated, &far, 1.0, &opts, &mut scratch),
            None
        );
    }

    #[test]
    fn rest_programs_terminate_immediately() {
        let a = compile(&Stationary::new(Vec2::ZERO), 10.0);
        let b = compile(&Stationary::new(Vec2::new(3.0, 0.0)), 10.0);
        let mut scratch = EngineScratch::new();
        let out = first_contact_programs(&a, &b, 1.0, &ContactOptions::default(), &mut scratch);
        assert!(matches!(out, SimOutcome::Horizon { steps: 1, .. }));
    }

    #[test]
    #[should_panic(expected = "must cover the horizon")]
    fn asserting_entry_rejects_uncovered_programs() {
        let a = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(10.0, 0.0))
            .wait(100.0)
            .build();
        let truncated = a.compile(&CompileOptions::to_horizon(5.0)).unwrap();
        let b = Stationary::new(Vec2::new(50.0, 0.0))
            .compile(&CompileOptions::to_horizon(5.0))
            .unwrap();
        let _ = first_contact_programs(
            &truncated,
            &b,
            1.0,
            &ContactOptions::with_horizon(50.0),
            &mut EngineScratch::new(),
        );
    }
}
