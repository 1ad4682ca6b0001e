//! Streaming-lowering prefix equivalence: a [`SoaStream`] grown to any
//! depth must be **bit-identical** to the eager lowering on the span it
//! has materialized — its arena is the first `n` rows of
//! `ProgramSoA::from_program` of the eager program, with the same
//! marks, and answers the same probes and envelope boxes.
//!
//! This is the contract that lets the serve miss path run the lane
//! kernel on an open prefix: both lowerings pull from the same piece
//! stream, so the streamed arena is a literal prefix of the eager arena
//! (no re-derived geometry, no tolerance slop), and every query over
//! the settled span answers identically down to the last ulp.

use plane_rendezvous::core::WaitAndSearch;
use plane_rendezvous::prelude::*;
use plane_rendezvous::trajectory::{ClockDrift, Compile, CompileOptions, ProgramSoA, SoaStream};

fn bits(column: &[f64]) -> Vec<u64> {
    column.iter().map(|x| x.to_bits()).collect()
}

/// Checks an open prefix against the first `prefix.len()` rows of the
/// eager arena, and every query strictly below its materialized end.
fn assert_prefix_rows(label: &str, prefix: &ProgramSoA, eager: &ProgramSoA) {
    let n = prefix.len();
    assert!(n <= eager.len(), "{label}: prefix longer than the arena");
    for (name, p, e) in [
        ("t0", prefix.t0s(), eager.t0s()),
        ("t1", prefix.t1s(), eager.t1s()),
        ("pos0x", prefix.pos0xs(), eager.pos0xs()),
        ("pos0y", prefix.pos0ys(), eager.pos0ys()),
        ("vx", prefix.vxs(), eager.vxs()),
        ("vy", prefix.vys(), eager.vys()),
    ] {
        assert_eq!(bits(p), bits(&e[..n]), "{label}: column {name} diverges");
    }
    assert_eq!(prefix.circ_column(), &eager.circ_column()[..n], "{label}");
    for i in 0..n {
        assert_eq!(prefix.piece(i), eager.piece(i), "{label}: piece {i}");
    }

    // The open prefix carries the full mark list up to the horizon,
    // which is the eager arena's (nothing truncated here).
    assert_eq!(prefix.round_marks(), eager.round_marks(), "{label}: marks");
    let mut m = 0.0;
    while let Some(next) = prefix.next_mark_after(m) {
        assert_eq!(
            Some(next),
            eager.next_mark_after(m),
            "{label}: mark after {m}"
        );
        m = next;
    }
    assert_eq!(eager.next_mark_after(m), None, "{label}: mark after {m}");

    // Engine-visible queries over the settled span: probes (including
    // the hint-index protocol) and envelope boxes agree bit for bit.
    let end = prefix.end_time();
    let (mut hint_prefix, mut hint_eager) = (0usize, 0usize);
    for i in 0..600 {
        let t = end * i as f64 / 600.0;
        assert!(prefix.settled(t) && prefix.covers(t), "{label}: t={t}");
        let pp = prefix.probe_from(&mut hint_prefix, t);
        let pe = eager.probe_from(&mut hint_eager, t);
        assert_eq!(pp, pe, "{label}: probe diverges at t={t}");
    }
    for w in 0..23 {
        let t0 = end * w as f64 / 23.0;
        for span in [0.05, end / 11.0, end / 3.0] {
            let t1 = (t0 + span).min(end.next_down());
            assert_eq!(
                prefix.envelope_box(t0, t1),
                eager.envelope_box(t0, t1),
                "{label}: envelope diverges on [{t0}, {t1}]"
            );
        }
    }
}

/// Grows a stream through a ladder of 8 depths, extending only where
/// a query at that depth would refuse (as the serve miss path does),
/// and checks every open prefix against the eager arena. Returns how
/// many open prefixes were checked.
fn assert_prefix_equivalence(label: &str, source: &dyn Compile, opts: CompileOptions) -> usize {
    let eager = ProgramSoA::from_program(&source.compile(&opts).expect("eager lowering succeeds"));
    let mut stream = SoaStream::new(source, opts);
    assert_eq!(
        stream.arena().len(),
        0,
        "{label}: construction must not lower"
    );

    let mut open = 0;
    for step in 1..=8 {
        let t = opts.horizon * step as f64 / 8.0;
        if !stream.arena().settled(t) {
            stream.extend(t);
        }
        assert!(stream.error().is_none(), "{label}: stream failed at t={t}");
        if stream.is_complete() {
            break;
        }
        assert!(
            stream.arena().settled(t),
            "{label}: extend({t}) left it unsettled"
        );
        assert_prefix_rows(label, stream.arena(), &eager);
        open += 1;
    }
    stream.finish();
    assert!(stream.is_complete(), "{label}");
    assert_eq!(stream.arena(), &eager, "{label}: finished arena diverges");
    open
}

#[test]
fn universal_search_prefixes_match_eager() {
    let horizon = times::rounds_total(4);
    let open = assert_prefix_equivalence(
        "alg4",
        &UniversalSearch,
        CompileOptions::to_horizon(horizon).max_pieces(1 << 16),
    );
    assert!(open >= 2, "alg4: only {open} open prefixes");
}

#[test]
fn wait_and_search_prefixes_match_eager() {
    let horizon = plane_rendezvous::core::completion_time(4);
    let open = assert_prefix_equivalence(
        "alg7",
        &WaitAndSearch,
        CompileOptions::to_horizon(horizon).max_pieces(1 << 16),
    );
    assert!(open >= 2, "alg7: only {open} open prefixes");
}

#[test]
fn warp_drift_stack_prefixes_match_eager() {
    let horizon = times::rounds_total(3);
    let drift = ClockDrift::from_rates(UniversalSearch, &[(10.0, 0.7), (25.0, 1.3)], 0.9);
    let stack = RobotAttributes::new(0.8, 1.25, 1.1, Chirality::Mirrored)
        .frame_warp(drift, Vec2::new(0.4, -0.7));
    let open = assert_prefix_equivalence(
        "warp∘drift",
        &stack,
        CompileOptions::to_horizon(horizon).max_pieces(1 << 16),
    );
    assert!(open >= 2, "warp∘drift: only {open} open prefixes");
}
