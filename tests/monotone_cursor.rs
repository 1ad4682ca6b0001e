//! The monotone-cursor contract, property-tested for every
//! `MonotoneTrajectory` implementation in the workspace.
//!
//! Three properties from the contract (see `rvz_trajectory::monotone`):
//!
//! 1. **Agreement** — a cursor probed over a dense non-decreasing time
//!    grid returns the same positions as random-access
//!    `Trajectory::position`;
//! 2. **Piece validity** — on a reported affine piece, linear
//!    extrapolation from the probe reproduces the trajectory exactly up
//!    to the reported `piece_end`; on a circular piece the reported
//!    circle-and-phase law does;
//! 3. **Envelope soundness** — `envelope(t0, t1)` returns a disk
//!    containing `position(t)` for densely sampled `t ∈ [t0, t1]`, for
//!    every implementation including composed `FrameWarp`∘`ClockDrift`
//!    stacks.
//!
//! Grids are seeded and jittered (SplitMix64, no external deps) so the
//! probes do not align with segment boundaries by construction.

use plane_rendezvous::experiments::SplitMix64;
use plane_rendezvous::prelude::*;
use plane_rendezvous::trajectory::monotone::Motion;
use plane_rendezvous::trajectory::{ClockDrift, FnTrajectory};
use rvz_oracles::ArchimedeanSpiral;

/// Probes `trajectory` over a jittered grid of `n` times in
/// `[0, horizon]`, checking agreement and affine-piece validity.
fn check_cursor<T: MonotoneTrajectory>(trajectory: &T, horizon: f64, n: u32, seed: u64, tol: f64) {
    let mut rng = SplitMix64::new(seed);
    let mut cursor = trajectory.cursor();
    let mut t = 0.0_f64;
    for _ in 0..=n {
        let probe = cursor.probe(t);
        let direct = trajectory.position(t);
        assert!(
            probe.position.distance(direct) <= tol,
            "cursor/random-access mismatch at t={t}: {} vs {direct}",
            probe.position,
        );
        assert!(
            probe.piece_end > t || probe.piece_end == f64::INFINITY,
            "stale piece_end {} at t={t}",
            probe.piece_end
        );
        // Validate the motion-law claim at a point strictly inside the
        // piece (random-access evaluated, so this is an independent
        // check of the closed form).
        let span = (probe.piece_end.min(horizon * 2.0) - t).min(horizon / n as f64);
        match probe.motion {
            Motion::Affine { velocity } if span > 0.0 => {
                let u = t + rng.next_range(0.0, span);
                let extrapolated = probe.position + velocity * (u - t);
                let actual = trajectory.position(u);
                assert!(
                    extrapolated.distance(actual) <= tol,
                    "affine piece violated at t={t}, u={u}: {extrapolated} vs {actual}"
                );
            }
            Motion::Circular {
                center,
                radius,
                angular_velocity,
                angle,
            } if span > 0.0 => {
                let u = t + rng.next_range(0.0, span);
                let extrapolated =
                    center + Vec2::from_polar(radius, angle + angular_velocity * (u - t));
                let actual = trajectory.position(u);
                assert!(
                    extrapolated.distance(actual) <= tol.max(1e-9),
                    "circular piece violated at t={t}, u={u}: {extrapolated} vs {actual}"
                );
            }
            _ => {}
        }
        // Jittered stride; occasionally repeat the same time (allowed).
        if rng.next_f64() > 0.05 {
            t += rng.next_range(0.0, 2.0 * horizon / n as f64);
        }
    }
}

#[test]
fn path_cursor_agrees() {
    let path = PathBuilder::at(Vec2::ZERO)
        .line_to(Vec2::new(1.0, 0.0))
        .full_circle(Vec2::ZERO)
        .wait(0.7)
        .line_to(Vec2::new(-2.0, 1.5))
        .arc_around(Vec2::ZERO, -1.3)
        .build();
    check_cursor(&path, path.duration() + 2.0, 1500, 0xA11CE, 1e-12);
}

#[test]
fn fn_trajectory_cursor_agrees() {
    let infinite = FnTrajectory::new(|t| Vec2::new(t.cos() * 2.0, (0.7 * t).sin()), 2.0);
    check_cursor(&infinite, 40.0, 800, 1, 1e-12);
    let finite = FnTrajectory::with_duration(|t| Vec2::new(t, -t * 0.5), 1.2, 6.0);
    check_cursor(&finite, 12.0, 800, 2, 1e-12);
}

#[test]
fn stationary_cursor_agrees() {
    check_cursor(&Stationary::new(Vec2::new(3.0, -4.0)), 100.0, 200, 3, 0.0);
}

#[test]
fn frame_warp_cursor_agrees() {
    let inner = PathBuilder::at(Vec2::ZERO)
        .line_to(Vec2::new(2.0, 0.0))
        .full_circle(Vec2::new(1.0, 0.0))
        .wait(1.0)
        .build();
    let warp = FrameWarp::new(
        inner,
        Mat2::rotation(0.9) * Mat2::scaling(1.7),
        Vec2::new(-1.0, 2.0),
        0.6,
    );
    check_cursor(&warp, warp.duration().unwrap() + 1.0, 1200, 4, 1e-12);
}

#[test]
fn clock_drift_cursor_agrees() {
    let inner = PathBuilder::at(Vec2::ZERO)
        .line_to(Vec2::new(4.0, 0.0))
        .wait(2.0)
        .line_to(Vec2::new(4.0, 4.0))
        .build();
    let drift = ClockDrift::from_rates(inner, &[(2.5, 0.4), (3.0, 1.6), (1.0, 0.9)], 1.1);
    check_cursor(&drift, 18.0, 1200, 5, 1e-9);
}

#[test]
fn nested_warp_drift_cursor_agrees() {
    // The full Lemma 4 stack over a drifting clock over Algorithm 7 —
    // the deepest composition the simulator actually runs.
    let attrs = RobotAttributes::reference()
        .with_speed(0.7)
        .with_orientation(1.1);
    let warped = attrs.frame_warp(WaitAndSearch, Vec2::new(0.3, 0.8));
    let drifted = ClockDrift::from_rates(warped, &[(50.0, 0.8), (75.0, 1.3)], 1.0);
    check_cursor(&drifted, 400.0, 2500, 6, 1e-9);
}

#[test]
fn universal_search_cursor_agrees() {
    use plane_rendezvous::search::times;
    check_cursor(&UniversalSearch, times::rounds_total(3), 3000, 7, 1e-9);
}

#[test]
fn wait_and_search_cursor_agrees() {
    check_cursor(&WaitAndSearch, PhaseSchedule::round_end(3), 3000, 8, 1e-9);
}

#[test]
fn spiral_cursor_agrees() {
    check_cursor(&ArchimedeanSpiral::with_pitch(0.3), 300.0, 1500, 9, 1e-9);
}

#[test]
fn warped_algorithm7_cursor_agrees() {
    // Mirrored chirality and a slow clock: the warp every sweep scenario
    // actually builds.
    let attrs = RobotAttributes::new(0.5, 1.5, 2.2, Chirality::Mirrored);
    let warped = attrs.frame_warp(WaitAndSearch, Vec2::new(-0.4, 0.9));
    check_cursor(&warped, PhaseSchedule::round_end(2) * 1.5, 2500, 10, 1e-9);
}

/// Issues `windows` envelope queries with non-decreasing starts over one
/// cursor, checking that every returned disk contains the trajectory's
/// position at dense samples of its interval (allowing `slack` of
/// floating-point leakage).
fn check_envelope<T: MonotoneTrajectory>(
    trajectory: &T,
    horizon: f64,
    windows: u32,
    seed: u64,
    slack: f64,
) {
    let mut rng = SplitMix64::new(seed);
    let mut cursor = trajectory.cursor();
    let mut t0 = 0.0_f64;
    for _ in 0..windows {
        let span = rng.next_range(0.0, 3.0 * horizon / windows as f64);
        let t1 = t0 + span;
        let disk = cursor.envelope(t0, t1);
        for i in 0..=25 {
            let t = t0 + span * i as f64 / 25.0;
            let p = trajectory.position(t);
            assert!(
                disk.contains(p, slack),
                "envelope [{t0}, {t1}] (= {disk}) misses position {p} at t={t}"
            );
        }
        // Starts are non-decreasing but may repeat, and windows overlap.
        if rng.next_f64() > 0.1 {
            t0 += rng.next_range(0.0, 2.0 * horizon / windows as f64);
        }
    }
    // The cursor still probes correctly after a train of envelope
    // queries (envelopes must not corrupt the forward state).
    let probe = cursor.probe(t0 + horizon);
    assert!(
        probe.position.distance(trajectory.position(t0 + horizon)) <= 1e-9,
        "probe after envelope queries diverged"
    );
}

#[test]
fn path_envelope_is_sound() {
    let path = PathBuilder::at(Vec2::ZERO)
        .line_to(Vec2::new(1.0, 0.0))
        .full_circle(Vec2::ZERO)
        .wait(0.7)
        .line_to(Vec2::new(-2.0, 1.5))
        .arc_around(Vec2::ZERO, -1.3)
        .build();
    check_envelope(&path, path.duration() + 2.0, 300, 0xE57, 1e-9);
}

#[test]
fn fn_trajectory_envelope_falls_back_soundly() {
    // Velocity is (−2·sin t, 0.7·cos 0.7t), so the tight speed bound is
    // √(2² + 0.7²) — the envelope fallback leans on it, unlike probes.
    let bound = (4.0_f64 + 0.49).sqrt();
    let infinite = FnTrajectory::new(|t| Vec2::new(t.cos() * 2.0, (0.7 * t).sin()), bound);
    check_envelope(&infinite, 40.0, 250, 0xE58, 1e-9);
}

#[test]
fn stationary_envelope_is_a_point() {
    let s = Stationary::new(Vec2::new(3.0, -4.0));
    check_envelope(&s, 100.0, 100, 0xE59, 0.0);
    let mut c = s.cursor();
    assert_eq!(c.envelope(0.0, 1e12).radius, 0.0);
}

#[test]
fn universal_search_envelope_is_sound() {
    use plane_rendezvous::search::times;
    check_envelope(&UniversalSearch, times::rounds_total(3), 400, 0xE5A, 1e-9);
}

#[test]
fn wait_and_search_envelope_is_sound() {
    check_envelope(
        &WaitAndSearch,
        PhaseSchedule::round_end(3),
        400,
        0xE5B,
        1e-9,
    );
}

#[test]
fn frame_warp_envelope_is_sound() {
    // Mirrored chirality and a slow clock over Algorithm 7 — the warp
    // every sweep scenario actually builds, envelope mapped through the
    // affine stack.
    let attrs = RobotAttributes::new(0.5, 1.5, 2.2, Chirality::Mirrored);
    let warped = attrs.frame_warp(WaitAndSearch, Vec2::new(-0.4, 0.9));
    check_envelope(&warped, PhaseSchedule::round_end(2) * 1.5, 400, 0xE5C, 1e-9);
}

#[test]
fn warp_drift_stack_envelope_is_sound() {
    // The deepest composition the simulator runs: FrameWarp ∘ ClockDrift
    // ∘ Algorithm 7, with the envelope threaded through both wrappers.
    let attrs = RobotAttributes::reference()
        .with_speed(0.7)
        .with_orientation(1.1);
    let warped = attrs.frame_warp(WaitAndSearch, Vec2::new(0.3, 0.8));
    let drifted = ClockDrift::from_rates(warped, &[(50.0, 0.8), (75.0, 1.3)], 1.0);
    check_envelope(&drifted, 400.0, 350, 0xE5D, 1e-9);
}

#[test]
fn spiral_envelope_falls_back_soundly() {
    check_envelope(&ArchimedeanSpiral::with_pitch(0.3), 300.0, 250, 0xE5E, 1e-9);
}
