//! Seeded property checks for `rvz-trajectory`: the `Trajectory`
//! contract on random paths — additive durations, the unit speed bound,
//! continuity, and agreement between random access through `Path` and
//! the sequential `StreamCursor` — and the algebra of `FrameWarp`.
//!
//! Each property draws its cases from its own fixed-seed
//! [`SplitMix64`] stream, so every run checks the same cases. A random
//! path is 1 to 11 steps, each a line, an arc or a wait. A debug build
//! checks 256 draws per property; a release build checks 10,000
//! (`cargo test --release --test trajectory_properties`, which `ci.sh`
//! runs).

use plane_rendezvous::experiments::SplitMix64;
use plane_rendezvous::geometry::{Mat2, Vec2, TAU};
use plane_rendezvous::trajectory::{
    FrameWarp, Path, PathBuilder, Segment, StreamCursor, Trajectory,
};

/// Draws per property: a sample in debug, the full set in release.
fn cases() -> usize {
    if cfg!(debug_assertions) {
        256
    } else {
        10_000
    }
}

/// Runs `check` on `cases()` draws from the stream seeded with `seed`.
fn for_each_draw(seed: u64, mut check: impl FnMut(&mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..cases() {
        check(&mut rng);
    }
}

/// A path from `start` of `1..max_steps` random steps: a line to a point
/// in [−5, 5)², an arc of radius [0.05, 3) sweeping [−6, 6) rad about a
/// centre to the left of the current point, or a wait of [0, 4).
fn random_path(rng: &mut SplitMix64, start: Vec2, max_steps: usize) -> Path {
    let steps = 1 + rng.next_below(max_steps - 1);
    let mut b = PathBuilder::at(start);
    for _ in 0..steps {
        b = match rng.next_below(3) {
            0 => b.line_to(Vec2::new(
                rng.next_range(-5.0, 5.0),
                rng.next_range(-5.0, 5.0),
            )),
            1 => {
                let radius = rng.next_range(0.05, 3.0);
                let sweep = rng.next_range(-6.0, 6.0);
                let center = b.current_position() - Vec2::new(radius, 0.0);
                b.arc_around(center, sweep)
            }
            _ => b.wait(rng.next_range(0.0, 4.0)),
        };
    }
    b.build()
}

/// `n` sorted sample times in `[0, span)`, `n` drawn from `lo..hi`.
fn sorted_times(rng: &mut SplitMix64, lo: usize, hi: usize, span: f64) -> Vec<f64> {
    let n = lo + rng.next_below(hi - lo);
    let mut times: Vec<f64> = (0..n).map(|_| rng.next_f64() * span).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// A path's duration is the sum of its segments' durations.
#[test]
fn duration_is_additive() {
    for_each_draw(0x7A_0001, |rng| {
        let start = Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0));
        let p = random_path(rng, start, 12);
        let sum: f64 = p.segments().iter().map(Segment::duration).sum();
        assert!(
            (p.duration() - sum).abs() <= 1e-9 * (1.0 + sum),
            "{} vs {sum}",
            p.duration()
        );
    });
}

/// Paths never exceed unit speed: |S(t₂) − S(t₁)| ≤ t₂ − t₁.
#[test]
fn unit_speed_bound_holds() {
    for_each_draw(0x7A_0002, |rng| {
        let p = random_path(rng, Vec2::ZERO, 10);
        let times = sorted_times(rng, 2, 20, p.duration());
        for w in times.windows(2) {
            let (t1, t2) = (w[0], w[1]);
            let dist = p.position(t1).distance(p.position(t2));
            assert!(dist <= (t2 - t1) + 1e-7, "moved {dist} in {}", t2 - t1);
        }
    });
}

/// Paths are continuous at every segment boundary.
#[test]
fn continuous_at_boundaries() {
    for_each_draw(0x7A_0003, |rng| {
        let p = random_path(rng, Vec2::ZERO, 10);
        for i in 0..p.len() {
            let t = p.segment_start_time(i);
            if t == 0.0 {
                continue;
            }
            let before = p.position((t - 1e-9).max(0.0));
            let at = p.position(t);
            assert!(before.distance(at) < 1e-7, "jump at boundary {i}");
        }
    });
}

/// Random access through `Path` agrees with the sequential
/// `StreamCursor`, past the path's end too.
#[test]
fn path_matches_cursor() {
    for_each_draw(0x7A_0004, |rng| {
        let p = random_path(rng, Vec2::ZERO, 10);
        let times = sorted_times(rng, 1, 30, 1.2 * p.duration());
        let mut cursor = StreamCursor::new(p.segments().iter().copied());
        for t in times {
            let (a, b) = (p.position(t), cursor.position(t));
            assert!(a.distance(b) < 1e-9, "t = {t}: {a} vs {b}");
        }
    });
}

/// A random linear map: a rotation by [0, 2π) times a scaling by
/// [0.1, 3).
fn rotation_scaling(rng: &mut SplitMix64) -> Mat2 {
    Mat2::rotation(rng.next_range(0.0, TAU)) * Mat2::scaling(rng.next_range(0.1, 3.0))
}

/// `FrameWarp` evaluates exactly `translation + linear·inner(t/σ)`.
#[test]
fn warp_formula() {
    for_each_draw(0x7A_0005, |rng| {
        let p = random_path(rng, Vec2::ZERO, 6);
        let t = rng.next_range(0.0, 50.0);
        let m = rotation_scaling(rng);
        let b = Vec2::new(rng.next_range(-4.0, 4.0), rng.next_range(-4.0, 4.0));
        let sigma = rng.next_range(0.2, 4.0);
        let expected = b + m * p.position(t / sigma);
        let w = FrameWarp::new(p, m, b, sigma);
        assert!(
            w.position(t).distance(expected) < 1e-9,
            "t = {t}: {} vs {expected}",
            w.position(t)
        );
    });
}

/// A warp's declared speed bound bounds its observed speeds.
#[test]
fn warp_speed_bound_holds() {
    for_each_draw(0x7A_0006, |rng| {
        let p = random_path(rng, Vec2::ZERO, 6);
        let m = rotation_scaling(rng);
        let sigma = rng.next_range(0.2, 4.0);
        let w = FrameWarp::new(p, m, Vec2::ZERO, sigma);
        let bound = w.speed_bound();
        let times = sorted_times(rng, 2, 12, w.duration().unwrap_or(10.0));
        for pair in times.windows(2) {
            let (t1, t2) = (pair[0], pair[1]);
            if t2 - t1 < 1e-12 {
                continue;
            }
            let dist = w.position(t1).distance(w.position(t2));
            assert!(
                dist <= bound * (t2 - t1) + 1e-7,
                "moved {dist} in {} under bound {bound}",
                t2 - t1
            );
        }
    });
}
