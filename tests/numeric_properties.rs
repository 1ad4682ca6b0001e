//! Seeded property checks for the numeric substrate every engine runs
//! on: `rvz-geometry` (vectors, 2×2 matrices, angles) and
//! `rvz-numerics` (powers of two and `log₂`).
//!
//! These are the independent oracles for the hot-path shortcuts: the
//! norm axioms, Cauchy–Schwarz and the Lagrange identity hold
//! `Vec2::norm` to its definition, the norm is compared ulp by ulp with
//! `f64::hypot`, the in-house `sin_cos` is held to libm's within
//! `2^-52`, and `floor_log2` is held to its defining inequality
//! through `pow2i` (whose bits `rvz-numerics`' own tests compare with
//! `exp2`'s).
//!
//! Each property draws its cases from its own fixed-seed
//! [`SplitMix64`] stream, so every run checks the same cases. A debug
//! build checks 256 draws per property; a release build checks 10,000
//! (`cargo test --release --test numeric_properties`, which `ci.sh`
//! runs).

use plane_rendezvous::experiments::SplitMix64;
use plane_rendezvous::geometry::{
    angle, normalize_angle, sin_cos, Mat2, Vec2, SIN_COS_REDUCTION_BOUND, TAU,
};
use plane_rendezvous::numerics::{floor_log2, pow2i};

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

fn finite_vec(rng: &mut SplitMix64) -> Vec2 {
    Vec2::new(rng.next_range(-1e6, 1e6), rng.next_range(-1e6, 1e6))
}

fn small_mat(rng: &mut SplitMix64) -> Mat2 {
    let mut entry = || rng.next_range(-10.0, 10.0);
    Mat2::new(entry(), entry(), entry(), entry())
}

/// `±m·10^e` with `m ∈ [1, 10)`.
fn signed_magnitude(rng: &mut SplitMix64, e: f64) -> f64 {
    let sign = if rng.next_below(2) == 0 { 1.0 } else { -1.0 };
    sign * rng.next_range(1.0, 10.0) * 10f64.powf(e)
}

/// Distance in units in the last place between two finite `f64`s of
/// the same sign.
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

// ---------------------------------------------------------------- Vec2

/// `Vec2::norm` is within one ulp of `f64::hypot` on components whose
/// magnitudes span 1e-300 to 1e300: the plain `√(x² + y²)` range, and
/// the overflow and underflow ranges that fall back to `hypot`.
#[test]
fn norm_is_within_one_ulp_of_hypot() {
    let mut plain = 0;
    for_each_draw(0x04E0_EA11, |rng| {
        let ex = rng.next_range(-300.0, 300.0);
        // Half the draws pair comparable magnitudes, half unrelated ones.
        let ey = if rng.next_below(2) == 0 {
            (ex + rng.next_range(-8.0, 8.0)).clamp(-300.0, 300.0)
        } else {
            rng.next_range(-300.0, 300.0)
        };
        let (x, y) = (signed_magnitude(rng, ex), signed_magnitude(rng, ey));
        let v = Vec2::new(x, y);
        if (x * x + y * y).is_normal() {
            plain += 1;
        }
        assert!(
            ulps(v.norm(), x.hypot(y)) <= 1,
            "({x:e}, {y:e}): norm {:e} vs hypot {:e}",
            v.norm(),
            x.hypot(y)
        );
    });
    // Both branches must be exercised.
    assert!(plain * 5 >= cases(), "only {plain} draws on the plain path");
    assert!(plain * 10 <= cases() * 9, "{plain} draws on the plain path");
}

/// Triangle inequality and norm homogeneity.
#[test]
fn vector_norm_axioms() {
    for_each_draw(0xA1, |rng| {
        let (a, b) = (finite_vec(rng), finite_vec(rng));
        let s = rng.next_range(-100.0, 100.0);
        assert!((a + b).norm() <= a.norm() + b.norm() + 1e-6, "{a} {b}");
        let scaled = (a * s).norm();
        assert!(
            (scaled - s.abs() * a.norm()).abs() <= 1e-9 * (1.0 + scaled),
            "{a} · {s}"
        );
    });
}

/// The Cauchy–Schwarz inequality.
#[test]
fn cauchy_schwarz() {
    for_each_draw(0xA2, |rng| {
        let (a, b) = (finite_vec(rng), finite_vec(rng));
        assert!(
            a.dot(b).abs() <= a.norm() * b.norm() * (1.0 + 1e-12) + 1e-12,
            "{a} {b}"
        );
    });
}

/// dot² + cross² = |a|²·|b|² (the Lagrange identity in 2-D), with the
/// squares taken through `norm`.
#[test]
fn lagrange_identity() {
    for_each_draw(0xA3, |rng| {
        let (a, b) = (finite_vec(rng), finite_vec(rng));
        let lhs = a.dot(b).powi(2) + a.cross(b).powi(2);
        let rhs = a.norm_squared() * b.norm_squared();
        assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs), "{a} {b}");
        let via_norm = (a.norm() * b.norm()).powi(2);
        assert!((lhs - via_norm).abs() <= 1e-9 * (1.0 + rhs), "{a} {b}");
    });
}

/// Rotation preserves norms and composes additively.
#[test]
fn rotations_are_isometries() {
    for_each_draw(0xA4, |rng| {
        let v = finite_vec(rng);
        let (t1, t2) = (rng.next_range(0.0, TAU), rng.next_range(0.0, TAU));
        let r = v.rotated(t1);
        assert!(
            (r.norm() - v.norm()).abs() <= 1e-9 * (1.0 + v.norm()),
            "{v} {t1}"
        );
        let composed = v.rotated(t1).rotated(t2);
        let direct = v.rotated(t1 + t2);
        assert!(
            composed.distance(direct) <= 1e-7 * (1.0 + v.norm()),
            "{v} {t1} {t2}"
        );
    });
}

/// `perp` is the quarter turn: orthogonal to `v` and just as long.
#[test]
fn perp_properties() {
    for_each_draw(0xA5, |rng| {
        let v = finite_vec(rng);
        assert!(
            v.perp().dot(v).abs() <= 1e-9 * (1.0 + v.norm_squared()),
            "{v}"
        );
        assert!(
            (v.perp().norm() - v.norm()).abs() <= 1e-9 * (1.0 + v.norm()),
            "{v}"
        );
        assert!(v.cross(v.perp()) >= 0.0, "{v}");
    });
}

/// The in-house `sin_cos` against libm's: within `2^-52` absolute and
/// exactly odd/even on `|x| ≤ 64`, on arguments a few ulps from a
/// multiple of `π/2`, and on the reduced range's edge; bit-equal to libm
/// from the fallback bound on, and on NaN and ±∞.
///
/// Near a multiple of `π/2` the reduction cancels, and one of the pair
/// is tiny: there it must also be within 2 ulps of libm's value. The
/// pinned arguments are the doubles below `2^19·π/2` closest to a
/// multiple of `π/2` relative to their size (`|x − k·π/2|` down to
/// `1.4e-22·x`, found by an exhaustive search over `k` against 260
/// digits of `π`). On them the tiny one must equal libm's correctly
/// rounded value: without the reduction's third part it is an ulp off.
#[test]
fn sin_cos_tracks_libm() {
    use std::f64::consts::FRAC_PI_2;
    const HARDEST: [u64; 6] = [
        0x4113_9c6f_d678_05a7, // k = 204551
        0x4123_9c6f_d678_05a7, // k = 409102
        0x4119_3c05_c9ed_3cbc, // k = 263205
        0x411e_db9b_bd62_73d1, // k = 321859
        0x410b_f9b3_c605_9d24, // k = 145897
        0x40f6_5a1d_d290_660f, // k = 58285
    ];
    let check = |x: f64| {
        let (s, c) = sin_cos(x);
        let (ls, lc) = x.sin_cos();
        assert!(
            (s - ls).abs() <= f64::EPSILON && (c - lc).abs() <= f64::EPSILON,
            "sin_cos({x:e}) = ({s:e}, {c:e}), libm ({ls:e}, {lc:e})"
        );
        let (ns, nc) = sin_cos(-x);
        assert_eq!(
            (ns.to_bits(), nc.to_bits()),
            ((-s).to_bits(), c.to_bits()),
            "sin_cos(-{x:e}) is not (-s, c)"
        );
    };
    let near_multiple = |x: f64, max_ulps: u64| {
        check(x);
        let ((s, c), (ls, lc)) = (sin_cos(x), x.sin_cos());
        let (tiny, exact) = if ls.abs() < lc.abs() {
            (s, ls)
        } else {
            (c, lc)
        };
        assert!(
            tiny.signum() == exact.signum() && ulps(tiny.abs(), exact.abs()) <= max_ulps,
            "sin_cos({x:e}) cancels to {tiny:e}, libm {exact:e}"
        );
    };
    let same_bits = |x: f64| {
        let ((s, c), (ls, lc)) = (sin_cos(x), x.sin_cos());
        assert_eq!(
            (s.to_bits(), c.to_bits()),
            (ls.to_bits(), lc.to_bits()),
            "{x:e}"
        );
    };
    for_each_draw(0x51_4C05, |rng| {
        check(rng.next_range(-64.0, 64.0));
        // A few ulps off k·π/2, up to the largest quotient reduced here.
        let k = if rng.next_below(2) == 0 {
            rng.next_below(64)
        } else {
            rng.next_below(1 << 19)
        } as f64;
        let near = (k * FRAC_PI_2).max(f64::MIN_POSITIVE);
        let ulps = rng.next_range(-8.0, 8.0).round() as i64;
        let x = f64::from_bits(near.to_bits().wrapping_add_signed(ulps));
        if x < SIN_COS_REDUCTION_BOUND {
            near_multiple(x, 2);
        }
        check(rng.next_range(0.5, 1.0) * SIN_COS_REDUCTION_BOUND);
        same_bits(SIN_COS_REDUCTION_BOUND * rng.next_range(1.0, 1e6));
        same_bits(-SIN_COS_REDUCTION_BOUND * rng.next_range(1.0, 1e6));
    });
    for bits in HARDEST {
        near_multiple(f64::from_bits(bits), 0);
    }
    same_bits(SIN_COS_REDUCTION_BOUND);
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        same_bits(x);
    }
}

// ---------------------------------------------------------------- Mat2

/// Matrix multiplication is associative and the determinant is
/// multiplicative.
#[test]
fn matrix_algebra() {
    for_each_draw(0xB1, |rng| {
        let (m, n, p) = (small_mat(rng), small_mat(rng), small_mat(rng));
        let left = (m * n) * p;
        let right = m * (n * p);
        assert!((left - right).frobenius_norm() <= 1e-6, "{m:?} {n:?} {p:?}");
        let det_prod = (m * n).det();
        assert!(
            (det_prod - m.det() * n.det()).abs() <= 1e-6 * (1.0 + det_prod.abs()),
            "{m:?} {n:?}"
        );
    });
}

/// The inverse, where it exists, really inverts.
#[test]
fn inverse_roundtrip() {
    let mut checked = 0;
    for_each_draw(0xB2, |rng| {
        let m = small_mat(rng);
        if m.det().abs() <= 1e-3 {
            return;
        }
        let inv = m.inverse().expect("nonsingular");
        assert!((m * inv - Mat2::IDENTITY).frobenius_norm() <= 1e-6, "{m:?}");
        checked += 1;
    });
    assert!(
        checked * 10 >= cases() * 9,
        "only {checked} inverses checked"
    );
}

/// QR: `Q` is a proper rotation, `R` is upper triangular with a
/// non-negative leading entry, and `Q·R` reconstructs the matrix.
#[test]
fn qr_factorization_properties() {
    for_each_draw(0xB3, |rng| {
        let m = small_mat(rng);
        let f = m.qr();
        assert!(f.q.is_orthogonal(1e-9), "{m:?}");
        assert!((f.q.det() - 1.0).abs() <= 1e-9, "{m:?}");
        assert_eq!(f.r.c, 0.0, "{m:?}");
        assert!(f.r.a >= 0.0, "{m:?}");
        assert!(
            ((f.q * f.r) - m).frobenius_norm() <= 1e-7 * (1.0 + m.frobenius_norm()),
            "{m:?}"
        );
    });
}

/// The operator norm bounds `|Mv|/|v|` and is attained within 1%.
#[test]
fn operator_norm_is_tight_bound() {
    for_each_draw(0xB4, |rng| {
        let m = small_mat(rng);
        let bound = m.operator_norm();
        let mut attained: f64 = 0.0;
        let mut theta = 0.0;
        while theta < TAU {
            let len = (m * Vec2::from_polar(1.0, theta)).norm();
            assert!(len <= bound * (1.0 + 1e-9) + 1e-12, "{m:?} at {theta}");
            attained = attained.max(len);
            theta += 0.01;
        }
        assert!(attained >= bound * 0.99, "{m:?}: {attained} vs {bound}");
    });
}

// -------------------------------------------------------------- angles

/// `normalize_angle` lands in `[0, 2π)` and preserves the angle mod 2π.
#[test]
fn angle_normalization() {
    for_each_draw(0xC1, |rng| {
        let a = rng.next_range(-1e4, 1e4);
        let n = normalize_angle(a);
        assert!((0.0..TAU).contains(&n), "{a} → {n}");
        assert!((n.sin() - a.sin()).abs() < 1e-7, "{a} → {n}");
        assert!((n.cos() - a.cos()).abs() < 1e-7, "{a} → {n}");
    });
}

/// Angular distance is a metric on the circle: symmetric, at most π and
/// obeying the triangle inequality.
#[test]
fn angular_distance_metric() {
    for_each_draw(0xC2, |rng| {
        let (a, b, c) = (
            rng.next_range(0.0, TAU),
            rng.next_range(0.0, TAU),
            rng.next_range(0.0, TAU),
        );
        let dab = angle::angular_distance(a, b);
        assert!(
            (dab - angle::angular_distance(b, a)).abs() < 1e-9,
            "{a} {b}"
        );
        assert!(dab <= std::f64::consts::PI + 1e-12, "{a} {b}");
        let via_c = angle::angular_distance(a, c) + angle::angular_distance(c, b);
        assert!(dab <= via_c + 1e-9, "{a} {b} {c}");
    });
}

// ------------------------------------------------------------ numerics

/// `floor_log2` is exactly `⌊log₂ x⌋`: `2^f ≤ x < 2^{f+1}`, over the
/// whole positive range including subnormals.
#[test]
fn floor_log2_definition() {
    for_each_draw(0xD1, |rng| {
        let e = -1074 + rng.next_below(2098) as i64;
        let x = rng.next_range(1.0, 2.0) * pow2i(e);
        let f = floor_log2(x);
        assert!(pow2i(f) <= x && pow2i(f + 1) > x, "x = {x:e}, f = {f}");
    });
}
