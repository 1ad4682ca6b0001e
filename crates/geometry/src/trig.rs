//! `sin_cos` without libm on the arc path.
//!
//! Every arc position the engine probes is `c + R·(cos θ, sin θ)`, so
//! trigonometry sits on the per-step path of every schedule. This is
//! fdlibm's `sincos` for arguments the schedules produce: a Cody–Waite
//! reduction by `π/2` in up to three parts (`__ieee754_rem_pio2`'s
//! medium case), then the `__kernel_sin`/`__kernel_cos` polynomials on
//! the reduced argument. The result is within an ulp of the exact
//! value; it may differ from the platform libm in the last bit.
//!
//! Arguments with `|x| ≥ 2^19·π/2`, NaN and ±∞ go to libm's
//! [`f64::sin_cos`], whose Payne–Hanek reduction covers the whole range.
//!
//! The reduction constants and the kernel coefficients are fdlibm's:
//!
//! ```text
//! ====================================================
//! Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//! Developed at SunPro, a Sun Microsystems, Inc. business.
//! Permission to use, copy, modify, and distribute this
//! software is freely granted, provided that this notice
//! is preserved.
//! ====================================================
//! ```

/// Arguments at or above this magnitude (`2^19·π/2`) fall back to libm:
/// below it the quotient `n < 2^19` times each 33-bit part of `π/2` is
/// exact.
pub const SIN_COS_REDUCTION_BOUND: f64 = 524_288.0 * std::f64::consts::FRAC_PI_2;

/// `π/4`: arguments up to it need no reduction.
const PIO4: f64 = std::f64::consts::FRAC_PI_4;
/// `1.5·2^52`: adding and subtracting it rounds to the nearest integer.
const TOINT: f64 = 6_755_399_441_055_744.0;
/// `2/π`.
const INVPIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883); // 6.36619772367581382433e-1
/// First 33 bits of `π/2`.
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000); // 1.57079632673412561417
/// `π/2 − PIO2_1`.
const PIO2_1T: f64 = f64::from_bits(0x3DD0_B461_1A62_6331); // 6.07710050650619224932e-11
/// Second 33 bits of `π/2`.
const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000); // 6.07710050630396597660e-11
/// `π/2 − (PIO2_1 + PIO2_2)`.
const PIO2_2T: f64 = f64::from_bits(0x3BA3_198A_2E03_7073); // 2.02226624879595063154e-21
/// Third 33 bits of `π/2`.
const PIO2_3: f64 = f64::from_bits(0x3BA3_198A_2E00_0000); // 2.02226624871116645580e-21
/// `π/2 − (PIO2_1 + PIO2_2 + PIO2_3)`.
const PIO2_3T: f64 = f64::from_bits(0x397B_839A_2520_49C1); // 8.47842766036889956997e-32

const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549); // -1.66666666666666324348e-1
const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6); // 8.33333333332248946124e-3
const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5); // -1.98412698298579493134e-4
const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D); // 2.75573137070700676789e-6
const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB); // -2.50507602534068634195e-8
const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C); // 1.58969099521155010221e-10

const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C); // 4.16666666666666019037e-2
const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177); // -1.38888888888741095749e-3
const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590); // 2.48015872894767294178e-5
const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD); // -2.75573143513906633035e-7
const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4); // 2.08757232129817482790e-9
const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4); // -1.13596475577881948265e-11

/// `(sin x, cos x)`.
///
/// Odd and even exactly: `sin_cos(−x) == (−s, c)` bit for bit. Within
/// an ulp of the exact values for `|x| < 2^19·π/2`; libm's
/// [`f64::sin_cos`] beyond that bound and on NaN and ±∞.
///
/// ```
/// use rvz_geometry::sin_cos;
/// let (s, c) = sin_cos(std::f64::consts::FRAC_PI_6);
/// assert!((s - 0.5).abs() < 1e-16 && (c - 0.75f64.sqrt()).abs() < 1e-16);
/// ```
#[inline]
pub fn sin_cos(x: f64) -> (f64, f64) {
    let ax = x.abs();
    if ax <= PIO4 {
        return (kernel_sin(x, 0.0), kernel_cos(x, 0.0));
    }
    if ax.is_nan() || ax >= SIN_COS_REDUCTION_BOUND {
        return x.sin_cos();
    }
    let (quadrant, y0, y1) = rem_pio2(x);
    let (s, c) = (kernel_sin(y0, y1), kernel_cos(y0, y1));
    match quadrant {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

/// `x = n·π/2 + y0 + y1` with `|y0 + y1| ≲ π/4`: the quadrant `n mod 4`
/// and the reduced argument as a head and a tail. fdlibm's medium-range
/// Cody–Waite reduction: the first part of `π/2` leaves 85 good bits,
/// and when the reduced argument has cancelled more than 16 (then 49)
/// bits against `x`, a second (third) part refines it.
#[inline]
fn rem_pio2(x: f64) -> (u64, f64, f64) {
    let biased_exponent = |v: f64| (v.to_bits() >> 52) & 0x7ff;
    // Round to nearest: `t`'s low mantissa bits hold `n mod 4`.
    let t = x * INVPIO2 + TOINT;
    let n = t - TOINT;
    let quadrant = t.to_bits() & 3;
    let mut r = x - n * PIO2_1;
    let mut w = n * PIO2_1T;
    let mut y0 = r - w;
    let ex = biased_exponent(x);
    if ex.saturating_sub(biased_exponent(y0)) > 16 {
        let t = r;
        w = n * PIO2_2;
        r = t - w;
        w = n * PIO2_2T - ((t - r) - w);
        y0 = r - w;
        if ex.saturating_sub(biased_exponent(y0)) > 49 {
            let t = r;
            w = n * PIO2_3;
            r = t - w;
            w = n * PIO2_3T - ((t - r) - w);
            y0 = r - w;
        }
    }
    (quadrant, y0, (r - y0) - w)
}

/// `sin(x + y)` for `|x + y| ≲ π/4`, `y` a tail below half an ulp of `x`.
#[inline]
fn kernel_sin(x: f64, y: f64) -> f64 {
    let z = x * x;
    let v = z * x;
    let r = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// `cos(x + y)` for `|x + y| ≲ π/4`, `y` a tail below half an ulp of `x`.
#[inline]
fn kernel_cos(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_anchors() {
        use std::f64::consts::{FRAC_PI_2, PI};
        for (x, s, c) in [
            (0.0, 0.0, 1.0),
            (FRAC_PI_2, 1.0, 0.0),
            (PI, 0.0, -1.0),
            (1.5 * PI, -1.0, 0.0),
            (2.0 * PI, 0.0, 1.0),
        ] {
            let (ss, cc) = sin_cos(x);
            assert!((ss - s).abs() < 1e-15 && (cc - c).abs() < 1e-15, "{x}");
        }
    }

    #[test]
    fn signed_zero_and_specials() {
        assert_eq!(sin_cos(-0.0).0.to_bits(), (-0.0f64).to_bits());
        assert!(sin_cos(f64::NAN).0.is_nan() && sin_cos(f64::INFINITY).1.is_nan());
    }
}
