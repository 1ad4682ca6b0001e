//! Exact powers of two and dyadic helpers.
//!
//! Every radius, granularity and phase length in the paper is a dyadic
//! rational (`δ_{j,k} = 2^{j−k}`, `ρ_{j,k} = 2^{2j−3k−1}`, …), so building
//! them from exponent bits keeps them **bit-exact** and makes circle
//! counts and indices integer-exact as well. These helpers centralize
//! that discipline. The engines form every integer power of two through
//! [`pow2i`], one on every schedule probe, so it stays off libm.

/// `2^e` for an integer exponent, exact whenever representable.
///
/// For `e ∈ [−1022, 1023]` the result is a normal `f64` whose bits are
/// just the biased exponent `e + 1023` over a zero mantissa, so it is
/// built from those exponent bits without a libm call. Outside that
/// range (subnormal results and overflow to `+∞`) it defers to
/// [`f64::exp2`]. Either way the bits equal `(e as f64).exp2()`'s.
///
/// # Example
///
/// ```
/// use rvz_numerics::pow2i;
/// assert_eq!(pow2i(-3), 0.125);
/// assert_eq!(pow2i(10), 1024.0);
/// ```
#[inline]
pub fn pow2i(e: i64) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        (e as f64).exp2()
    }
}

/// `2^e` for a real exponent (thin wrapper over [`f64::exp2`], named for
/// symmetry with [`pow2i`]).
#[inline]
pub fn pow2(e: f64) -> f64 {
    e.exp2()
}

/// `⌊log₂ x⌋` as an integer, for `x > 0`.
///
/// Exact for all positive finite `f64` including subnormals: uses
/// bit-level exponent extraction, then corrects for the mantissa.
///
/// # Panics
///
/// Panics if `x ≤ 0` or `x` is not finite.
///
/// # Example
///
/// ```
/// use rvz_numerics::floor_log2;
/// assert_eq!(floor_log2(1.0), 0);
/// assert_eq!(floor_log2(0.9999), -1);
/// assert_eq!(floor_log2(1024.0), 10);
/// assert_eq!(floor_log2(1023.0), 9);
/// ```
pub fn floor_log2(x: f64) -> i64 {
    assert!(
        x > 0.0 && x.is_finite(),
        "floor_log2 requires finite x > 0, got {x}"
    );
    // log2 is exact enough to be within 1 of the truth; fix up by direct
    // comparison with exact powers of two.
    let mut e = x.log2().floor() as i64;
    while pow2i(e) > x {
        e -= 1;
    }
    while pow2i(e + 1) <= x {
        e += 1;
    }
    e
}

/// `⌈log₂ x⌉` as an integer, for `x > 0`.
///
/// # Panics
///
/// Panics if `x ≤ 0` or `x` is not finite.
pub fn ceil_log2(x: f64) -> i64 {
    let f = floor_log2(x);
    if pow2i(f) == x {
        f
    } else {
        f + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2i_exactness() {
        assert_eq!(pow2i(0), 1.0);
        assert_eq!(pow2i(-1), 0.5);
        assert_eq!(pow2i(52), 4_503_599_627_370_496.0);
        assert_eq!(pow2i(-1074), f64::from_bits(1)); // smallest subnormal
    }

    #[test]
    fn pow2i_matches_exp2_bit_for_bit() {
        // Across the normal range, both subnormal edges, underflow to
        // zero and overflow to infinity.
        for e in -1100..=1100i64 {
            assert_eq!(pow2i(e).to_bits(), (e as f64).exp2().to_bits(), "2^{e}");
        }
        assert_eq!(pow2i(1023).to_bits(), 0x7FE0_0000_0000_0000);
        assert_eq!(pow2i(-1022), f64::MIN_POSITIVE);
        assert_eq!(pow2i(1024), f64::INFINITY);
    }

    #[test]
    fn pow2_real_exponent() {
        assert!((pow2(0.5) - 2.0_f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn floor_log2_on_exact_powers() {
        for e in -60..60 {
            assert_eq!(floor_log2(pow2i(e)), e, "at 2^{e}");
        }
    }

    #[test]
    fn floor_log2_just_below_and_above_powers() {
        for e in -30..30 {
            let p = pow2i(e);
            let below = p * (1.0 - 1e-12);
            let above = p * (1.0 + 1e-12);
            assert_eq!(floor_log2(below), e - 1, "below 2^{e}");
            assert_eq!(floor_log2(above), e, "above 2^{e}");
        }
    }

    #[test]
    fn floor_log2_subnormals() {
        assert_eq!(floor_log2(f64::from_bits(1)), -1074);
        assert_eq!(floor_log2(f64::MIN_POSITIVE), -1022);
    }

    #[test]
    fn ceil_log2_basics() {
        assert_eq!(ceil_log2(1.0), 0);
        assert_eq!(ceil_log2(1.1), 1);
        assert_eq!(ceil_log2(2.0), 1);
        assert_eq!(ceil_log2(3.0), 2);
        assert_eq!(ceil_log2(0.25), -2);
        assert_eq!(ceil_log2(0.3), -1);
    }

    #[test]
    #[should_panic(expected = "requires finite x > 0")]
    fn floor_log2_rejects_zero() {
        let _ = floor_log2(0.0);
    }

    #[test]
    #[should_panic(expected = "requires finite x > 0")]
    fn floor_log2_rejects_negative() {
        let _ = floor_log2(-1.0);
    }
}
