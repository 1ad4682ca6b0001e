//! Closed disks — the currency of swept-envelope pruning.
//!
//! The simulator's coarse-to-fine contact engine reasons about *sets* of
//! positions: "robot A stays inside this disk for the whole interval
//! `[t₀, t₁]`". A [`Disk`] is that certificate. The only operation the
//! engine needs is [`Disk::gap`] — the distance between two disks as
//! point sets — because `gap > radius` proves the two robots cannot come
//! within `radius` of each other while both certificates hold.
//!
//! Disks are deliberately permissive: a radius of `∞` is a valid
//! (useless) certificate whose gap to anything is `−∞`, so sound
//! fallbacks degrade gracefully instead of erroring.

use crate::vec2::Vec2;
use std::fmt;

/// A closed disk `{p : |p − center| ≤ radius}`.
///
/// # Example
///
/// ```
/// use rvz_geometry::{Disk, Vec2};
///
/// let a = Disk::new(Vec2::ZERO, 1.0);
/// let b = Disk::new(Vec2::new(5.0, 0.0), 2.0);
/// assert_eq!(a.gap(&b), 2.0); // 5 − 1 − 2
/// assert!(a.contains(Vec2::new(0.6, 0.6), 1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disk {
    /// Center of the disk.
    pub center: Vec2,
    /// Radius (≥ 0; `∞` is allowed and means "no information").
    pub radius: f64,
}

impl Disk {
    /// Creates a disk.
    ///
    /// Debug builds assert that `center` is finite and `radius` is
    /// non-negative (`∞` is allowed); release builds accept the values
    /// unchecked — this sits on the contact engine's hot path.
    pub fn new(center: Vec2, radius: f64) -> Self {
        debug_assert!(center.is_finite(), "disk center must be finite");
        debug_assert!(radius >= 0.0, "disk radius must be >= 0, got {radius}");
        Disk { center, radius }
    }

    /// The degenerate disk holding a single point.
    pub fn point(center: Vec2) -> Self {
        Disk::new(center, 0.0)
    }

    /// The distance between the two disks as point sets:
    /// `|c₁ − c₂| − r₁ − r₂`.
    ///
    /// Negative when the disks overlap; `−∞` when either radius is `∞`.
    /// This is the separation certificate the contact engine tests
    /// against `radius + tolerance`.
    #[inline]
    pub fn gap(&self, other: &Disk) -> f64 {
        self.center.distance(other.center) - self.radius - other.radius
    }

    /// `true` when `p` lies inside the disk, allowing `slack` of
    /// floating-point leakage.
    pub fn contains(&self, p: Vec2, slack: f64) -> bool {
        self.center.distance(p) <= self.radius + slack
    }

    /// The smallest disk containing the straight segment from `a` to `b`.
    pub fn spanning(a: Vec2, b: Vec2) -> Disk {
        Disk::new(a.lerp(b, 0.5), 0.5 * a.distance(b))
    }

    /// A tight disk containing the circular-arc chunk of `radius` around
    /// `center` from `start_angle` through the signed angle `sweep`.
    ///
    /// For sweeps under a half turn this is the chord-midpoint disk of
    /// radius `R·sin(|sweep|/2)` (the endpoints attain the bound);
    /// beyond a half turn — or for a non-finite sweep — the full
    /// circle's disk is the smallest sound answer. Shared by the
    /// segment-level and motion-level swept envelopes.
    pub fn arc_chunk(center: Vec2, radius: f64, start_angle: f64, sweep: f64) -> Disk {
        let span = sweep.abs();
        if !span.is_finite() || span >= std::f64::consts::PI {
            return Disk::new(center, radius);
        }
        let mid = start_angle + sweep * 0.5;
        let (sin_half, cos_half) = crate::sin_cos(span * 0.5);
        Disk::new(
            center + Vec2::from_polar(radius * cos_half, mid),
            radius * sin_half,
        )
    }

    /// The smallest disk containing both disks.
    ///
    /// Exact: when one disk contains the other the larger one is
    /// returned; otherwise the result is the disk whose diameter spans
    /// the two far sides.
    pub fn union(&self, other: &Disk) -> Disk {
        let d = self.center.distance(other.center);
        if d + other.radius <= self.radius {
            return *self;
        }
        if d + self.radius <= other.radius {
            return *other;
        }
        let radius = 0.5 * (d + self.radius + other.radius);
        // Center sits on the segment between the centers, `radius − r₁`
        // past `c₁` toward `c₂`.
        let t = if d > 0.0 {
            (radius - self.radius) / d
        } else {
            0.0
        };
        Disk::new(self.center.lerp(other.center, t), radius)
    }
}

impl fmt::Display for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D({}, r={})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_set_distance() {
        let a = Disk::new(Vec2::ZERO, 1.0);
        let b = Disk::new(Vec2::new(4.0, 3.0), 1.5);
        assert!((a.gap(&b) - 2.5).abs() < 1e-12);
        // Symmetric.
        assert_eq!(a.gap(&b), b.gap(&a));
        // Overlapping disks have a negative gap.
        assert!(a.gap(&Disk::new(Vec2::new(0.5, 0.0), 1.0)) < 0.0);
    }

    #[test]
    fn infinite_radius_never_separates() {
        let unknown = Disk::new(Vec2::ZERO, f64::INFINITY);
        let far = Disk::point(Vec2::new(1e9, 0.0));
        assert_eq!(unknown.gap(&far), f64::NEG_INFINITY);
    }

    #[test]
    fn contains_with_slack() {
        let d = Disk::new(Vec2::ZERO, 1.0);
        assert!(d.contains(Vec2::new(1.0, 0.0), 0.0));
        assert!(!d.contains(Vec2::new(1.0 + 1e-9, 0.0), 0.0));
        assert!(d.contains(Vec2::new(1.0 + 1e-9, 0.0), 1e-8));
    }

    #[test]
    fn spanning_covers_both_endpoints() {
        let a = Vec2::new(-1.0, 2.0);
        let b = Vec2::new(3.0, -4.0);
        let d = Disk::spanning(a, b);
        assert!(d.contains(a, 1e-12));
        assert!(d.contains(b, 1e-12));
        assert!((d.radius - 0.5 * a.distance(b)).abs() < 1e-12);
    }

    #[test]
    fn union_is_exact_and_covers() {
        let a = Disk::new(Vec2::ZERO, 1.0);
        let b = Disk::new(Vec2::new(4.0, 0.0), 2.0);
        let u = a.union(&b);
        // Far sides: −1 and 6 on the x-axis.
        assert!((u.radius - 3.5).abs() < 1e-12);
        assert!((u.center - Vec2::new(2.5, 0.0)).norm() < 1e-12);
        assert!(u.contains(Vec2::new(-1.0, 0.0), 1e-12));
        assert!(u.contains(Vec2::new(6.0, 0.0), 1e-12));
        // Containment cases return the bigger disk unchanged.
        let small = Disk::new(Vec2::new(0.1, 0.0), 0.2);
        assert_eq!(a.union(&small), a);
        assert_eq!(small.union(&a), a);
        // Concentric disks.
        let c = Disk::new(Vec2::ZERO, 2.0);
        assert_eq!(a.union(&c), c);
    }

    #[test]
    fn arc_chunk_contains_the_arc_and_degrades_past_half_turn() {
        let center = Vec2::new(1.0, -2.0);
        let radius = 3.0;
        for &(start, sweep) in &[(0.3_f64, 1.1_f64), (2.0, -0.7), (0.0, 3.0)] {
            let disk = Disk::arc_chunk(center, radius, start, sweep);
            for i in 0..=40 {
                let a = start + sweep * i as f64 / 40.0;
                let p = center + Vec2::from_polar(radius, a);
                assert!(disk.contains(p, 1e-9), "sweep {sweep}: missed angle {a}");
            }
            if sweep.abs() < std::f64::consts::PI {
                assert!(disk.radius < radius, "chunk disk not tight");
            }
        }
        // ≥ π sweeps and non-finite sweeps fall back to the circle disk.
        assert_eq!(Disk::arc_chunk(center, radius, 0.0, 4.0).radius, radius);
        assert_eq!(
            Disk::arc_chunk(center, radius, 0.0, f64::INFINITY).center,
            center
        );
    }

    #[test]
    fn display_is_compact() {
        let d = Disk::point(Vec2::ZERO);
        assert!(d.to_string().starts_with("D("));
    }
}
