//! The reference-frame combinator of Lemma 4.
//!
//! A robot with attributes `(v, τ, φ, χ)` executing the common algorithm
//! `S(·)` occupies, at *global* time `t`, the position
//!
//! ```text
//! b⃗ + (v·τ)·Rot(φ)·Refl(χ)·S(t / τ)
//! ```
//!
//! where `b⃗` is its starting point. The factor `v·τ` is the robot's own
//! distance unit (its speed times its time unit, Section 1.1 of the
//! paper); `t/τ` converts global time to the robot's local clock. For
//! `τ = 1` this specializes exactly to Lemma 4's
//! `S'(t) = v·Rot(φ)·Refl(χ)·S(t)`.
//!
//! [`FrameWarp`] implements this as a general affine + time-dilation
//! wrapper over any [`Trajectory`], so the *same* algorithm value can be
//! instantiated for both robots.

use crate::monotone::{Cursor, MonotoneTrajectory, Motion, Probe};
use crate::Trajectory;
use rvz_geometry::{Disk, Mat2, Vec2};

/// A trajectory viewed through another reference frame:
/// `position(t) = translation + linear · inner.position(t / time_scale)`.
///
/// # Example
///
/// ```
/// use rvz_trajectory::{FrameWarp, PathBuilder, Trajectory};
/// use rvz_geometry::{Mat2, Vec2};
///
/// let unit = PathBuilder::at(Vec2::ZERO).line_to(Vec2::UNIT_X).build();
/// // A robot that is half as fast (v = 1/2, τ = 1): scale 0.5, same clock.
/// let slow = FrameWarp::new(unit, Mat2::scaling(0.5), Vec2::ZERO, 1.0);
/// assert_eq!(slow.position(1.0), Vec2::new(0.5, 0.0));
/// assert_eq!(slow.speed_bound(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameWarp<T> {
    inner: T,
    linear: Mat2,
    translation: Vec2,
    time_scale: f64,
}

impl<T> FrameWarp<T> {
    /// Wraps `inner` with a linear map, a translation, and a time dilation.
    ///
    /// `time_scale` is the paper's `τ`: one local time unit of the warped
    /// robot corresponds to `time_scale` global time units.
    ///
    /// # Panics
    ///
    /// Panics unless `time_scale > 0` and all parameters are finite.
    pub fn new(inner: T, linear: Mat2, translation: Vec2, time_scale: f64) -> Self {
        assert!(
            time_scale > 0.0 && time_scale.is_finite(),
            "time_scale must be positive and finite, got {time_scale}"
        );
        assert!(translation.is_finite(), "translation must be finite");
        FrameWarp {
            inner,
            linear,
            translation,
            time_scale,
        }
    }

    /// The identity warp (useful for treating the reference robot
    /// uniformly with the warped one).
    pub fn identity(inner: T) -> Self {
        FrameWarp::new(inner, Mat2::IDENTITY, Vec2::ZERO, 1.0)
    }

    /// The linear part of the frame map.
    pub fn linear(&self) -> Mat2 {
        self.linear
    }

    /// The translation part (the robot's starting position).
    pub fn translation(&self) -> Vec2 {
        self.translation
    }

    /// The time dilation `τ`.
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    /// Consumes the warp and returns the wrapped trajectory.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// A reference to the wrapped trajectory.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Trajectory> Trajectory for FrameWarp<T> {
    fn position(&self, t: f64) -> Vec2 {
        self.translation + self.linear * self.inner.position(t / self.time_scale)
    }

    fn speed_bound(&self) -> f64 {
        // d/dt [M · S(t/σ)] = (1/σ) · M · S'(t/σ), so the speed is bounded
        // by ‖M‖₂ · inner_bound / σ.
        self.linear.operator_norm() * self.inner.speed_bound() / self.time_scale
    }

    fn duration(&self) -> Option<f64> {
        self.inner.duration().map(|d| d * self.time_scale)
    }
}

/// Cursor of a [`FrameWarp`]: composes the inner trajectory's cursor with
/// the affine frame map.
///
/// The composition preserves the analytic structure: an inner affine
/// piece with velocity `v` maps to an affine piece with velocity
/// `M·v / τ`, so straight legs and waits stay exactly solvable through
/// any stack of frame warps.
#[derive(Debug, Clone)]
pub struct WarpCursor<C> {
    inner: C,
    linear: Mat2,
    translation: Vec2,
    time_scale: f64,
    speed_bound: f64,
    /// `‖linear‖₂`, cached once: an inner envelope disk of radius `r`
    /// maps into a disk of radius `‖M‖₂·r` around the mapped center.
    operator_norm: f64,
    /// `Some((scale, rotation, handedness))` when the linear map is
    /// conformal (`s·Rot(α)` or `s·Rot(α)·Refl`), cached once. Conformal
    /// maps send circles to circles, so inner [`Motion::Circular`]
    /// pieces survive the warp exactly: the radius scales by `s`, the
    /// phase becomes `α ± θ`, and the angular velocity `±ω/τ` (the sign
    /// flipping under a reflection). The paper's attribute frames
    /// (`v·τ·Rot(φ)·Refl(χ)`) are always conformal.
    conformal: Option<(f64, f64, f64)>,
    /// The singular axes of a non-conformal linear map, cached once
    /// (`None` for conformal maps, whose disk envelope is already
    /// exact up to the inner envelope): the map sends a disk to an
    /// ellipse, possibly flat, that its disk envelope overstates.
    axes: Option<SingularAxes>,
    /// `Some((M⁻¹, radius scale))` when the linear map is numerically
    /// invertible, cached once for [`Cursor::first_visit`]: the warped
    /// robot is within `ρ` of a point `c` only where the inner one is
    /// within `ρ/σ_min(M)` of `M⁻¹(c − b)`, because `|M·x| ≥ σ_min·|x|`.
    /// The scale is `1/σ_min`, slightly inflated to cover its rounding.
    preimage: Option<(Mat2, f64)>,
}

/// The [`WarpCursor`] preimage data of a linear map: its inverse and
/// `1/σ_min` inflated by `1e-9` times the condition number, which covers
/// the rounding of `σ_min = |det M| / ‖M‖₂` and of the preimage center
/// (relative errors of a few ulps times the condition number). `None` for
/// a singular or numerically singular map (condition number above
/// `1e9`), whose clearance queries answer "unknown".
fn preimage_parts(m: Mat2) -> Option<(Mat2, f64)> {
    let norm = m.operator_norm();
    let sigma_min = m.det().abs() / norm;
    if sigma_min.is_nan() || sigma_min <= 1e-9 * norm {
        return None;
    }
    let kappa = norm / sigma_min;
    Some((m.inverse()?, (1.0 + 1e-9 * kappa) / sigma_min))
}

/// The SVD `M = s₁·u₁·v₁ᵀ + s₂·u₂·v₂ᵀ` of a 2×2 map, with `u₂ = u₁⊥`,
/// `v₂ = v₁⊥` and the signed `sᵢ = (M·vᵢ)·uᵢ` (`s₂ < 0` when the map
/// reverses orientation).
///
/// `u₂` is the perpendicular of `u₁`, never `M·v₂` normalized: for a
/// numerically rank-1 map (the mirror-twin `I − Rot(φ)·Refl`) `M·v₂` is
/// rounding noise, and an axis pair that is not orthonormal does not
/// bound anything.
#[derive(Debug, Clone, Copy)]
struct SingularAxes {
    u: [Vec2; 2],
    v: [Vec2; 2],
    s: [f64; 2],
}

impl SingularAxes {
    fn of(m: Mat2) -> SingularAxes {
        // v₁ is the major eigenvector of the symmetric MᵀM.
        let (c0, c1) = (m.col0(), m.col1());
        let theta = 0.5 * f64::atan2(2.0 * c0.dot(c1), c0.norm_squared() - c1.norm_squared());
        let v1 = Vec2::from_polar(1.0, theta);
        let u1 = (m * v1).normalized().unwrap_or(Vec2::UNIT_X);
        let (u, v) = ([u1, u1.perp()], [v1, v1.perp()]);
        SingularAxes {
            u,
            v,
            s: [(m * v[0]).dot(u[0]), (m * v[1]).dot(u[1])],
        }
    }

    /// A lower bound on the distance from `translation + M·D(center,
    /// radius)` to the disk `other`: the image lies in the box centred
    /// on `translation + Σ sᵢ·(center·vᵢ)·uᵢ` with half-widths
    /// `|sᵢ|·radius` along the `uᵢ`, and the distance to that box is the
    /// bound. For a rank-1 map the box is a segment and the bound is
    /// exact.
    fn gap(&self, translation: Vec2, center: Vec2, radius: f64, other: &Disk) -> f64 {
        let q = other.center - translation;
        let mut sum = 0.0;
        for i in 0..2 {
            let offset = (q.dot(self.u[i]) - self.s[i] * center.dot(self.v[i])).abs();
            // `0·∞` would be NaN: a collapsed axis has zero width.
            let half = if self.s[i] == 0.0 {
                0.0
            } else {
                self.s[i].abs() * radius
            };
            let outside = (offset - half).max(0.0);
            sum += outside * outside;
        }
        sum.sqrt() - other.radius
    }
}

/// Decomposes a conformal linear map into `(scale, rotation, handedness)`
/// with handedness `+1` for `s·Rot(α)` and `−1` for `s·Rot(α)·Refl`
/// (reflection about the x-axis applied first). `None` for
/// non-conformal maps or the zero map.
fn conformal_parts(m: Mat2) -> Option<(f64, f64, f64)> {
    let c0 = m.col0();
    let c1 = m.col1();
    let s2 = c0.norm_squared();
    if s2 == 0.0 {
        return None;
    }
    let tol = 1e-12 * s2;
    if (c1.norm_squared() - s2).abs() > tol || c0.dot(c1).abs() > tol {
        return None;
    }
    let scale = s2.sqrt();
    let rotation = c0.angle();
    let handedness = if m.det() >= 0.0 { 1.0 } else { -1.0 };
    Some((scale, rotation, handedness))
}

impl<C: Cursor> Cursor for WarpCursor<C> {
    fn probe(&mut self, t: f64) -> Probe {
        let p = self.inner.probe(t / self.time_scale);
        Probe {
            position: self.translation + self.linear * p.position,
            // ∞ · τ = ∞, so permanent rests stay permanent.
            piece_end: p.piece_end * self.time_scale,
            motion: match p.motion {
                Motion::Affine { velocity } => Motion::Affine {
                    velocity: self.linear * velocity / self.time_scale,
                },
                Motion::Circular {
                    center,
                    radius,
                    angular_velocity,
                    angle,
                } => match self.conformal {
                    Some((scale, rotation, handedness)) => Motion::Circular {
                        center: self.translation + self.linear * center,
                        radius: scale * radius,
                        angular_velocity: handedness * angular_velocity / self.time_scale,
                        angle: rotation + handedness * angle,
                    },
                    // A non-conformal map turns circles into ellipses;
                    // degrade to the speed-bound-only description.
                    None => Motion::Curved,
                },
                Motion::Curved => Motion::Curved,
            },
        }
    }

    fn speed_bound(&self) -> f64 {
        self.speed_bound
    }

    /// Maps the inner envelope over the local interval `[t0/τ, t1/τ]`
    /// through the affine stack: the center maps exactly, and the
    /// radius scales by `‖M‖₂`.
    fn envelope(&mut self, t0: f64, t1: f64) -> Disk {
        let inner = self
            .inner
            .envelope(t0 / self.time_scale, t1 / self.time_scale);
        self.map_disk(inner)
    }

    /// For a conformal map, exactly the disk gap of
    /// [`WarpCursor::envelope`]. Otherwise the larger of that and the
    /// singular-axis box bound of the mapped inner envelope, which sees
    /// that a rank-1 map confines the whole trajectory to one line —
    /// the relative motion of mirror twins (Lemma 4 with `v = 1`,
    /// `χ = −1`).
    fn gap_to(&mut self, t0: f64, t1: f64, other: &Disk) -> f64 {
        let inner = self
            .inner
            .envelope(t0 / self.time_scale, t1 / self.time_scale);
        let disk_gap = other.gap(&self.map_disk(inner));
        match &self.axes {
            None => disk_gap,
            Some(axes) => axes
                .gap(self.translation, inner.center, inner.radius, other)
                .max(disk_gap),
        }
    }

    /// The inner cursor's clearance from the preimage disk
    /// `D(M⁻¹(center − b), radius/σ_min)` over the local window
    /// `[t0/τ, t1/τ]`, mapped back to global time. Sound for every
    /// invertible map and tight for the similarities `v·τ·Rot(φ)·Refl(χ)`
    /// of the paper's frames; a singular map answers `t0`.
    fn first_visit(&mut self, t0: f64, t1: f64, center: Vec2, radius: f64) -> f64 {
        let Some((inverse, scale)) = self.preimage else {
            return t0;
        };
        let (l0, l1) = (t0 / self.time_scale, t1 / self.time_scale);
        let local = self.inner.first_visit(
            l0,
            l1,
            inverse * (center - self.translation),
            radius * scale,
        );
        if local <= l0 {
            t0
        } else if local >= l1 {
            t1
        } else {
            (local * self.time_scale).clamp(t0, t1)
        }
    }
}

impl<C> WarpCursor<C> {
    /// Maps an inner envelope disk through the affine stack: the center
    /// maps exactly, and the radius scales by `‖M‖₂` — every point
    /// within `r` of the inner center lands within `‖M‖₂·r` of the
    /// mapped center.
    fn map_disk(&self, inner: Disk) -> Disk {
        let radius = if inner.radius.is_finite() {
            self.operator_norm * inner.radius
        } else if self.operator_norm == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        Disk::new(self.translation + self.linear * inner.center, radius)
    }
}

impl<T: MonotoneTrajectory> MonotoneTrajectory for FrameWarp<T> {
    type Cursor<'a>
        = WarpCursor<T::Cursor<'a>>
    where
        T: 'a;

    fn cursor(&self) -> Self::Cursor<'_> {
        let conformal = conformal_parts(self.linear);
        WarpCursor {
            inner: self.inner.cursor(),
            linear: self.linear,
            translation: self.translation,
            time_scale: self.time_scale,
            speed_bound: self.speed_bound(),
            operator_norm: self.linear.operator_norm(),
            conformal,
            axes: conformal.is_none().then(|| SingularAxes::of(self.linear)),
            preimage: preimage_parts(self.linear),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathBuilder;
    use rvz_geometry::assert_approx_eq;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn unit_leg() -> crate::Path {
        PathBuilder::at(Vec2::ZERO).line_to(Vec2::UNIT_X).build()
    }

    #[test]
    fn identity_warp_is_transparent() {
        let w = FrameWarp::identity(unit_leg());
        assert_eq!(w.position(0.5), Vec2::new(0.5, 0.0));
        assert_eq!(w.speed_bound(), 1.0);
        assert_eq!(w.duration(), Some(1.0));
    }

    #[test]
    fn translation_offsets_start() {
        let d = Vec2::new(3.0, -2.0);
        let w = FrameWarp::new(unit_leg(), Mat2::IDENTITY, d, 1.0);
        assert_eq!(w.position(0.0), d);
        assert_eq!(w.position(1.0), d + Vec2::UNIT_X);
    }

    #[test]
    fn rotation_rotates_the_whole_trajectory() {
        let w = FrameWarp::new(unit_leg(), Mat2::rotation(FRAC_PI_2), Vec2::ZERO, 1.0);
        assert!((w.position(1.0) - Vec2::UNIT_Y).norm() < 1e-15);
        assert_approx_eq!(w.speed_bound(), 1.0);
    }

    #[test]
    fn chirality_mirrors() {
        let diag = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(1.0, 1.0))
            .build();
        let w = FrameWarp::new(diag, Mat2::chirality_reflection(-1.0), Vec2::ZERO, 1.0);
        let end = w.duration().unwrap();
        assert!((w.position(end) - Vec2::new(1.0, -1.0)).norm() < 1e-15);
    }

    #[test]
    fn time_dilation_slows_local_clock() {
        // τ = 2: the robot needs 2 global time units per local unit. With
        // v·τ scale folded into `linear`, a robot with v = 1, τ = 2 covers
        // the unit leg (scaled by v·τ = 2) in 2 global time units at
        // global speed v = 1.
        let tau = 2.0;
        let v = 1.0;
        let w = FrameWarp::new(unit_leg(), Mat2::scaling(v * tau), Vec2::ZERO, tau);
        assert_eq!(w.duration(), Some(2.0));
        assert_eq!(w.position(1.0), Vec2::new(1.0, 0.0));
        assert_eq!(w.position(2.0), Vec2::new(2.0, 0.0));
        assert_approx_eq!(w.speed_bound(), v);
    }

    #[test]
    fn speed_bound_combines_norm_and_dilation() {
        let w = FrameWarp::new(unit_leg(), Mat2::scaling(3.0), Vec2::ZERO, 2.0);
        assert_approx_eq!(w.speed_bound(), 1.5);
    }

    #[test]
    fn accessors_and_into_inner() {
        let w = FrameWarp::new(unit_leg(), Mat2::scaling(2.0), Vec2::UNIT_Y, 4.0);
        assert_eq!(w.linear(), Mat2::scaling(2.0));
        assert_eq!(w.translation(), Vec2::UNIT_Y);
        assert_eq!(w.time_scale(), 4.0);
        assert_eq!(w.inner().duration(), 1.0);
        let inner = w.into_inner();
        assert_eq!(inner.duration(), 1.0);
    }

    #[test]
    fn cursor_composes_affine_pieces() {
        use crate::Motion;
        let tau = 2.0;
        let w = FrameWarp::new(
            PathBuilder::at(Vec2::ZERO)
                .line_to(Vec2::UNIT_X)
                .wait(1.0)
                .build(),
            Mat2::rotation(FRAC_PI_2) * Mat2::scaling(2.0),
            Vec2::UNIT_Y,
            tau,
        );
        let mut c = w.cursor();
        // Inner leg [0,1) maps to global [0,2): velocity rotated, scaled
        // by 2, slowed by τ = 2 ⇒ |v| = 1, pointing along +y.
        let p = c.probe(1.0);
        assert!(p.position.distance(w.position(1.0)) < 1e-15);
        assert_eq!(p.piece_end, 2.0);
        match p.motion {
            Motion::Affine { velocity } => {
                assert!((velocity - Vec2::UNIT_Y).norm() < 1e-15, "{velocity}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The inner wait maps to a zero-velocity piece ending at 4.
        let p = c.probe(3.0);
        assert_eq!(p.piece_end, 4.0);
        assert_eq!(
            p.motion,
            Motion::Affine {
                velocity: Vec2::ZERO
            }
        );
        // Past the end: permanent rest.
        assert_eq!(c.probe(9.0).piece_end, f64::INFINITY);
    }

    #[test]
    fn cursor_matches_random_access_through_nested_warps() {
        let inner = PathBuilder::at(Vec2::ZERO)
            .line_to(Vec2::new(2.0, 0.0))
            .arc_around(Vec2::new(2.0, 1.0), PI)
            .line_to(Vec2::ZERO)
            .build();
        let w = FrameWarp::new(
            FrameWarp::new(inner, Mat2::rotation(0.7), Vec2::new(1.0, -2.0), 0.8),
            Mat2::chirality_reflection(-1.0) * Mat2::scaling(1.3),
            Vec2::new(-0.5, 0.25),
            1.7,
        );
        let mut c = w.cursor();
        let horizon = w.duration().unwrap() + 2.0;
        for i in 0..=500 {
            let t = horizon * i as f64 / 500.0;
            assert!(
                c.probe(t).position.distance(w.position(t)) < 1e-12,
                "mismatch at t={t}"
            );
        }
    }

    /// Legs and arcs in several directions, plus a wait: an inner
    /// trajectory whose envelopes range from exact segment disks to
    /// speed-bound disks.
    fn legs_and_arcs() -> crate::Path {
        PathBuilder::at(Vec2::new(0.3, -0.2))
            .line_to(Vec2::new(2.0, 0.5))
            .arc_around(Vec2::new(1.5, 1.0), 2.0)
            .line_to(Vec2::new(-1.0, 1.5))
            .wait(0.5)
            .arc_around(Vec2::new(-1.0, 0.5), -PI)
            .line_to(Vec2::new(0.5, -1.5))
            .build()
    }

    /// Mirror-twin relative map `I − v·Rot(φ)·Refl(−1)` (Lemma 4 with
    /// `χ = −1`): numerically rank-1 at `v = 1`, invertible with a
    /// negative determinant for `v > 1`.
    fn mirror_relative(v: f64, phi: f64) -> Mat2 {
        Mat2::IDENTITY - v * (Mat2::rotation(phi) * Mat2::chirality_reflection(-1.0))
    }

    /// `(t0, t1)` windows from a point to the whole path and past it.
    fn windows(end: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for i in 0..8 {
            let t0 = end * i as f64 / 8.0;
            for span in [0.0, 0.3, end / 4.0, end, f64::INFINITY] {
                out.push((t0, t0 + span));
            }
        }
        out
    }

    /// The non-conformal gap never exceeds the true distance from the
    /// warped trajectory over the window to the disk (dense-sampled,
    /// which can only overstate it), for the zero map, rank-1 maps
    /// (exact and the numerically rank-1 mirror-twin map) and
    /// invertible non-conformal maps of either orientation. For a
    /// rank-1 map it is never below the distance from the disk to the
    /// map's range line: the box collapses onto it.
    #[test]
    fn non_conformal_gap_is_a_lower_bound() {
        let maps = [
            (Mat2::ZERO, true),
            (Mat2::new(2.0, 1.0, 4.0, 2.0), true),
            (mirror_relative(1.0, 1.0), true),
            (mirror_relative(1.0, 2.0), true),
            (mirror_relative(1.0, 3.0), true),
            (mirror_relative(1.0, 0.7), true),
            (mirror_relative(1.5, 1.0), false),
            (mirror_relative(0.6, 2.0), false),
            (Mat2::new(2.0, 0.0, 0.0, -0.5), false),
            (Mat2::new(1.0, 3.0, 0.0, 1.0), false),
        ];
        let inner = legs_and_arcs();
        let end = inner.duration();
        let mut checked = 0;
        for (m, rank1) in maps {
            assert!(conformal_parts(m).is_none(), "{m:?}");
            for (translation, tau) in [(Vec2::ZERO, 1.0), (Vec2::new(0.7, -1.2), 1.7)] {
                let w = FrameWarp::new(inner.clone(), m, translation, tau);
                // The range line of a rank-1 map, through `translation`.
                let normal = (m * Vec2::UNIT_X + m * Vec2::UNIT_Y)
                    .normalized()
                    .map(Vec2::perp);
                for (t0, t1) in windows(end * tau) {
                    let samples: Vec<Vec2> = (0..=2000)
                        .map(|i| {
                            w.position(t0 + (t1.min(2.0 * end * tau) - t0) * i as f64 / 2000.0)
                        })
                        .collect();
                    for qx in [-3.0, -1.0, -0.25, 0.0, 0.4, 1.5, 3.0] {
                        for qy in [-2.5, -0.6, 0.0, 0.3, 1.1, 2.8] {
                            for radius in [0.0, 0.2] {
                                let other = Disk::new(Vec2::new(qx, qy), radius);
                                let bound = w.cursor().gap_to(t0, t1, &other);
                                let sampled = samples
                                    .iter()
                                    .map(|p| p.distance(other.center))
                                    .fold(f64::INFINITY, f64::min)
                                    - radius;
                                assert!(
                                    bound <= sampled + 1e-9,
                                    "{m:?}, [{t0}, {t1}], {other:?}: bound {bound} > sampled {sampled}"
                                );
                                if let (true, Some(n)) = (rank1, normal) {
                                    let line = (other.center - translation).dot(n).abs() - radius;
                                    assert!(bound >= line - 1e-9, "{m:?}: {bound} < {line}");
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 10 * 2 * 40 * 7 * 6 * 2);
    }

    /// Conformal maps (the paper's partner frames, and the `χ = +1`
    /// relative map) answer exactly the engine's disk test,
    /// `other.gap(&envelope)`, bit for bit.
    #[test]
    fn conformal_gap_is_the_disk_gap_bit_for_bit() {
        let maps = [
            Mat2::IDENTITY,
            Mat2::rotation(1.0) * Mat2::scaling(0.5),
            2.0 * (Mat2::rotation(0.3) * Mat2::chirality_reflection(-1.0)),
            Mat2::IDENTITY - 0.5 * Mat2::rotation(1.0),
            Mat2::IDENTITY - Mat2::rotation(0.01),
        ];
        let inner = legs_and_arcs();
        let end = inner.duration();
        for m in maps {
            assert!(conformal_parts(m).is_some(), "{m:?}");
            let w = FrameWarp::new(inner.clone(), m, Vec2::new(0.7, -1.2), 1.3);
            for (t0, t1) in windows(end * 1.3) {
                for q in [Vec2::ZERO, Vec2::new(2.0, -1.0), Vec2::new(-0.4, 3.0)] {
                    let other = Disk::new(q, 0.1);
                    let gap = w.cursor().gap_to(t0, t1, &other);
                    let disk = other.gap(&w.cursor().envelope(t0, t1));
                    assert_eq!(gap.to_bits(), disk.to_bits(), "{m:?}, [{t0}, {t1}], {q}");
                }
            }
        }
    }

    /// A rank-1 warp disproves a whole window the disk envelope cannot:
    /// the mirror-twin relative map confines the trajectory to a line
    /// at distance 1 from the target.
    #[test]
    fn rank1_gap_sees_the_line_the_disk_misses() {
        let phi = 2.0;
        let axis = Vec2::from_polar(1.0, phi / 2.0);
        let w = FrameWarp::new(legs_and_arcs(), mirror_relative(1.0, phi), Vec2::ZERO, 1.0);
        let other = Disk::point(axis);
        let end = w.duration().unwrap();
        let gap = w.cursor().gap_to(0.0, end, &other);
        assert!((gap - 1.0).abs() < 1e-12, "{gap}");
        assert!(other.gap(&w.cursor().envelope(0.0, end)) < 0.0);
    }

    #[test]
    #[should_panic(expected = "time_scale must be positive")]
    fn zero_time_scale_panics() {
        let _ = FrameWarp::new(unit_leg(), Mat2::IDENTITY, Vec2::ZERO, 0.0);
    }
}
