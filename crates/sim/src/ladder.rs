//! Rungs 1–4 of the certificate ladder: one pair law, one `certify`.
//!
//! On a piece overlap each robot is on a leg, on a circle of
//! `Search(k)`, or waiting, so `s` time units past the probe the pair's
//! relative position is one closed-form law,
//!
//! `q(s) = c + w·s + Σ Rot(ωᵢ·s)·aᵢ`,
//!
//! with at most two rotating terms ([`PairLaw`]): a leg or a wait adds
//! its position and velocity to `c + w·s`, a circle its center to `c`
//! and its offset from the center as a term. Two circles at equal rates
//! merge their terms into one. [`certify`] reads the rungs off the law,
//! in ladder order:
//!
//! 1. **Affine quadratic** (no rotating term): `|q(s)|²` is a quadratic;
//!    its smallest root at the threshold is the contact, and otherwise
//!    its vertex is the true in-piece minimum.
//! 2. **Cosine law** (one rotating term and `w = 0`: a circle against a
//!    wait, or a phase-locked circle pair):
//!    `|q(s)|² = P + Q·cos(ψ + ω·s)`; its first crossing is the contact,
//!    and otherwise its trough is the minimum.
//! 3. **Set distance**: each rotating term stays on its circle, so
//!    `|q(s)| ≥ |c + w·s| − Σ Rᵢ` (`Rᵢ` the circle's radius, known
//!    without a square root); the bound's minimum over the overlap
//!    clears the whole overlap when it stays above the threshold.
//! 4. **Curvature bound**: with `d0 = |q(0)|`, `d0' = q(0)·q'(0)/d0`
//!    and `M = Σ ωᵢ²·max(Rᵢ, |aᵢ|)` (each circle's acceleration bound,
//!    covering a probe a few ulps off its circle), the projection of
//!    `q(s)` on `q(0)/d0` has second derivative at most `M` in
//!    magnitude, so `|q(s)| ≥ d0 + d0'·s − M·s²/2`. The step is that bound's first
//!    root at the target, `radius + tolerance/2`: aimed inside the
//!    declaration band, rounding in the bound cannot land a declared
//!    contact below the radius. On two rotating terms (circles at
//!    unequal rates) the law is **walked**: `q` and `q'` are known in
//!    closed form anywhere on the overlap, so the same bound is chained
//!    from each walked point without probing a cursor. The walk stops
//!    at the overlap end, after [`WALK_LINKS`] links, or once a link
//!    covers less than [`WALK_FLOOR`] of the first. A clearance only: a
//!    contact is declared where a probe measures it.
//!
//! The speed bound (rung 6) is the floor under all four: a step is
//! never shorter than the caller's `conservative` span. A
//! [`Motion::Curved`] piece has no law, so only that bound applies.
//! Rung 5, the wait window, needs a cursor and stays in the cursor loop.

use crate::engine::EngineStats;
use rvz_geometry::Vec2;
use rvz_trajectory::monotone::{Motion, Probe};
use std::f64::consts::{PI, TAU};

/// Relative slack on a circle's acceleration bound `ω²R`: covers the
/// rounding of a probe that sits a few ulps off its reported circle.
const CURVATURE_SLACK: f64 = 1e-9;

/// Links the walk may chain after the probe's own curvature step.
const WALK_LINKS: usize = 6;

/// A chained link covering less than this share of the first step ends
/// the walk: the pair is closing in, and the next probe is cheaper than
/// further walking.
const WALK_FLOOR: f64 = 0.25;

/// One rotating term `Rot(ω·s)·a` of a [`PairLaw`].
#[derive(Debug, Clone, Copy, Default)]
struct Term {
    omega: f64,
    /// The term at `s = 0`.
    a: Vec2,
    /// The radius of the circle behind the term (their sum for a merged
    /// pair): the term's reach in the set distance, and with `|a|` its
    /// acceleration bound.
    radius: f64,
}

/// The pair's relative position `q(s) = c + w·s + Σ Rot(ωᵢ·s)·aᵢ`,
/// `s` time units past the probes it was built from (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairLaw {
    c: Vec2,
    w: Vec2,
    terms: [Term; 2],
    n: usize,
}

/// A piece as `anchor + velocity·s` plus at most one rotating term: a
/// leg or a wait is its own position, a circle its static center plus
/// the offset from it. `None` for a [`Motion::Curved`] piece.
#[inline]
fn side(p: &Probe) -> Option<(Vec2, Vec2, Option<Term>)> {
    match p.motion {
        Motion::Affine { velocity } => Some((p.position, velocity, None)),
        Motion::Circular {
            center,
            radius,
            angular_velocity,
            ..
        } => Some((
            center,
            Vec2::ZERO,
            Some(Term {
                omega: angular_velocity,
                a: p.position - center,
                radius,
            }),
        )),
        Motion::Curved => None,
    }
}

impl PairLaw {
    /// The law of `pb − pa` on the overlap of the two probes' pieces, or
    /// `None` when either piece is [`Motion::Curved`].
    #[inline]
    pub(crate) fn of(pa: &Probe, pb: &Probe) -> Option<PairLaw> {
        let (anchor_a, va, ta) = side(pa)?;
        let (anchor_b, vb, tb) = side(pb)?;
        let mut law = PairLaw {
            c: anchor_b - anchor_a,
            w: vb - va,
            terms: [Term::default(); 2],
            n: 0,
        };
        match (ta, tb) {
            (Some(x), Some(y)) if x.omega == y.omega => {
                law.terms[0] = Term {
                    a: y.a - x.a,
                    radius: x.radius + y.radius,
                    ..x
                };
                law.n = 1;
            }
            (x, y) => {
                for term in [x.map(|t| Term { a: -t.a, ..t }), y].into_iter().flatten() {
                    law.terms[law.n] = term;
                    law.n += 1;
                }
            }
        }
        Some(law)
    }

    fn terms(&self) -> &[Term] {
        &self.terms[..self.n]
    }

    /// `q(s)` and `q'(s)` in closed form.
    fn at(&self, s: f64) -> (Vec2, Vec2) {
        let mut q = self.c + self.w * s;
        let mut v = self.w;
        for t in self.terms() {
            // No rotation at the probe itself.
            let a = if s == 0.0 {
                t.a
            } else {
                t.a.rotated(t.omega * s)
            };
            q += a;
            v += a.perp() * t.omega;
        }
        (q, v)
    }

    /// Rung 4: how long `|q|` provably stays above `target`, chaining up
    /// to `links` curvature bounds along the law, capped at `ub`.
    pub(crate) fn clearance(&self, ub: f64, target: f64, links: usize) -> f64 {
        let m: f64 = self
            .terms()
            .iter()
            .map(|t| t.omega * t.omega * (t.radius.max(t.a.norm()) * (1.0 + CURVATURE_SLACK)))
            .sum();
        let mut s = 0.0_f64;
        // The probe's own step, once the first link has set it.
        let mut first = 0.0_f64;
        for _ in 0..links {
            if s >= ub {
                break;
            }
            let (q, v) = self.at(s);
            let d = q.norm();
            let gap = d - target;
            if gap <= 0.0 {
                break;
            }
            // The first positive root of `m/2·u² − rate·u − gap`, in the
            // cancellation-free form for each sign of `rate` (`∞` when
            // nothing bends or closes).
            let rate = q.dot(v) / d;
            let sqrt_disc = (rate * rate + 2.0 * m * gap).sqrt();
            let link = if rate <= 0.0 {
                2.0 * gap / (sqrt_disc - rate)
            } else {
                (rate + sqrt_disc) / m
            };
            s += link.min(ub - s);
            if link < WALK_FLOOR * first {
                break;
            }
            if first == 0.0 {
                first = s;
            }
        }
        s.min(ub)
    }
}

/// The rung that certified a step, as [`EngineStats`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// Rung 1 or 2 found the first crossing: the step lands on it.
    Exact,
    /// Rungs 1–3 cleared the whole overlap.
    Piece,
    /// The curvature bound (and walk) outreached the speed bound.
    Curvature,
    /// The speed bound took the step.
    Speed,
}

/// What [`certify`] concluded on one piece overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Certificate {
    /// The contact-free advance; for [`Rung::Exact`], the crossing.
    pub(crate) step: f64,
    pub(crate) rung: Rung,
    /// The law's true minimum `(distance, s)` inside the overlap, when
    /// it lies below the running minimum passed in: the in-piece
    /// closest approach a `Horizon` outcome reports.
    pub(crate) minimum: Option<(f64, f64)>,
}

/// The declaration band of a query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Band {
    /// `radius + tolerance`: a probe this close declares contact.
    pub(crate) threshold: f64,
    /// `radius + tolerance/2`: where the curvature bound aims.
    pub(crate) target: f64,
}

impl Band {
    pub(crate) fn new(radius: f64, tolerance: f64) -> Band {
        let threshold = radius + tolerance;
        Band {
            threshold,
            target: threshold - 0.5 * tolerance,
        }
    }
}

/// Rungs 1–4 on the overlap `[0, ub]` of a probe pair `law` describes
/// (`None`: a curved piece), above the speed bound's `conservative`
/// span. `running_min` is the query's smallest distance so far; only a
/// smaller in-piece minimum is reported. The probe itself must be
/// farther apart than `band.threshold`.
#[inline]
pub(crate) fn certify(
    law: Option<&PairLaw>,
    ub: f64,
    conservative: f64,
    band: Band,
    running_min: f64,
) -> Certificate {
    let speed = Certificate {
        step: conservative,
        rung: Rung::Speed,
        minimum: None,
    };
    let Some(law) = law else {
        return speed;
    };
    let exact = |step| Certificate {
        step,
        rung: Rung::Exact,
        minimum: None,
    };
    // A whole overlap cleared, or the speed bound: both are sound, so
    // the longer wins. This keeps the step count at or below the seed
    // loop's where the schedules chop time into slivers of pieces.
    let piece = |minimum| Certificate {
        step: ub.max(conservative),
        rung: Rung::Piece,
        minimum,
    };
    let thr2 = band.threshold * band.threshold;
    let (c, w) = (law.c, law.w);
    match law.terms() {
        [] => {
            // Rung 1: |q|² = a2·s² + 2·b2·s + (c2 + thr²). A first
            // crossing needs the distance shrinking (b2 < 0).
            let (a2, b2, c2) = (w.norm_squared(), c.dot(w), c.norm_squared() - thr2);
            if a2 > 0.0 && b2 < 0.0 {
                let disc = b2 * b2 - a2 * c2;
                if disc >= 0.0 {
                    // Smallest root, in the cancellation-free form.
                    let root = c2 / (-b2 + disc.sqrt());
                    if root <= ub {
                        return exact(root);
                    }
                }
                let vertex = -b2 / a2;
                if vertex < ub {
                    let dmin = (c + w * vertex).norm();
                    return piece((dmin < running_min).then_some((dmin, vertex)));
                }
            }
            piece(None)
        }
        [t] if w == Vec2::ZERO => {
            // Rung 2: |q|² = p + q·cos(x), x = ψ + ω·s, ψ = ∠a − ∠c.
            let a = t.a;
            let p = c.norm_squared() + a.norm_squared();
            let q = 2.0 * c.norm() * a.norm();
            let cstar = (thr2 - p) / q;
            let crossing = q > 0.0 && cstar >= -1.0;
            if crossing && cstar >= 1.0 {
                return exact(0.0);
            }
            // The trough (x = π) can only matter below the running
            // minimum: the cheap `p − q` test skips the trigonometry.
            let trough = p - q < running_min * running_min * (1.0 - 1e-12);
            if !crossing && !trough {
                return piece(None);
            }
            let x0 = c.cross(a).atan2(c.dot(a)).rem_euclid(TAU);
            let rate = t.omega.abs();
            if crossing {
                // Contact set in phase space: x ∈ [β, 2π − β] (mod 2π),
                // the far side of the cosine.
                let beta = cstar.acos();
                if (beta..=TAU - beta).contains(&x0) {
                    return exact(0.0);
                }
                let arc = match (t.omega > 0.0, x0 < beta) {
                    (true, true) => beta - x0,
                    (true, false) => beta + TAU - x0,
                    (false, true) => x0 + beta,
                    (false, false) => x0 - (TAU - beta),
                };
                if arc / rate <= ub {
                    return exact(arc / rate);
                }
            }
            let arc = if t.omega > 0.0 { PI - x0 } else { x0 - PI };
            let s = arc.rem_euclid(TAU) / rate;
            let dmin = (p - q).max(0.0).sqrt();
            piece((trough && s <= ub && dmin < running_min).then_some((dmin, s)))
        }
        terms => {
            // Rung 3: the rotating terms stay on their circles.
            let ww = w.norm_squared();
            let closest = if ww > 0.0 {
                (-c.dot(w) / ww).clamp(0.0, ub)
            } else {
                0.0
            };
            let reach: f64 = terms.iter().map(|t| t.radius).sum();
            if (c + w * closest).norm() - reach > band.threshold {
                return piece(None);
            }
            // Rung 4, walked along two terms of unequal rates.
            let links = if terms.len() == 2 { 1 + WALK_LINKS } else { 1 };
            let step = law.clearance(ub, band.target, links);
            if step > conservative {
                Certificate {
                    step,
                    rung: Rung::Curvature,
                    minimum: None,
                }
            } else {
                speed
            }
        }
    }
}

impl EngineStats {
    /// Counts one step certified by `rung`.
    pub(crate) fn count(&mut self, rung: Rung) {
        match rung {
            Rung::Exact => self.analytic_steps += 1,
            Rung::Curvature => self.curvature_steps += 1,
            Rung::Piece | Rung::Speed => self.conservative_steps += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_experiments::SplitMix64;

    /// A piece for the ladder properties: its probe at `s = 0` and its
    /// exact position at any `s` in the overlap, evaluated without the
    /// law's arithmetic.
    struct Piece {
        probe: Probe,
        at: Box<dyn Fn(f64) -> Vec2>,
    }

    fn arc(rng: &mut SplitMix64, omega: f64) -> Piece {
        let center = Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0));
        let radius = rng.next_range(0.05, 4.0);
        let angle = rng.next_range(0.0, TAU);
        let at = move |s: f64| center + Vec2::from_polar(radius, angle + omega * s);
        Piece {
            probe: Probe {
                position: at(0.0),
                piece_end: f64::INFINITY,
                motion: Motion::Circular {
                    center,
                    radius,
                    angular_velocity: omega,
                    angle,
                },
            },
            at: Box::new(at),
        }
    }

    fn line(rng: &mut SplitMix64, speed: f64) -> Piece {
        let start = Vec2::new(rng.next_range(-3.0, 3.0), rng.next_range(-3.0, 3.0));
        let velocity = Vec2::from_polar(speed, rng.next_range(0.0, TAU));
        Piece {
            probe: Probe {
                position: start,
                piece_end: f64::INFINITY,
                motion: Motion::Affine { velocity },
            },
            at: Box::new(move |s| start + velocity * s),
        }
    }

    fn signed_rate(rng: &mut SplitMix64) -> f64 {
        let w = rng.next_range(0.05, 5.0);
        if rng.next_below(2) == 0 {
            w
        } else {
            -w
        }
    }

    fn law(a: &Piece, b: &Piece) -> PairLaw {
        PairLaw::of(&a.probe, &b.probe).expect("legs and arcs have a law")
    }

    /// The true distance at `SAMPLES + 1` points evenly over `[0, span]`.
    const SAMPLES: usize = 512;

    fn samples<'p>(a: &'p Piece, b: &'p Piece, span: f64) -> impl Iterator<Item = (f64, f64)> + 'p {
        (0..=SAMPLES).map(move |i| {
            let s = span * i as f64 / SAMPLES as f64;
            (s, (a.at)(s).distance((b.at)(s)))
        })
    }

    /// The curvature bound against the true distance: on random
    /// unequal-rate arc pairs, arc vs line, arc vs wait and line vs arc,
    /// the pair never comes closer than the target anywhere in the
    /// single step it certifies (sampled densely on `[0, step]`, the
    /// step capped at a random piece overlap), nor anywhere in an
    /// overlap `certify` clears whole before reaching it. 256 draws in
    /// debug, 10,000 in release.
    #[test]
    fn curvature_step_never_passes_the_target() {
        let cases = if cfg!(debug_assertions) { 256 } else { 10_000 };
        let mut rng = SplitMix64::new(0xC0A7_5EED);
        let (mut long, mut cleared) = (0_usize, 0_usize);
        for case in 0..cases {
            let w = signed_rate(&mut rng);
            let speed = rng.next_range(0.05, 3.0);
            let (a, b) = match case % 4 {
                0 => {
                    // Either sense of rotation; equal rates have a
                    // closed form and never reach this rung.
                    let wb = signed_rate(&mut rng);
                    (arc(&mut rng, w), arc(&mut rng, wb))
                }
                1 => (arc(&mut rng, w), line(&mut rng, speed)),
                2 => (arc(&mut rng, w), line(&mut rng, 0.0)),
                _ => (line(&mut rng, speed), arc(&mut rng, w)),
            };
            let d = a.probe.position.distance(b.probe.position);
            let target = d * rng.next_range(0.02, 0.98);
            let ub = rng.next_range(0.01, 10.0);
            let law = law(&a, &b);
            let step = law.clearance(ub, target, 1);
            assert!(
                step > 0.0 && step <= ub,
                "case {case}: step {step} (ub {ub})"
            );
            for (s, gap) in samples(&a, &b, step) {
                assert!(
                    gap >= target * (1.0 - 1e-12),
                    "case {case}: distance {gap} < target {target} at s = {s} of {step}"
                );
            }
            long += usize::from(step == ub);
            // The rungs before this one, through `certify`: a whole
            // overlap cleared by the set distance (or, on an arc against
            // a wait, by the cosine law) holds on every sample of it.
            let band = Band {
                threshold: target,
                target,
            };
            if certify(Some(&law), ub, 0.0, band, f64::INFINITY).rung == Rung::Piece {
                cleared += 1;
                for (s, gap) in samples(&a, &b, ub) {
                    assert!(
                        gap >= target * (1.0 - 1e-12),
                        "case {case}: distance {gap} < {target} at s = {s} of a cleared {ub}"
                    );
                }
            }
        }
        // Some draws certify the whole overlap, most stop short of it;
        // the earlier rungs clear some overlaps whole.
        assert!(
            long * 50 >= cases && long * 2 <= cases && cleared * 20 >= cases,
            "{long} of {cases} steps reached ub, {cleared} overlaps cleared before"
        );
    }

    /// The law walk against the true distance: on random unequal-rate
    /// arc pairs, the pair never comes closer than the target anywhere
    /// on the span the walk certifies (513 samples on `[0, walked]`,
    /// capped at a random piece overlap), the walk never ends short of
    /// the probe's own curvature step, and it extends most of them.
    /// 256 draws in debug, 10,000 in release.
    #[test]
    fn law_walk_never_passes_the_target() {
        let cases = if cfg!(debug_assertions) { 256 } else { 10_000 };
        let mut rng = SplitMix64::new(0x01A3_3A1C);
        let mut extended = 0_usize;
        for case in 0..cases {
            let (wa, wb) = (signed_rate(&mut rng), signed_rate(&mut rng));
            let (a, b) = (arc(&mut rng, wa), arc(&mut rng, wb));
            let d = a.probe.position.distance(b.probe.position);
            let target = d * rng.next_range(0.02, 0.98);
            let ub = rng.next_range(0.01, 10.0);
            let law = law(&a, &b);
            let first = law.clearance(ub, target, 1);
            let walked = law.clearance(ub, target, 1 + WALK_LINKS);
            assert!(
                walked >= first && walked <= ub,
                "case {case}: walked {walked} from {first} (ub {ub})"
            );
            for (s, gap) in samples(&a, &b, walked) {
                assert!(
                    gap >= target * (1.0 - 1e-12),
                    "case {case}: distance {gap} < target {target} at s = {s} of {walked}"
                );
            }
            extended += usize::from(walked > first);
        }
        assert!(
            extended * 2 >= cases,
            "{extended} of {cases} walks went past the first step"
        );
    }

    /// Rungs 1–2 against the true distance: on random affine pairs
    /// (waits included), phase-locked circle pairs and circles against
    /// a wait, `certify`'s exact answer over a random overlap holds to
    /// 513 samples of the distance. A crossing lies in the declaration
    /// band with every earlier sample above the threshold; "no
    /// crossing" means every sample over the overlap is above it; a
    /// reported in-piece minimum is attained and never above a sampled
    /// distance. 256 draws in debug, 10,000 in release.
    #[test]
    fn exact_rungs_hold_to_the_sampled_distance() {
        // Relative slack for rounding in the samples and in the law.
        const SLACK: f64 = 1e-12;
        let cases = if cfg!(debug_assertions) { 256 } else { 10_000 };
        let mut rng = SplitMix64::new(0xE8AC_7B0D);
        let (mut crossings, mut clear, mut minima) = (0_usize, 0_usize, 0_usize);
        for case in 0..cases {
            let w = signed_rate(&mut rng);
            let (a, b) = match case % 4 {
                0 => {
                    let speed = rng.next_range(0.0, 3.0);
                    let (a, b) = (line(&mut rng, speed), line(&mut rng, 1.0));
                    (a, b)
                }
                1 => (arc(&mut rng, w), arc(&mut rng, w)),
                2 => (arc(&mut rng, w), line(&mut rng, 0.0)),
                _ => (line(&mut rng, 0.0), arc(&mut rng, w)),
            };
            let d = a.probe.position.distance(b.probe.position);
            let band = Band::new(d * rng.next_range(0.02, 0.98), 1e-9);
            let radius = band.threshold - 1e-9;
            let ub = rng.next_range(0.01, 10.0);
            let law = law(&a, &b);
            assert!(law.terms().len() <= 1 && (law.n == 0 || law.w == Vec2::ZERO));
            let cert = certify(Some(&law), ub, 0.0, band, f64::INFINITY);
            let above = |gap: f64| gap > band.threshold * (1.0 - SLACK);
            match cert.rung {
                Rung::Exact => {
                    crossings += 1;
                    let hit = cert.step;
                    assert!((0.0..=ub).contains(&hit), "case {case}: crossing {hit}");
                    let gap = (a.at)(hit).distance((b.at)(hit));
                    assert!(
                        gap >= radius * (1.0 - SLACK) && gap <= band.threshold * (1.0 + SLACK),
                        "case {case}: crossing at {hit} is {gap} apart, band [{radius}, {}]",
                        band.threshold
                    );
                    for (s, gap) in samples(&a, &b, hit).take(SAMPLES) {
                        assert!(
                            above(gap),
                            "case {case}: distance {gap} at s = {s}, before the crossing {hit}"
                        );
                    }
                }
                Rung::Piece => {
                    clear += 1;
                    assert_eq!(cert.step, ub, "case {case}");
                    let sampled: Vec<(f64, f64)> = samples(&a, &b, ub).collect();
                    for &(s, gap) in &sampled {
                        assert!(
                            above(gap),
                            "case {case}: distance {gap} at s = {s} of an overlap without a crossing"
                        );
                    }
                    if let Some((dmin, smin)) = cert.minimum {
                        minima += 1;
                        assert!((0.0..=ub).contains(&smin), "case {case}: minimum at {smin}");
                        let there = (a.at)(smin).distance((b.at)(smin));
                        assert!(
                            (there - dmin).abs() <= 1e-9 * (1.0 + dmin),
                            "case {case}: minimum {dmin} at {smin}, but the pair is {there} apart"
                        );
                        for &(s, gap) in &sampled {
                            assert!(
                                dmin <= gap * (1.0 + SLACK),
                                "case {case}: minimum {dmin} above the distance {gap} at s = {s}"
                            );
                        }
                    }
                }
                other => panic!("case {case}: an exact law ended on {other:?}"),
            }
        }
        // Every outcome is drawn often.
        assert!(
            crossings * 5 >= cases && clear * 5 >= cases && minima * 10 >= cases,
            "{crossings} crossings, {clear} clear overlaps, {minima} minima of {cases}"
        );
    }

    #[test]
    fn curved_pieces_get_the_speed_bound_only() {
        let curved = Probe {
            position: Vec2::new(1.0, 0.0),
            piece_end: 1.0,
            motion: Motion::Curved,
        };
        let rest = Probe::resting(Vec2::ZERO);
        assert!(PairLaw::of(&curved, &rest).is_none());
        assert!(PairLaw::of(&rest, &curved).is_none());
        let cert = certify(None, 1.0, 0.25, Band::new(0.5, 1e-9), f64::INFINITY);
        assert_eq!(
            (cert.step, cert.rung, cert.minimum),
            (0.25, Rung::Speed, None)
        );
    }
}
