//! Dense-sampling oracle for cross-checking the advancement engines.
//!
//! Fixed-step sampling is *unsound* (it can step over a contact) but it
//! is simple and independent; where it does find a contact, the sound
//! engine must have found one no later. The property tests use this
//! one-sided relationship.

use rvz_trajectory::Trajectory;

/// First sampled time with `|a(t) − b(t)| ≤ radius`, scanning
/// `t = 0, dt, 2dt, … ≤ horizon`.
///
/// # Panics
///
/// Panics unless `dt > 0`, `horizon ≥ 0` and `radius > 0`.
pub fn first_contact_brute<A, B>(a: &A, b: &B, radius: f64, horizon: f64, dt: f64) -> Option<f64>
where
    A: Trajectory + ?Sized,
    B: Trajectory + ?Sized,
{
    assert!(dt > 0.0 && dt.is_finite(), "dt must be positive, got {dt}");
    assert!(horizon >= 0.0, "horizon must be >= 0");
    assert!(radius > 0.0, "radius must be positive");
    let steps = (horizon / dt).ceil() as u64;
    for i in 0..=steps {
        let t = (i as f64 * dt).min(horizon);
        if a.position(t).distance(b.position(t)) <= radius {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{first_contact_generic, GenericOptions};
    use rvz_geometry::Vec2;
    use rvz_trajectory::FnTrajectory;

    #[test]
    fn brute_agrees_with_the_conservative_loop_on_head_on() {
        let a = FnTrajectory::new(|t| Vec2::new(t, 0.0), 1.0);
        let b = FnTrajectory::new(|t| Vec2::new(10.0 - t, 0.0), 1.0);
        let brute = first_contact_brute(&a, &b, 1.0, 20.0, 1e-4).unwrap();
        let opts = GenericOptions {
            tolerance: 1e-9,
            horizon: 1e9,
            max_steps: 50_000_000,
        };
        let generic = first_contact_generic(&a, &b, 1.0, &opts)
            .contact_time()
            .unwrap();
        assert!((brute - generic).abs() < 2e-4, "{brute} vs {generic}");
        // One-sided soundness: the sound loop is never later than brute force.
        assert!(generic <= brute + 1e-9);
    }

    #[test]
    fn brute_returns_none_when_no_contact() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let b = FnTrajectory::new(|_| Vec2::new(5.0, 0.0), 0.0);
        assert_eq!(first_contact_brute(&a, &b, 1.0, 10.0, 0.1), None);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let a = FnTrajectory::new(|_| Vec2::ZERO, 0.0);
        let _ = first_contact_brute(&a, &a, 1.0, 1.0, 0.0);
    }
}
