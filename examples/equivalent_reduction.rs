//! The heart of Section 3: a two-robot rendezvous *is* a one-robot
//! search, through the matrix `T∘ = I − v·Rot(φ)·Refl(χ)` (Lemma 4) and
//! its QR factorization (Lemma 5).
//!
//! This example runs both simulations side by side on the same instance
//! and shows they report the *same* first-contact time, then prints the
//! matrices involved.
//!
//! ```text
//! cargo run --release --example equivalent_reduction
//! ```

use plane_rendezvous::prelude::*;
use plane_rendezvous::sim::Stationary;
use rvz_oracles::DistanceTrace;

fn main() {
    let attrs = RobotAttributes::reference()
        .with_speed(0.7)
        .with_orientation(2.1)
        .with_chirality(Chirality::Mirrored);
    let inst = RendezvousInstance::new(Vec2::new(0.45, 0.65), 0.04, attrs).unwrap();

    println!("instance: {inst}\n");

    // The reduction's algebra.
    let eq = EquivalentSearch::new(&attrs);
    println!(
        "Lemma 4 matrix   M  = v·Rot(φ)·Refl(χ) = {}",
        attrs.lemma4_matrix()
    );
    println!("equivalent matrix T∘ = I − M           = {}", eq.matrix());
    let qr = eq.qr();
    println!("Lemma 5 factors:  Φ  = {}", qr.q);
    println!("                  T∘' = {}", qr.r);
    println!("                  µ  = {:.6}", eq.mu());
    println!();

    // Simulation 1: the real two-robot rendezvous.
    let opts = ContactOptions::with_horizon(1e7).tolerance(inst.visibility() * 1e-9);
    let direct = simulate_rendezvous(UniversalSearch, &inst, &opts)
        .contact_time()
        .expect("feasible: v ≠ 1");

    // Simulation 2: one virtual robot T∘·S(t) hunting a stationary target.
    let virtual_robot = FrameWarp::new(UniversalSearch, eq.matrix(), Vec2::ZERO, 1.0);
    let target = Stationary::new(inst.offset());
    let reduced = first_contact(&virtual_robot, &target, inst.visibility(), &opts)
        .contact_time()
        .expect("the reduction preserves contacts");

    println!("two-robot rendezvous time:   {direct:.9}");
    println!("equivalent search time:      {reduced:.9}");
    println!(
        "difference:                  {:.3e}",
        (direct - reduced).abs()
    );
    assert!((direct - reduced).abs() <= 1e-6 * (1.0 + direct));
    println!("identical, as Lemma 4 promises.\n");

    // Show both distance profiles around the contact — they coincide.
    let reference = UniversalSearch;
    let partner = attrs.frame_warp(UniversalSearch, inst.offset());
    let t0 = (direct - 30.0).max(0.0);
    let real = DistanceTrace::sample(&reference, &partner, t0, direct + 5.0, 300);
    println!("inter-robot distance near contact (marker = r):");
    print!("{}", real.ascii_plot(72, 10, Some(inst.visibility())));

    // And the Theorem 2 bound for this (mirrored) instance.
    println!("\nTheorem 2: {}", theorem2_bound(&inst));
}
