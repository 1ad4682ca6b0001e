//! The zero-allocation gate on the engine's steady-state query paths,
//! and the SoA-not-slower gate on the lane kernel.
//!
//! Registers a counting global allocator for this test binary and
//! proves that, after a warm-up query, the compiled fast path
//! ([`first_contact_programs`]), the production cursor query
//! ([`simulate_rendezvous_by_ref`], which sweeps and serve misses run),
//! and the SoA lane kernel ([`first_contact_soa`]) perform **zero**
//! heap allocations per query. A positive control (an explicit
//! allocation observed by the counter) guards against the vacuous pass
//! where the allocator silently failed to register.
//!
//! The lane kernel leans on autovectorization, so the timing gate
//! holds it to the scalar compiled loop's speed on a warm batch. It
//! asserts only in release builds; run it with and without
//! `-C target-cpu=native`:
//!
//! ```text
//! cargo test --release -p rvz-sim --test alloc_gate
//! RUSTFLAGS="-C target-cpu=native" cargo test --release -p rvz-sim --test alloc_gate
//! ```
//!
//! The counter is process-wide and libtest runs tests on parallel
//! threads, so every test holds [`SERIAL`] from its set-up through its
//! last measurement: no test's set-up allocations can land in another
//! test's count, and no test's work lands in the timing gate's clock.

use rvz_geometry::Vec2;
use rvz_model::{Chirality, RendezvousInstance, RobotAttributes};
use rvz_search::UniversalSearch;
use rvz_sim::{
    compile_rendezvous_partner, first_contact_programs, first_contact_soa,
    simulate_rendezvous_by_ref, ContactOptions, EngineScratch,
};
use rvz_trajectory::{Compile, CompileOptions, CompiledProgram, ProgramSoA};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests of this binary around the shared counter.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that failed while holding it does not fail
/// the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Counting;

// SAFETY: defers to `System`; the counter has no safety impact.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The counter is process-wide, and the libtest harness's main thread
/// may allocate concurrently (result channels, output buffers). A real
/// engine regression allocates on *every* run, so the minimum over a
/// few attempts is a sound zero-allocation detector that ignores
/// unrelated one-off noise.
fn min_allocs(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let (_, n) = allocs(&mut f);
            n
        })
        .min()
        .expect("non-empty attempts")
}

fn swarm(n: usize, horizon: f64) -> Vec<CompiledProgram> {
    let copts = CompileOptions::to_horizon(horizon);
    (0..n)
        .map(|i| {
            let angle = std::f64::consts::TAU * i as f64 / n as f64;
            RobotAttributes::reference()
                .with_speed(0.5 + 0.15 * i as f64)
                .frame_warp(UniversalSearch, Vec2::from_polar(2.5, angle))
                .compile(&copts)
                .expect("covers the horizon")
        })
        .collect()
}

#[test]
fn compiled_queries_allocate_nothing_after_warmup() {
    let _serial = serial();
    // Positive control first: the counter must actually observe heap
    // traffic, or a zero below would be meaningless.
    let (_, control) = allocs(|| std::hint::black_box(vec![0_u8; 4096]));
    assert!(control > 0, "counting allocator is not registered");

    let horizon = rvz_search::times::rounds_total(3);
    let opts = ContactOptions::with_horizon(horizon);
    let programs = swarm(4, horizon);
    let mut scratch = EngineScratch::new();

    // Warm-up: first queries may initialize lazy state.
    for i in 0..programs.len() {
        for j in (i + 1)..programs.len() {
            first_contact_programs(&programs[i], &programs[j], 0.1, &opts, &mut scratch);
        }
    }

    // The gate: a full pairwise pass, zero allocation calls.
    let during = min_allocs(|| {
        for i in 0..programs.len() {
            for j in (i + 1)..programs.len() {
                std::hint::black_box(first_contact_programs(
                    &programs[i],
                    &programs[j],
                    0.1,
                    &opts,
                    &mut scratch,
                ));
            }
        }
    });
    assert_eq!(during, 0, "compiled pair queries allocated {during} times");
}

/// The production cursor query — [`simulate_rendezvous_by_ref`], the
/// call every sweep worker and every serve miss off the lane kernel
/// make — on the four shapes a sweep meets: a feasible `τ = 1` pair and
/// two twins on the Lemma 4 relative trajectory (an exact twin's zero
/// warp and a mirror twin's singular rank-1 warp), and a `τ ≠ 1` pair
/// on two cursors. Each query holds its cursors on the stack, so a
/// cursor or warp that starts boxing its state fails here.
#[test]
fn rendezvous_cursor_queries_allocate_nothing() {
    let _serial = serial();
    let (_, control) = allocs(|| std::hint::black_box(vec![0_u8; 4096]));
    assert!(control > 0, "counting allocator is not registered");

    let opts = ContactOptions::with_horizon(rvz_search::times::rounds_total(3));
    let reference = RobotAttributes::reference();
    let mirror = reference
        .with_chirality(Chirality::Mirrored)
        .with_orientation(2.0);
    let cases = [
        (
            "feasible tau = 1",
            reference.with_speed(0.7),
            Vec2::new(0.3, 0.85),
            true,
        ),
        ("exact twin", reference, Vec2::new(0.9, 0.0), false),
        ("mirror twin", mirror, Vec2::from_polar(0.9, 1.0), false),
        (
            "tau != 1",
            reference.with_time_unit(0.6),
            Vec2::new(0.3, 0.85),
            true,
        ),
    ];
    for (name, attrs, offset, meets) in cases {
        let instance = RendezvousInstance::new(offset, 0.1, attrs).expect("valid instance");
        let warm = simulate_rendezvous_by_ref(&UniversalSearch, &instance, &opts);
        assert_eq!(warm.is_contact(), meets, "{name}: {warm}");
        let during = min_allocs(|| {
            std::hint::black_box(simulate_rendezvous_by_ref(
                &UniversalSearch,
                &instance,
                &opts,
            ));
        });
        assert_eq!(during, 0, "{name}: cursor queries allocated {during} times");
    }
}

#[test]
fn soa_kernel_queries_allocate_nothing_after_warmup() {
    let _serial = serial();
    let (_, control) = allocs(|| std::hint::black_box(vec![0_u8; 4096]));
    assert!(control > 0, "counting allocator is not registered");

    let horizon = rvz_search::times::rounds_total(3);
    let opts = ContactOptions::with_horizon(horizon);
    let arenas: Vec<ProgramSoA> = swarm(4, horizon)
        .iter()
        .map(ProgramSoA::from_program)
        .collect();
    let mut scratch = EngineScratch::new();

    for i in 0..arenas.len() {
        for j in (i + 1)..arenas.len() {
            first_contact_soa(&arenas[i], &arenas[j], 0.1, &opts, &mut scratch);
        }
    }
    let during = min_allocs(|| {
        for i in 0..arenas.len() {
            for j in (i + 1)..arenas.len() {
                std::hint::black_box(first_contact_soa(
                    &arenas[i],
                    &arenas[j],
                    0.1,
                    &opts,
                    &mut scratch,
                ));
            }
        }
    });
    assert_eq!(during, 0, "SoA kernel queries allocated {during} times");
}

/// `f`'s value and its wall time in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as f64)
}

/// The warm batch of the serve stack: six Algorithm 4 rendezvous
/// scenarios sharing one reference, each queried 32 times. Both arms
/// pay their lowering once, amortized over the batch; the SoA arm also
/// pays its arena builds. The lane kernel must stay within 10% of the
/// scalar loop's ns/query (the grace absorbs timer noise; a real
/// regression, such as the lane gate mispricing chunks, overshoots it).
#[test]
fn soa_kernel_is_not_slower_than_the_scalar_loop_on_a_warm_batch() {
    let _serial = serial();
    let horizon = rvz_search::times::rounds_total(3);
    let opts = ContactOptions::with_horizon(horizon);
    let copts = CompileOptions::to_horizon(horizon).max_pieces(1 << 19);
    let instances: Vec<RendezvousInstance> = [0.5, 0.6, 0.75, 0.9, 1.1, 1.25]
        .iter()
        .map(|&v| {
            let attrs = RobotAttributes::reference().with_speed(v);
            RendezvousInstance::new(Vec2::new(0.3, 0.85), 0.05, attrs).expect("valid instance")
        })
        .collect();
    let reps = 32;
    let queries = (reps * instances.len()) as f64;

    let ((reference, partners), compile_ns) = timed(|| {
        let reference = UniversalSearch.compile(&copts).expect("covers the horizon");
        let partners: Vec<CompiledProgram> = instances
            .iter()
            .map(|inst| {
                compile_rendezvous_partner(&UniversalSearch, inst, &copts)
                    .expect("covers the horizon")
            })
            .collect();
        (reference, partners)
    });
    let ((soa_reference, soa_partners), arena_ns) = timed(|| {
        let soa_reference = ProgramSoA::from_program(&reference);
        let soa_partners: Vec<ProgramSoA> = partners.iter().map(ProgramSoA::from_program).collect();
        (soa_reference, soa_partners)
    });

    let mut scratch = EngineScratch::new();
    for ((inst, partner), arena) in instances.iter().zip(&partners).zip(&soa_partners) {
        let r = inst.visibility();
        let scalar = first_contact_programs(&reference, partner, r, &opts, &mut scratch);
        let lanes = first_contact_soa(&soa_reference, arena, r, &opts, &mut scratch);
        assert_eq!(
            scalar.classification(),
            lanes.classification(),
            "arms disagree at v = {}",
            inst.attributes().speed()
        );
    }
    // Debug timings say nothing about release code; the ratio is
    // asserted in release only, so skip the timing rounds here.
    if cfg!(debug_assertions) {
        return;
    }
    let run_scalar = |scratch: &mut EngineScratch| {
        for _ in 0..reps {
            for (inst, partner) in instances.iter().zip(&partners) {
                std::hint::black_box(first_contact_programs(
                    &reference,
                    partner,
                    inst.visibility(),
                    &opts,
                    scratch,
                ));
            }
        }
    };
    let run_soa = |scratch: &mut EngineScratch| {
        for _ in 0..reps {
            for (inst, arena) in instances.iter().zip(&soa_partners) {
                std::hint::black_box(first_contact_soa(
                    &soa_reference,
                    arena,
                    inst.visibility(),
                    &opts,
                    scratch,
                ));
            }
        }
    };
    // Interleaved best-of rounds: transient interference lands on both
    // arms instead of skewing whichever ran during the spike.
    let (mut scalar_ns, mut soa_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..9 {
        scalar_ns = scalar_ns.min(timed(|| run_scalar(&mut scratch)).1);
        soa_ns = soa_ns.min(timed(|| run_soa(&mut scratch)).1);
    }
    let scalar_per_query = (scalar_ns + compile_ns) / queries;
    let soa_per_query = (soa_ns + compile_ns + arena_ns) / queries;
    assert!(
        soa_per_query <= 1.10 * scalar_per_query,
        "SoA lane kernel {soa_per_query:.0} ns/query vs scalar {scalar_per_query:.0} ns/query"
    );
}
