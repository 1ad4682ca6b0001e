//! The zero-allocation gate on the engine's steady-state query paths.
//!
//! Registers a counting global allocator for this test binary and
//! proves that, after a warm-up query, the compiled fast path
//! ([`first_contact_programs`]), the type-erased cursor path
//! ([`first_contact_dyn`]'s scoped stack cursors), and the SoA lane
//! kernel ([`first_contact_soa`]) perform **zero** heap allocations per
//! query. A positive control (an explicit
//! allocation observed by the counter) guards against the vacuous pass
//! where the allocator silently failed to register.
//!
//! The counter is process-wide and libtest runs tests on parallel
//! threads, so every test holds [`SERIAL`] from its set-up through its
//! last measurement: no test's set-up allocations can land in another
//! test's count.

use rvz_geometry::Vec2;
use rvz_model::RobotAttributes;
use rvz_search::UniversalSearch;
use rvz_sim::{
    first_contact_dyn, first_contact_programs, first_contact_soa, ContactOptions, EngineScratch,
};
use rvz_trajectory::{Compile, CompileOptions, CompiledProgram, MonotoneDyn, ProgramSoA};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

#[test]
fn cursor_dyn_queries_allocate_nothing() {
    let _serial = serial();
    let (_, control) = allocs(|| std::hint::black_box(vec![0_u8; 4096]));
    assert!(control > 0, "counting allocator is not registered");

    let horizon = rvz_search::times::rounds_total(3);
    let opts = ContactOptions::with_horizon(horizon);
    let a = UniversalSearch;
    let b = RobotAttributes::reference()
        .with_speed(0.7)
        .frame_warp(UniversalSearch, Vec2::new(1.5, -0.5));
    let da: &dyn MonotoneDyn = &a;
    let db: &dyn MonotoneDyn = &b;

    first_contact_dyn(da, db, 0.1, &opts);
    let during = min_allocs(|| {
        std::hint::black_box(first_contact_dyn(da, db, 0.1, &opts));
    });
    assert_eq!(during, 0, "dyn cursor queries allocated {during} times");
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
