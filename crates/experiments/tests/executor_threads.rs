//! The sweep executor's threading contract: the calling thread runs
//! scenarios at every thread count, the record callback runs only on
//! the calling thread, and a panic anywhere ends the sweep instead of
//! hanging it.
//!
//! This is a test binary of its own because the flight recorder it
//! reads is process-wide. The tests share one lock, so no other sweep
//! in this binary writes spans while one of them reads the ring.

use rvz_experiments::{run_sweep, run_sweep_with, Scenario, ScenarioGrid, SweepOptions};
use rvz_model::Chirality;
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// 48 feasible τ ≠ 1 scenarios: each walks rounds of near approaches
/// before it meets, so none finishes in a step or two.
fn batch() -> Vec<Scenario> {
    ScenarioGrid::new()
        .speeds(&[0.5, 0.75, 1.0, 1.25])
        .clocks(&[0.6, 0.8])
        .orientations(&[0.0, 1.3, 2.6])
        .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
        .distances(&[0.9])
        .visibilities(&[0.25])
        .build()
}

fn threads(threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        ..SweepOptions::default()
    }
}

#[test]
fn calling_thread_runs_scenarios_alongside_its_helper() {
    let _serial = serial();
    let scenarios = batch();
    assert!(scenarios.len() <= 64);
    let caller = rvz_obs::thread_ord();
    let records = run_sweep(&scenarios, &threads(2));
    assert_eq!(records.len(), scenarios.len());
    let spans: Vec<_> = rvz_obs::recent(rvz_obs::RING_CAPACITY)
        .into_iter()
        .filter(|e| e.name == "scenario")
        .take(scenarios.len())
        .collect();
    assert_eq!(spans.len(), scenarios.len(), "one span per scenario");
    assert!(
        spans.iter().any(|e| e.thread == caller),
        "no scenario ran on the calling thread (ord {caller}): {:?}",
        spans.iter().map(|e| e.thread).collect::<Vec<_>>()
    );
}

#[test]
fn record_callback_runs_on_the_calling_thread_at_every_thread_count() {
    let _serial = serial();
    let scenarios = batch();
    let caller = std::thread::current().id();
    for n in [1, 2, 4] {
        let mut seen: Vec<ThreadId> = Vec::new();
        run_sweep_with(&scenarios, &threads(n), |_, _| {
            seen.push(std::thread::current().id());
        });
        assert_eq!(seen.len(), scenarios.len(), "threads={n}");
        assert!(
            seen.iter().all(|&id| id == caller),
            "threads={n}: the callback ran off the calling thread"
        );
    }
}

#[test]
fn an_invalid_scenario_panics_instead_of_hanging() {
    let _serial = serial();
    let valid = batch();
    let mut invalid = valid[0];
    invalid.visibility = -1.0;
    assert!(invalid.instance().is_err());
    // The bad scenario first, in the middle and last, so that the
    // calling thread and a helper each get to claim it on some run.
    let batches: Vec<Vec<Scenario>> = [0, valid.len() / 2, valid.len()]
        .into_iter()
        .map(|at| {
            let mut b = valid.clone();
            b.insert(at, invalid);
            b
        })
        .collect();
    for n in [1, 2, 4] {
        for (k, b) in batches.iter().enumerate() {
            let b = b.clone();
            let (done, finished) = mpsc::channel();
            // A watchdog: a hung sweep fails the test rather than the
            // run. The sweep thread is left behind in that case.
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| run_sweep(&b, &threads(n)));
                let _ = done.send(outcome.is_err());
            });
            let panicked = finished
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("threads={n}, batch {k}: the sweep hung"));
            assert!(panicked, "threads={n}, batch {k}: the sweep did not panic");
        }
    }
}

#[test]
fn a_panicking_callback_stops_the_helpers() {
    let _serial = serial();
    let scenarios = batch();
    for n in [1, 2, 4] {
        let s = scenarios.clone();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                run_sweep_with(&s, &threads(n), |i, _| {
                    assert!(i == usize::MAX, "callback gives up");
                })
            });
            let _ = done.send(outcome.is_err());
        });
        let panicked = finished
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("threads={n}: the sweep hung"));
        assert!(panicked, "threads={n}: the callback's panic was lost");
    }
}
