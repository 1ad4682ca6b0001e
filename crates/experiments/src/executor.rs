//! The parallel batch executor: fan a scenario batch out across threads.
//!
//! Each scenario is an independent pure computation (build the instance,
//! run the contact engine), so the executor is one work-stealing loop
//! over a shared atomic cursor, run by `threads` threads: the calling
//! thread and `threads − 1` scoped helpers. Every thread pops the next
//! unclaimed scenario index and simulates it. Helpers send their records
//! over a channel; the calling thread hands its own records and the
//! helpers' to the record callback between its own scenarios, and
//! blocks on the channel only once the cursor is empty. The records are
//! kept by scenario index, so they come back in id order. At one thread
//! nothing is spawned and no record crosses the channel.
//!
//! Two properties follow by construction:
//!
//! * **Schedule independence** — a record depends only on its scenario,
//!   never on which thread ran it or in what order, so the merged output
//!   is *identical* for every thread count (this is tested, and it is
//!   what makes sweep artifacts diffable across machines);
//! * **One engine, one call** — every scenario runs through
//!   [`run_scenario`] on the monotone-cursor engine
//!   ([`simulate_rendezvous_by_ref`]): no per-thread lowering, no arena,
//!   no fallback. The cursor engine resolves a scenario at the cost of
//!   the near approaches it actually meets, which at sweep depths beats
//!   lowering the schedules into program arenas first. `rvz serve`
//!   answers a cache miss its lane kernel does not cover through the
//!   same function.
//!
//! The executor prints nothing. `rvz sweep`'s progress line and the
//! checkpoint journal both hang off the record callback of
//! [`run_sweep_with`].

use crate::scenario::{Algorithm, Scenario};
use rvz_core::WaitAndSearch;
use rvz_model::{feasibility, Feasibility};
use rvz_search::UniversalSearch;
use rvz_sim::batch::simulate_rendezvous_by_ref;
use rvz_sim::{ContactOptions, SimOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tuning for [`run_sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOptions {
    /// Threads that run scenarios, the caller included; `0` means one
    /// per available CPU.
    pub threads: usize,
    /// Engine options applied to every scenario.
    ///
    /// The default horizon is `PhaseSchedule::round_end(9)` — enough for
    /// every feasible scenario of moderate difficulty to meet — and the
    /// default step budget is 300 000. Pruned twins disprove in a few
    /// steps, so the budget binds only on unpruned mirror twins and on
    /// unusually hard pairs.
    pub contact: ContactOptions,
    /// Piece budget of `rvz serve`'s compiled path (`0` disables it):
    /// the service lowers each algorithm's reference, and streams each
    /// miss's partner, under this budget. The sweep executor itself
    /// never lowers — every scenario runs on the cursor engine — so the
    /// field does not change a sweep record.
    pub compile_pieces: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            contact: ContactOptions {
                tolerance: 1e-9,
                horizon: rvz_core::completion_time(9),
                max_steps: 300_000,
                ..ContactOptions::default()
            },
            compile_pieces: 32_768,
        }
    }
}

impl SweepOptions {
    /// The effective thread count, the caller included.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// One sweep result: the scenario, its Theorem 4 verdict, and the
/// simulated outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRecord {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// The Theorem 4 verdict for the scenario's attributes.
    pub feasibility: Feasibility,
    /// What the simulator observed.
    pub outcome: SimOutcome,
}

impl SweepRecord {
    /// `true` when prediction and observation agree: feasible scenarios
    /// make contact, infeasible ones do not.
    ///
    /// An exhausted step or wall-clock budget is counted as agreement
    /// for infeasible scenarios (the engine cannot *prove* non-contact
    /// in finite time) but as disagreement for feasible ones.
    pub fn consistent(&self) -> bool {
        match self.feasibility {
            Feasibility::Feasible(_) => self.outcome.is_contact(),
            Feasibility::Infeasible(_) => !self.outcome.is_contact(),
        }
    }

    /// The strict form of [`SweepRecord::consistent`] for adversarially
    /// placed infeasible scenarios: twins placed along the invariant
    /// direction must keep their distance at `≥ d` for the *whole* run,
    /// not merely avoid contact.
    ///
    /// Use this when the infeasible scenarios' bearings were chosen from
    /// [`rvz_model::InfeasibleReason::invariant_direction`] (as `rvz map`
    /// and the feasibility-map example do); under an arbitrary placement
    /// the distance of an infeasible pair may legitimately shrink.
    pub fn strictly_consistent(&self) -> bool {
        match self.feasibility {
            Feasibility::Feasible(_) => self.outcome.is_contact(),
            Feasibility::Infeasible(_) => {
                let d = self.scenario.distance;
                match self.outcome {
                    SimOutcome::Contact { .. } => false,
                    SimOutcome::Horizon { min_distance, .. }
                    | SimOutcome::StepBudget { min_distance, .. }
                    | SimOutcome::Deadline { min_distance, .. } => {
                        min_distance >= d - 1e-9 * d.max(1.0)
                    }
                }
            }
        }
    }
}

/// Runs one scenario on the monotone-cursor engine: the per-scenario
/// call behind every sweep worker, `rvz map`, and a `rvz serve` miss
/// that the lane kernel does not answer.
///
/// Each scenario is one `"scenario"` span in the flight recorder and
/// one sample in the `rvz_sweep_scenario_us` histogram — the per-worker
/// cost profile `/metrics` and the checkpoint trace dump read.
///
/// # Panics
///
/// Panics when the scenario does not describe a valid instance (the
/// generators and the wire decoder only produce valid ones).
pub fn run_scenario(scenario: &Scenario, opts: &ContactOptions) -> SweepRecord {
    rvz_obs::span!("scenario");
    let started = std::time::Instant::now();
    let instance = scenario
        .instance()
        .expect("generators only produce valid scenarios");
    let outcome = match scenario.algorithm {
        Algorithm::WaitAndSearch => simulate_rendezvous_by_ref(&WaitAndSearch, &instance, opts),
        Algorithm::UniversalSearch => simulate_rendezvous_by_ref(&UniversalSearch, &instance, opts),
    };
    rvz_obs::histogram!("rvz_sweep_scenario_us").observe(started.elapsed().as_micros() as u64);
    SweepRecord {
        scenario: *scenario,
        feasibility: feasibility(instance.attributes()),
        outcome,
    }
}

/// Runs every scenario and returns the records in scenario order.
///
/// Work is distributed dynamically (scenarios vary in cost by orders of
/// magnitude — a twin disproves in a step or two, a feasible pair that
/// meets late walks many rounds of near approaches), but the output is
/// independent of the schedule: records are merged back by scenario
/// index.
///
/// # Example
///
/// ```
/// use rvz_experiments::{run_sweep, ScenarioGrid, SweepOptions};
///
/// let scenarios = ScenarioGrid::new().speeds(&[0.5, 1.0]).build();
/// let records = run_sweep(&scenarios, &SweepOptions::default());
/// assert_eq!(records.len(), 2);
/// assert!(records.iter().all(|r| r.consistent()));
/// ```
///
/// # Panics
///
/// Panics when a scenario does not describe a valid instance (see
/// [`run_scenario`]), or when the engine panics on one.
pub fn run_sweep(scenarios: &[Scenario], opts: &SweepOptions) -> Vec<SweepRecord> {
    run_sweep_with(scenarios, opts, |_, _| {})
}

/// [`run_sweep`] with a completion callback: `on_record(i, record)` runs
/// on the calling thread once for every scenario, as soon as the calling
/// thread holds its record.
///
/// The calling thread is one of the `threads` threads that run
/// scenarios. After each of its own scenarios it passes on its record and
/// every record the helpers have finished since; once the cursor is
/// empty it waits for the helpers' last records. The callback therefore
/// sees records in **completion order**, which depends on the schedule;
/// only the returned vector is merged back into scenario order. This is
/// the seam the sweep checkpoint journal and `rvz sweep`'s progress
/// line hang off. A slow callback delays the calling thread's next scenario,
/// never a helper's.
///
/// # Panics
///
/// As for [`run_sweep`]; a panic in `on_record` propagates too. A
/// panicking helper surfaces as `sweep worker panicked` once the other
/// threads have finished. A panic on the calling thread drops the
/// channel, so the helpers stop at their next record and the panic
/// propagates once they have returned.
pub fn run_sweep_with(
    scenarios: &[Scenario],
    opts: &SweepOptions,
    mut on_record: impl FnMut(usize, &SweepRecord),
) -> Vec<SweepRecord> {
    let threads = opts.effective_threads().min(scenarios.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        scenarios.get(i).map(|scenario| (i, scenario))
    };
    let mut out: Vec<Option<SweepRecord>> = vec![None; scenarios.len()];
    let mut deliver = |i: usize, record: SweepRecord| {
        on_record(i, &record);
        out[i] = Some(record);
    };
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, SweepRecord)>();
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(move || {
                    while let Some((i, scenario)) = claim() {
                        if tx.send((i, run_scenario(scenario, &opts.contact))).is_err() {
                            return;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        while let Some((i, scenario)) = claim() {
            deliver(i, run_scenario(scenario, &opts.contact));
            for (i, record) in rx.try_iter() {
                deliver(i, record);
            }
        }
        // The cursor is empty: this receive ends once every helper has
        // dropped its sender, and a panicked helper surfaces at its join.
        for (i, record) in rx {
            deliver(i, record);
        }
        for helper in helpers {
            helper.join().expect("sweep worker panicked");
        }
    });

    out.into_iter()
        .map(|r| r.expect("every scenario index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioGrid;
    use rvz_model::Chirality;

    fn small_grid() -> Vec<Scenario> {
        ScenarioGrid::new()
            .speeds(&[0.5, 1.0])
            .clocks(&[0.6, 1.0])
            .orientations(&[0.0, 1.3])
            .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
            .distances(&[0.9])
            .visibilities(&[0.25])
            .build()
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let scenarios = small_grid();
        let seq = run_sweep(
            &scenarios,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let par = run_sweep(
            &scenarios,
            &SweepOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn records_are_the_cursor_engine_outcomes_exactly() {
        // At a shallow horizon that a program lowering would cover, the
        // executor still answers every scenario with the cursor engine:
        // each record's outcome is `simulate_rendezvous_by_ref`'s, bit
        // for bit and `steps` included, at any thread count.
        let scenarios = ScenarioGrid::new()
            .algorithms(&crate::Algorithm::ALL)
            .speeds(&[0.5, 1.0])
            .clocks(&[0.6, 1.0])
            .orientations(&[0.0, 1.3])
            .distances(&[0.9])
            .visibilities(&[0.25])
            .build();
        let contact = ContactOptions {
            horizon: rvz_search::times::rounds_total(4),
            max_steps: 300_000,
            ..ContactOptions::default()
        };
        let want: Vec<SimOutcome> = scenarios
            .iter()
            .map(|s| {
                let instance = s.instance().unwrap();
                match s.algorithm {
                    Algorithm::WaitAndSearch => {
                        simulate_rendezvous_by_ref(&WaitAndSearch, &instance, &contact)
                    }
                    Algorithm::UniversalSearch => {
                        simulate_rendezvous_by_ref(&UniversalSearch, &instance, &contact)
                    }
                }
            })
            .collect();
        for threads in [1, 4] {
            let records = run_sweep(
                &scenarios,
                &SweepOptions {
                    threads,
                    contact,
                    ..SweepOptions::default()
                },
            );
            for (r, w) in records.iter().zip(&want) {
                assert_eq!(
                    format!("{:?}", r.outcome),
                    format!("{w:?}"),
                    "threads={threads}: {:?}",
                    r.scenario
                );
            }
        }
    }

    #[test]
    fn callback_sees_every_record_exactly_once_any_thread_count() {
        let scenarios = small_grid();
        let reference = run_sweep(
            &scenarios,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [1, 4] {
            let mut seen = vec![0usize; scenarios.len()];
            let records = run_sweep_with(
                &scenarios,
                &SweepOptions {
                    threads,
                    ..Default::default()
                },
                |i, r| {
                    seen[i] += 1;
                    assert_eq!(r.scenario.id, i as u64, "callback index matches record");
                },
            );
            assert!(seen.iter().all(|&c| c == 1), "threads={threads}: {seen:?}");
            assert_eq!(records, reference, "threads={threads}");
        }
    }

    #[test]
    fn records_come_back_in_scenario_order() {
        let scenarios = small_grid();
        let records = run_sweep(&scenarios, &SweepOptions::default());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.scenario.id, i as u64);
        }
    }

    #[test]
    fn predictions_match_observations_on_the_theorem4_grid() {
        let records = run_sweep(&small_grid(), &SweepOptions::default());
        for r in &records {
            assert!(
                r.consistent(),
                "mismatch: {:?} gave {}",
                r.scenario,
                r.outcome
            );
        }
    }

    #[test]
    fn strict_consistency_holds_under_adversarial_placement() {
        // Mirror twins placed along the invariant direction (φ/2 for
        // φ = 0 twins is bearing 0 — UNIT_X, which `invariant_direction`
        // returns for identical twins).
        let scenarios = ScenarioGrid::new()
            .speeds(&[1.0])
            .clocks(&[1.0])
            .orientations(&[0.0])
            .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
            .bearings(&[0.0])
            .distances(&[0.9])
            .visibilities(&[0.25])
            .build();
        for rec in run_sweep(&scenarios, &SweepOptions::default()) {
            assert!(
                rec.strictly_consistent(),
                "adversarial twin moved closer: {:?} -> {}",
                rec.scenario,
                rec.outcome
            );
        }
        // A feasible contact is strictly consistent too.
        let feasible = ScenarioGrid::new()
            .speeds(&[0.5])
            .distances(&[0.9])
            .visibilities(&[0.25])
            .build();
        for rec in run_sweep(&feasible, &SweepOptions::default()) {
            assert!(rec.strictly_consistent() && rec.consistent());
        }
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let scenarios = ScenarioGrid::new().speeds(&[0.5]).build();
        let records = run_sweep(
            &scenarios,
            &SweepOptions {
                threads: 16,
                ..Default::default()
            },
        );
        assert_eq!(records.len(), 1);
    }
}
