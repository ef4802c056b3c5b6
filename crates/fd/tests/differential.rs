//! Differential tests: the async k-anti-Ω transcription against the
//! [`KAntiOmegaMachine`] state machine, on identical schedules.
//!
//! The state-machine port is only admissible as "the same algorithm" if it
//! is **observationally identical** step-for-step: the same winnerset probe
//! sequence at the same step indices, the same decisions, the same register
//! writes in the same order (checked through per-register read/write counts
//! and final register contents), and the same per-process operation counts.
//! This suite enforces that on the three schedule families the experiments
//! use: round-robin, seeded-random, and the Figure 1 starvation schedule.

use st_core::{ProcessId, Schedule, ScheduleCursor, StepSource, Universe};
use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy};
use st_sched::{Figure1, SeededRandom};
use st_sim::{RegisterStats, RunConfig, RunReport, Sim};

/// How the detector is executed: the async transcription, the state machine
/// in a dyn slot, or the typed fleet on the replay drive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Async,
    MachineSlot,
    FleetReplay,
}

/// The run's per-register access statistics, checked to be worth
/// comparing: an empty or all-zero list would make the comparison vacuous.
fn access_stats(sim: &Sim) -> Vec<RegisterStats> {
    let stats = sim.register_stats();
    assert!(
        stats.iter().any(|s| s.reads > 0),
        "no register was ever read"
    );
    stats
}

/// Runs one detector per process over `schedule` in the chosen mode and
/// returns the report and register statistics plus the final
/// heartbeat/counter register contents.
fn run_kanti(
    n: usize,
    config: KAntiOmegaConfig,
    schedule: &Schedule,
    mode: Mode,
) -> (RunReport, Vec<RegisterStats>, Vec<u64>) {
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::alloc(&mut sim, config);
    let budget = schedule.len() as u64;
    match mode {
        Mode::Async => {
            for p in universe.processes() {
                let fd = fd.clone();
                sim.spawn(p, move |ctx| fd.run(ctx)).unwrap();
            }
            let mut src = ScheduleCursor::new(schedule.clone());
            sim.run(&mut src, RunConfig::steps(budget)).unwrap();
        }
        Mode::MachineSlot => {
            for p in universe.processes() {
                sim.spawn_automaton(p, fd.machine()).unwrap();
            }
            let mut src = ScheduleCursor::new(schedule.clone());
            sim.run(&mut src, RunConfig::steps(budget)).unwrap();
        }
        Mode::FleetReplay => {
            let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
            sim.run_automata_replay(&mut fleet, schedule, RunConfig::steps(budget))
                .unwrap();
        }
    }

    let mut registers = Vec::new();
    for p in universe.processes() {
        registers.push(fd.peek_heartbeat(&sim, p));
    }
    for rank in 0..fd.set_count() {
        for q in universe.processes() {
            registers.push(fd.peek_counter(&sim, rank, q));
        }
    }
    (sim.report(), access_stats(&sim), registers)
}

/// Asserts full observational equality of every execution mode on one
/// workload, taking the async transcription as the reference.
fn assert_identical(n: usize, k: usize, t: usize, schedule: Schedule, label: &str) {
    for policy in [TimeoutPolicy::Increment, TimeoutPolicy::Double] {
        let config = KAntiOmegaConfig::new(k, t).with_policy(policy);
        let (async_rep, async_stats, async_regs) = run_kanti(n, config, &schedule, Mode::Async);
        for mode in [Mode::MachineSlot, Mode::FleetReplay] {
            let (machine_rep, machine_stats, machine_regs) = run_kanti(n, config, &schedule, mode);

            assert_eq!(
                async_rep.steps, machine_rep.steps,
                "{label}/{policy:?}/{mode:?}: step counts diverged"
            );
            // The winnerset probe sequence is the detector's observable
            // output: step-for-step identity, including publication step
            // indices.
            assert_eq!(
                async_rep.probes.events(),
                machine_rep.probes.events(),
                "{label}/{policy:?}/{mode:?}: probe sequences diverged"
            );
            assert_eq!(
                async_rep.decisions, machine_rep.decisions,
                "{label}/{policy:?}/{mode:?}: decisions diverged"
            );
            assert_eq!(
                async_rep.op_counts, machine_rep.op_counts,
                "{label}/{policy:?}/{mode:?}: per-process op counts diverged"
            );
            // Same registers, same read/write counts per register, same
            // final contents: the shared-memory footprints are
            // indistinguishable.
            assert_eq!(
                async_stats, machine_stats,
                "{label}/{policy:?}/{mode:?}: register access statistics diverged"
            );
            assert_eq!(
                async_regs, machine_regs,
                "{label}/{policy:?}/{mode:?}: final register contents diverged"
            );
        }
    }
}

fn round_robin(n: usize, len: usize) -> Schedule {
    Schedule::from_indices((0..len).map(|s| s % n))
}

#[test]
fn round_robin_schedules_are_identical() {
    assert_identical(3, 1, 1, round_robin(3, 30_000), "rr n=3 k=1 t=1");
    assert_identical(4, 2, 2, round_robin(4, 40_000), "rr n=4 k=2 t=2");
    assert_identical(5, 2, 3, round_robin(5, 50_000), "rr n=5 k=2 t=3");
}

#[test]
fn seeded_random_schedules_are_identical() {
    for seed in [1u64, 0xDEAD, 0xFEED_5EED] {
        let u = Universe::new(4).unwrap();
        let s = SeededRandom::new(u, seed).take_schedule(40_000);
        assert_identical(4, 1, 2, s.clone(), "rnd k=1 t=2");
        assert_identical(4, 2, 3, s, "rnd k=2 t=3");
    }
}

#[test]
fn figure1_schedule_is_identical() {
    // The Figure 1 schedule starves each of p0, p1 for unboundedly long
    // stretches — the detector's timers expire heavily, exercising the
    // accusation-write phase on both ABIs.
    let s =
        Figure1::new(ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)).take_schedule(30_000);
    assert_identical(3, 1, 1, s.clone(), "fig1 k=1 t=1");
    assert_identical(3, 1, 2, s, "fig1 k=1 t=2");
}

#[test]
fn unrecorded_fast_loops_match_recorded_runs() {
    // The schedule-slice fast loop of `run_automata_replay` (no stop
    // condition) against the async general loop, on schedules and a
    // `(k, t)` that `assert_identical` does not use. The observable trace
    // must not change.
    let n = 4;
    let u = Universe::new(n).unwrap();
    let schedules = [
        ("rr", round_robin(n, 20_000)),
        ("rnd", SeededRandom::new(u, 0xFA57).take_schedule(20_000)),
    ];
    for (label, schedule) in &schedules {
        for policy in [TimeoutPolicy::Increment, TimeoutPolicy::Double] {
            let config = KAntiOmegaConfig::new(2, 2).with_policy(policy);
            let run = |machine: bool| {
                let universe = Universe::new(n).unwrap();
                let mut sim = Sim::new(universe);
                let fd = KAntiOmega::alloc(&mut sim, config);
                if machine {
                    let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
                    sim.run_automata_replay(
                        &mut fleet,
                        schedule,
                        RunConfig::steps(schedule.len() as u64),
                    )
                    .unwrap();
                } else {
                    for p in universe.processes() {
                        let fd = fd.clone();
                        sim.spawn(p, move |ctx| fd.run(ctx)).unwrap();
                    }
                    let mut src = ScheduleCursor::new(schedule.clone());
                    sim.run(&mut src, RunConfig::steps(schedule.len() as u64))
                        .unwrap();
                }
                let mut registers = Vec::new();
                for p in universe.processes() {
                    registers.push(fd.peek_heartbeat(&sim, p));
                }
                for rank in 0..fd.set_count() {
                    for q in universe.processes() {
                        registers.push(fd.peek_counter(&sim, rank, q));
                    }
                }
                (sim.report(), access_stats(&sim), registers)
            };
            let (async_rep, async_stats, async_regs) = run(false);
            let (fleet_rep, fleet_stats, fleet_regs) = run(true);
            assert_eq!(
                async_rep.probes.events(),
                fleet_rep.probes.events(),
                "{label}/{policy:?}: probe sequences diverged on the fast loop"
            );
            assert_eq!(async_rep.steps, fleet_rep.steps, "{label}/{policy:?}");
            assert_eq!(
                async_rep.decisions, fleet_rep.decisions,
                "{label}/{policy:?}"
            );
            assert_eq!(
                async_rep.op_counts, fleet_rep.op_counts,
                "{label}/{policy:?}"
            );
            assert_eq!(async_stats, fleet_stats, "{label}/{policy:?}");
            assert_eq!(async_regs, fleet_regs, "{label}/{policy:?}");
        }
    }
}

#[test]
fn crash_mid_iteration_keeps_survivors_identical() {
    // Stop scheduling p1 mid-run (the model's crash): the surviving
    // processes' observable behavior must stay identical across ABIs.
    let n = 3;
    let mut steps: Vec<usize> = (0..10_000).map(|s| s % n).collect();
    steps.extend((0..20_000).map(|s| s % (n - 1)));
    assert_identical(3, 1, 2, Schedule::from_indices(steps), "crash n=3");
}
