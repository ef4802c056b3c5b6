//! Integration tests for the deterministic executor: step semantics,
//! determinism, crashes, stop conditions, and instrumentation.

mod common;

use common::{step_once, StepFn};
use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
use st_sim::{Automaton, Reg, RunConfig, RunStatus, Sim, Status, StepAccess, StopWhen};

/// Writes 1, 2, … into `r`, one write per step, and completes with the
/// write of `last`.
fn write_up_to(r: Reg<u64>, last: u64) -> StepFn<impl FnMut(&mut StepAccess<'_>) -> Status> {
    let mut i = 0u64;
    StepFn(move |mem: &mut StepAccess<'_>| {
        i += 1;
        mem.write(r, i);
        if i == last {
            Status::Done
        } else {
            Status::Running
        }
    })
}

/// Pauses forever.
fn idler() -> StepFn<impl FnMut(&mut StepAccess<'_>) -> Status> {
    StepFn(|mem: &mut StepAccess<'_>| {
        mem.pause();
        Status::Running
    })
}

fn universe(n: usize) -> Universe {
    Universe::new(n).unwrap()
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Each scheduled step performs exactly one register operation.
#[test]
fn one_operation_per_step() {
    let mut sim = Sim::new(universe(1));
    let r = sim.alloc("x", 0u64);
    let mut fleet = [write_up_to(r, 5)];

    // After s steps, exactly s writes have happened.
    for expected in 1..=4u64 {
        step_once(&mut sim, &mut fleet, 0);
        assert_eq!(sim.peek(r), expected);
        assert!(!sim.is_finished(pid(0)));
    }
    // The fifth write is the last operation: the machine completes in the
    // same step.
    step_once(&mut sim, &mut fleet, 0);
    assert_eq!(sim.peek(r), 5);
    assert!(sim.is_finished(pid(0)));
    // Further steps are idle no-ops, but real steps of the schedule.
    step_once(&mut sim, &mut fleet, 0);
    assert_eq!(sim.op_count(pid(0)), 5);
    assert_eq!(sim.steps_executed(), 6);
}

/// Local computation between operations is free: many local mutations happen
/// within a single step.
#[test]
fn local_computation_is_free() {
    let mut sim = Sim::new(universe(1));
    let r = sim.alloc("sum", 0u64);
    let sum = StepFn(move |mem: &mut StepAccess<'_>| {
        let mut local = 0u64;
        for i in 0..1000 {
            local += i; // free local work
        }
        mem.write(r, local); // exactly one step
        Status::Done
    });
    step_once(&mut sim, &mut [sum], 0);
    assert_eq!(sim.peek(r), 499_500);
    assert_eq!(sim.steps_executed(), 1);
}

/// Interleaving respects the schedule exactly: a register ping-pong between
/// two processes reproduces the scheduled order.
#[test]
fn interleaving_follows_schedule() {
    let mut sim = Sim::new(universe(2));
    // The log is a two-word register: (entries, entries as base-100
    // digits), read and written whole in one step.
    let log = sim.alloc("log", (0u64, 0u64));
    let mut fleet = Vec::new();
    for me in 0..2u64 {
        // Three rounds of: read the log, then write it back extended.
        let (mut round, mut cur) = (0u64, None::<(u64, u64)>);
        let append = StepFn(move |mem: &mut StepAccess<'_>| match cur.take() {
            None => {
                let (len, digits) = mem.read(log);
                cur = Some((len + 1, digits * 100 + me * 10 + round));
                Status::Running
            }
            Some(extended) => {
                mem.write(log, extended);
                round += 1;
                if round == 3 {
                    Status::Done
                } else {
                    Status::Running
                }
            }
        });
        fleet.push(append);
    }
    // p0 completes fully, then p1: strict sequential order.
    let mut src = ScheduleCursor::new(Schedule::from_indices([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]));
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(100))
        .unwrap();
    // [0, 1, 2, 10, 11, 12]
    assert_eq!(sim.peek(log), (6, 1_02_10_11_12));
}

/// The same seed/schedule gives bit-identical traces (determinism).
#[test]
fn deterministic_replay() {
    fn run_once() -> (Vec<Option<u64>>, u64) {
        let mut sim = Sim::new(universe(3));
        let regs = sim.alloc_per_process("v", 0u64);
        let mut fleet = Vec::new();
        for i in 0..3usize {
            let my = regs.at(i);
            // Write the own register, then read all of them and decide the
            // sum with the last read.
            let (mut next, mut sum) = (0usize, 0u64);
            let summer = StepFn(move |mem: &mut StepAccess<'_>| {
                if next == 0 {
                    mem.write(my, (i as u64 + 1) * 7);
                } else {
                    sum += mem.read(regs.at(next - 1));
                }
                next += 1;
                if next == 3 + 1 {
                    mem.decide(sum);
                    Status::Done
                } else {
                    Status::Running
                }
            });
            fleet.push(summer);
        }
        let sched: Vec<usize> = (0..60).map(|s| (s * 7 + s / 3) % 3).collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(100))
            .unwrap();
        let rep = sim.report();
        (
            rep.decisions.iter().map(|d| d.map(|x| x.value)).collect(),
            rep.steps,
        )
    }
    assert_eq!(run_once(), run_once());
}

/// Crashed processes stop making progress; their registers keep their last
/// written values. A crash is a schedule that stops scheduling the process,
/// as in the model: after its second step p0 is never scheduled again,
/// while p1 keeps writing.
#[test]
fn crash_freezes_process() {
    let mut sim = Sim::new(universe(2));
    let r = sim.alloc("x", 0u64);
    let s = sim.alloc("y", 0u64);
    let mut fleet = [write_up_to(r, 999), write_up_to(s, 999)];
    let mut src = ScheduleCursor::new(Schedule::from_indices([0, 1, 0, 1, 1, 1]));
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(10))
        .unwrap();
    assert_eq!(sim.peek(r), 2);
    assert_eq!(sim.peek(s), 4);
    assert!(!sim.is_finished(pid(0)));
}

/// StopWhen::AllDecided fires as soon as the set has decided, not later.
#[test]
fn stop_when_all_decided() {
    let mut sim = Sim::new(universe(3));
    let r = sim.alloc("x", 0u64);
    let mut fleet = Vec::new();
    for i in 0..3usize {
        let mut decided = false;
        let decide_then_idle = StepFn(move |mem: &mut StepAccess<'_>| {
            if decided {
                // Keep running forever after deciding.
                mem.pause();
            } else {
                let v = mem.read(r);
                mem.decide(v + i as u64);
                decided = true;
            }
            Status::Running
        });
        fleet.push(decide_then_idle);
    }
    let sched: Vec<usize> = (0..300).map(|s| s % 3).collect();
    let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
    let status = sim
        .run_automata(
            &mut fleet,
            &mut src,
            RunConfig::steps(300).stop_when(StopWhen::AllDecided(ProcSet::from_indices([0, 1, 2]))),
        )
        .unwrap();
    assert_eq!(status, RunStatus::Stopped);
    // All three decide at their first step each.
    assert!(
        sim.steps_executed() <= 3,
        "stopped late: {}",
        sim.steps_executed()
    );
}

/// AnyDecided stops at the first decision.
#[test]
fn stop_when_any_decided() {
    let mut sim = Sim::new(universe(2));
    let mut pauses = 0;
    let decide_on_second = StepFn(move |mem: &mut StepAccess<'_>| {
        mem.pause();
        pauses += 1;
        if pauses < 2 {
            return Status::Running;
        }
        mem.decide(42);
        Status::Done
    });
    let mut fleet: [Box<dyn Automaton>; 2] = [Box::new(decide_on_second), Box::new(idler())];
    let sched: Vec<usize> = (0..100).map(|s| s % 2).collect();
    let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
    let status = sim
        .run_automata(
            &mut fleet,
            &mut src,
            RunConfig::steps(100).stop_when(StopWhen::AnyDecided),
        )
        .unwrap();
    assert_eq!(status, RunStatus::Stopped);
    assert_eq!(sim.report().decision_value(pid(0)), Some(42));
}

/// Run status distinguishes budget exhaustion from source exhaustion.
#[test]
fn run_statuses() {
    let mut sim = Sim::new(universe(1));
    let mut fleet = [idler()];
    let mut src = ScheduleCursor::new(Schedule::from_indices([0, 0, 0]));
    assert_eq!(
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(10))
            .unwrap(),
        RunStatus::SourceEnded
    );
    let mut src2 = ScheduleCursor::new(Schedule::from_indices(vec![0; 50]));
    assert_eq!(
        sim.run_automata(&mut fleet, &mut src2, RunConfig::steps(5))
            .unwrap(),
        RunStatus::MaxSteps
    );
    assert_eq!(sim.steps_executed(), 8);
}

/// Probes are free (no steps) and recorded with the right step indices.
#[test]
fn probes_are_free_and_ordered() {
    let mut sim = Sim::new(universe(1));
    let r = sim.alloc("x", 0u64);
    let mut first = true;
    let prober = StepFn(move |mem: &mut StepAccess<'_>| {
        if first {
            first = false;
            mem.probe("phase", 1);
            mem.write(r, 1);
            mem.probe("phase", 2);
            mem.probe_set("members", ProcSet::from_indices([0, 3]));
            return Status::Running;
        }
        mem.write(r, 2);
        mem.probe("phase", 3);
        Status::Done
    });
    let mut src = ScheduleCursor::new(Schedule::from_indices(vec![0; 10]));
    sim.run_automata(&mut [prober], &mut src, RunConfig::steps(10))
        .unwrap();
    let rep = sim.report();
    let tl = rep.probes.timeline(pid(0), "phase");
    assert_eq!(
        tl.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    assert_eq!(
        rep.probes.last_value(pid(0), "members"),
        Some(ProcSet::from_indices([0, 3]).bits())
    );
    // Probes took no steps: the two writes are the process's only
    // operations, and it finished with the second.
    assert_eq!(rep.op_counts[0], 2);
    assert!(rep.finished[0]);
}

/// Double decide panics.
#[test]
fn double_decide_panics() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Sim::new(universe(1));
        let decide_twice = StepFn(|mem: &mut StepAccess<'_>| {
            mem.decide(1);
            mem.decide(2);
            Status::Done
        });
        step_once(&mut sim, &mut [decide_twice], 0);
    }));
    assert!(result.is_err(), "double decide must panic");
}

/// Write-discipline violations surface as panics naming the register.
#[test]
fn single_writer_violation_panics() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Sim::new(universe(2));
        let hb = sim.alloc_per_process("Heartbeat", 0u64);
        // p1 tries to write p0's heartbeat.
        let trespass = StepFn(move |mem: &mut StepAccess<'_>| {
            mem.write(hb.at(0), 9);
            Status::Done
        });
        let mut fleet: [Box<dyn Automaton>; 2] = [Box::new(idler()), Box::new(trespass)];
        step_once(&mut sim, &mut fleet, 1);
    }));
    assert!(result.is_err());
}

/// Report helpers: decided set, all-decided step, agreement outcome.
#[test]
fn report_helpers() {
    let mut sim = Sim::new(universe(3));
    let decide_five = || {
        StepFn(|mem: &mut StepAccess<'_>| {
            mem.pause();
            mem.decide(5);
            Status::Done
        })
    };
    let mut fleet: [Box<dyn Automaton>; 3] = [
        Box::new(decide_five()),
        Box::new(decide_five()),
        Box::new(idler()),
    ];
    let mut src = ScheduleCursor::new(Schedule::from_indices([0, 0, 1, 1]));
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(10))
        .unwrap();
    let rep = sim.report();
    assert_eq!(rep.decided_set(), ProcSet::from_indices([0, 1]));
    assert_eq!(rep.all_decided_step(ProcSet::from_indices([0, 1])), Some(2));
    assert_eq!(rep.all_decided_step(ProcSet::from_indices([0, 2])), None);

    let outcome = rep.agreement_outcome(&[5, 5, 7], ProcSet::from_indices([0, 1]));
    assert_eq!(outcome.decisions, vec![Some(5), Some(5), None]);
}

/// A bad schedule is a typed error from the cursor drive, not a panic;
/// steps before the offending one executed and remain visible.
#[test]
fn run_surfaces_out_of_universe_schedule_as_error() {
    use st_sim::SimError;
    let mut sim = Sim::new(universe(2));
    let r = sim.alloc("x", 0u64);
    let mut fleet = Vec::new();
    for _ in 0..2usize {
        let mut read: Option<u64> = None;
        let incr = StepFn(move |mem: &mut StepAccess<'_>| {
            match read.take() {
                None => read = Some(mem.read(r)),
                Some(v) => mem.write(r, v + 1),
            }
            Status::Running
        });
        fleet.push(incr);
    }
    let mut src = ScheduleCursor::new(Schedule::from_indices([0, 1, 9, 0]));
    let err = sim
        .run_automata(&mut fleet, &mut src, RunConfig::steps(10))
        .unwrap_err();
    assert_eq!(
        err,
        SimError::ScheduleOutOfUniverse {
            process: pid(9),
            n: 2
        }
    );
    // The two good steps ran; the sim is still usable afterwards.
    assert_eq!(sim.steps_executed(), 2);
    let mut rest = ScheduleCursor::new(Schedule::from_indices([0, 1]));
    assert_eq!(
        sim.run_automata(&mut fleet, &mut rest, RunConfig::steps(10))
            .unwrap(),
        RunStatus::SourceEnded
    );
    assert_eq!(sim.steps_executed(), 4);
}

/// An out-of-universe step in the middle of a block: `run_automata` pulls
/// the block whole, executes the steps before the bad one — batched, at
/// this n — and returns the error; the source has advanced to the block's
/// end, and the simulation stays usable.
#[test]
fn out_of_universe_step_mid_block_runs_the_steps_before_it() {
    use common::SumScan;
    use st_sim::{SimError, SOA_DELEGATE_BELOW_N};
    let n = SOA_DELEGATE_BELOW_N;
    let build = || {
        let mut sim = Sim::new(universe(n));
        let shared = (0..8)
            .map(|i| sim.alloc(format!("shared[{i}]"), 3u64))
            .collect::<Vec<_>>();
        let outs = (0..n)
            .map(|i| sim.alloc(format!("out[{i}]"), 0u64))
            .collect::<Vec<_>>();
        let fleet: Vec<SumScan> = (0..n)
            .map(|i| SumScan::new(shared[0], outs[i], 8, 1_000))
            .collect();
        (sim, fleet)
    };
    // Dwells of 12 across scan ends: dwell windows and scalar writes.
    let good = Schedule::from_indices((0..1_000).map(|s| (s / 12) % n));
    let mut steps: Vec<ProcessId> = good.iter().collect();
    steps.push(pid(n + 5));
    steps.extend((0..500).map(|s| pid(s % n)));
    let mut src = ScheduleCursor::new(Schedule::from_steps(steps));
    let (mut sim, mut fleet) = build();
    let err = sim
        .run_automata(&mut fleet, &mut src, RunConfig::steps(100_000))
        .unwrap_err();
    assert_eq!(
        err,
        SimError::ScheduleOutOfUniverse {
            process: pid(n + 5),
            n
        }
    );
    assert_eq!(src.remaining(), 0, "the block took the whole source");
    // The good steps ran, exactly as a replay of them runs.
    let (mut reference, mut reference_fleet) = build();
    reference
        .run_automata_replay(&mut reference_fleet, &good, RunConfig::steps(1_000))
        .unwrap();
    assert_eq!(sim.steps_executed(), 1_000);
    assert_eq!(
        format!("{:?}", sim.report()),
        format!("{:?}", reference.report())
    );
    let mut rest = ScheduleCursor::new(Schedule::from_indices((0..64).map(|s| s % n)));
    assert_eq!(
        sim.run_automata(&mut fleet, &mut rest, RunConfig::steps(64)),
        Ok(RunStatus::MaxSteps)
    );
    assert_eq!(sim.steps_executed(), 1_064);
}

/// `try_peek` surfaces foreign handles and type confusion as typed errors.
#[test]
fn try_peek_returns_typed_errors() {
    use st_sim::{Reg, SimError};
    let mut sim = Sim::new(universe(1));
    let r = sim.alloc("x", 7u64);
    assert_eq!(sim.try_peek(r), Ok(7));
    // A handle no simulator allocated.
    let foreign: Reg<u64> = {
        let mut other = Sim::new(universe(1));
        let _ = other.alloc("a", 0u64);
        let _ = other.alloc("b", 0u64);
        other.alloc("c", 0u64)
    };
    assert!(matches!(
        sim.try_peek(foreign),
        Err(SimError::UnknownRegister { .. })
    ));
}
