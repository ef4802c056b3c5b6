//! Integration tests for the automaton ABI: step semantics, the
//! one-operation-per-step discipline, completion, crashes, and the fleet
//! drives — typed and boxed.

mod common;

use common::{step_once, SumScan};
use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
use st_sim::{Automaton, Reg, RegisterStats, RunConfig, Sim, Status, StepAccess, StopWhen};

fn universe(n: usize) -> Universe {
    Universe::new(n).unwrap()
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Write 1..=limit into a register, one write per step, then decide.
struct CountUp {
    reg: Reg<u64>,
    next: u64,
    limit: u64,
}

impl Automaton for CountUp {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        mem.write_word(self.reg, self.next);
        if self.next == self.limit {
            mem.decide(self.next);
            Status::Done
        } else {
            self.next += 1;
            Status::Running
        }
    }
}

#[test]
fn one_operation_per_step_and_completion() {
    let mut sim = Sim::new(universe(1));
    let r = sim.alloc("x", 0u64);
    let mut fleet = [CountUp {
        reg: r,
        next: 1,
        limit: 5,
    }];

    for expected in 1..=4u64 {
        step_once(&mut sim, &mut fleet, 0);
        assert_eq!(sim.peek(r), expected);
        assert!(!sim.is_finished(pid(0)));
    }
    step_once(&mut sim, &mut fleet, 0);
    assert_eq!(sim.peek(r), 5);
    assert!(sim.is_finished(pid(0)));
    // A finished machine's steps count but do nothing.
    step_once(&mut sim, &mut fleet, 0);
    assert_eq!(sim.steps_executed(), 6);
    assert_eq!(sim.op_count(pid(0)), 5);
    assert_eq!(sim.decisions()[0].map(|d| d.value), Some(5));
}

/// A second register operation in the same step is a protocol bug and
/// panics.
#[test]
fn two_operations_in_one_step_panic() {
    struct DoubleOp {
        reg: Reg<u64>,
    }
    impl Automaton for DoubleOp {
        fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
            let v = mem.read_word(self.reg);
            mem.write_word(self.reg, v + 1); // second op: must panic
            Status::Running
        }
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sim = Sim::new(universe(1));
        let r = sim.alloc("x", 0u64);
        step_once(&mut sim, &mut [DoubleOp { reg: r }], 0);
    }));
    assert!(result.is_err(), "two ops in one step must panic");
}

/// Probes are free, pause consumes the step, and stop conditions see
/// machine decisions.
#[test]
fn probes_pause_and_stop_conditions() {
    struct Prober {
        ticks: u64,
    }
    impl Automaton for Prober {
        fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
            self.ticks += 1;
            mem.probe("tick", self.ticks);
            mem.pause();
            if self.ticks == 3 {
                mem.decide(99);
            }
            Status::Running
        }
    }
    let mut sim = Sim::new(universe(1));
    let mut src = ScheduleCursor::new(Schedule::from_indices(vec![0; 50]));
    let status = sim
        .run_automata(
            &mut [Prober { ticks: 0 }],
            &mut src,
            RunConfig::steps(50).stop_when(StopWhen::AllDecided(ProcSet::from_indices([0]))),
        )
        .unwrap();
    assert_eq!(status, st_sim::RunStatus::Stopped);
    assert_eq!(sim.steps_executed(), 3); // decided on the third tick
    assert_eq!(sim.report().probes.len(), 3);
    // Pauses are steps but not register operations.
    assert_eq!(sim.op_count(pid(0)), 0);
    let rep = sim.report();
    assert_eq!(
        rep.probes.timeline(pid(0), "tick"),
        vec![(0, 1), (1, 2), (2, 3)]
    );
}

/// Crashing a machine freezes it. A crash is a schedule that stops
/// scheduling the process: p0's register keeps the value of its last step
/// while p1 runs on, and p0 never finishes.
#[test]
fn crash_freezes_machine() {
    let mut sim = Sim::new(universe(2));
    let regs = (0..2)
        .map(|i| sim.alloc(format!("x[{i}]"), 0u64))
        .collect::<Vec<_>>();
    let mut fleet: Vec<CountUp> = regs
        .iter()
        .map(|&reg| CountUp {
            reg,
            next: 1,
            limit: 1_000,
        })
        .collect();
    let crashed_after_two = Schedule::from_indices([0, 1, 0].into_iter().chain([1; 20]));
    let mut src = ScheduleCursor::new(crashed_after_two);
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(100))
        .unwrap();
    assert_eq!(sim.peek(regs[0]), 2);
    assert_eq!(sim.peek(regs[1]), 21);
    assert!(!sim.is_finished(pid(0)));
    assert_eq!(sim.op_count(pid(0)), 2);
}

/// The typed fleet runner: statically dispatched machines, completion
/// semantics and op accounting.
#[test]
fn fleet_runner_matches_slot_semantics() {
    let n = 3;
    let mut sim = Sim::new(universe(n));
    let regs = (0..n)
        .map(|i| sim.alloc(format!("c[{i}]"), 0u64))
        .collect::<Vec<_>>();
    let mut fleet: Vec<CountUp> = regs
        .iter()
        .enumerate()
        .map(|(i, &reg)| CountUp {
            reg,
            next: 1,
            limit: (i as u64 + 1) * 2,
        })
        .collect();
    let sched: Vec<usize> = (0..60).map(|s| s % n).collect();
    let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
    let status = sim
        .run_automata(&mut fleet, &mut src, RunConfig::steps(100))
        .unwrap();
    assert_eq!(status, st_sim::RunStatus::SourceEnded);
    // Every machine ran to its limit, then its steps became no-ops.
    for (i, &reg) in regs.iter().enumerate() {
        assert_eq!(sim.peek(reg), (i as u64 + 1) * 2);
        assert!(sim.is_finished(pid(i)));
        assert_eq!(sim.op_count(pid(i)), (i as u64 + 1) * 2);
        assert_eq!(
            sim.decisions()[i].map(|d| d.value),
            Some((i as u64 + 1) * 2)
        );
    }
    assert_eq!(sim.steps_executed(), 60);
}

/// The replay drive is equivalent to a cursor over the same schedule.
#[test]
fn replay_drive_equals_cursor_drive() {
    let n = 2;
    let schedule = Schedule::from_indices((0..40).map(|s| s % n));
    let run = |replay: bool| {
        let mut sim = Sim::new(universe(n));
        let regs = (0..n)
            .map(|i| sim.alloc(format!("c[{i}]"), 0u64))
            .collect::<Vec<_>>();
        let mut fleet: Vec<CountUp> = (0..n)
            .map(|i| CountUp {
                reg: regs[i],
                next: 1,
                limit: 100,
            })
            .collect();
        if replay {
            sim.run_automata_replay(&mut fleet, &schedule, RunConfig::steps(100))
                .unwrap();
        } else {
            let mut src = ScheduleCursor::new(schedule.clone());
            sim.run_automata(&mut fleet, &mut src, RunConfig::steps(100))
                .unwrap();
        }
        (
            sim.steps_executed(),
            sim.peek(regs[0]),
            sim.peek(regs[1]),
            sim.op_count(pid(0)),
        )
    };
    assert_eq!(run(false), run(true));
}

/// The fleet runner honors stop conditions through the general loop.
#[test]
fn fleet_runner_stop_condition() {
    let mut sim = Sim::new(universe(1));
    let r = sim.alloc("x", 0u64);
    let mut fleet = vec![CountUp {
        reg: r,
        next: 1,
        limit: 3,
    }];
    let mut src = ScheduleCursor::new(Schedule::from_indices(vec![0; 50]));
    let status = sim
        .run_automata(
            &mut fleet,
            &mut src,
            RunConfig::steps(50).stop_when(StopWhen::AllDecided(ProcSet::from_indices([0]))),
        )
        .unwrap();
    assert_eq!(status, st_sim::RunStatus::Stopped);
    assert_eq!(sim.peek(r), 3);
}

/// A schedule naming a process outside the universe yields a typed `Err`
/// from every fleet drive — not a panic — and (for the replay drives) the
/// simulation is untouched.
#[test]
fn out_of_universe_schedule_is_a_typed_error() {
    use st_sim::SimError;
    let n = 2;
    let bad = Schedule::from_indices([0, 1, 5, 0]);

    // Replay drives validate the whole prefix up front: nothing executes.
    let mut sim = Sim::new(universe(n));
    let regs = (0..n)
        .map(|i| sim.alloc(format!("c[{i}]"), 0u64))
        .collect::<Vec<_>>();
    let mut fleet: Vec<CountUp> = (0..n)
        .map(|i| CountUp {
            reg: regs[i],
            next: 1,
            limit: 100,
        })
        .collect();
    let err = sim
        .run_automata_replay(&mut fleet, &bad, RunConfig::steps(100))
        .unwrap_err();
    assert_eq!(
        err,
        SimError::ScheduleOutOfUniverse {
            process: pid(5),
            n: 2
        }
    );
    assert_eq!(
        sim.steps_executed(),
        0,
        "replay must validate before running"
    );
    // The generator-driven drive errors at the offending step; prior steps
    // have executed.
    let mut src = ScheduleCursor::new(bad.clone());
    let err = sim
        .run_automata(&mut fleet, &mut src, RunConfig::steps(100))
        .unwrap_err();
    assert!(matches!(err, SimError::ScheduleOutOfUniverse { .. }));
    assert_eq!(sim.steps_executed(), 2);
    assert!(err.to_string().contains("outside the simulated universe"));
}

const SCAN_WORDS: usize = 5;

/// The entry points of the one step kernel, as the table enumerates them.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Fleet,
    BoxedFleet,
    Replay,
    ReplaySoa,
}

const ENTRIES: [Entry; 4] = [
    Entry::Fleet,
    Entry::BoxedFleet,
    Entry::Replay,
    Entry::ReplaySoa,
];

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<st_sim::RunStatus, st_sim::SimError>,
    steps: u64,
    ops: Vec<u64>,
    probes: Vec<String>,
    decisions: Vec<Option<(u64, u64)>>,
    finished: Vec<bool>,
    outs: Vec<u64>,
    register_stats: Vec<RegisterStats>,
}

/// Runs a three-process [`SumScan`] fleet (round limits 2, 5 and 100:
/// process 0 completes early in the run, process 1 midway, process 2 never)
/// through `entry` and observes the outcome.
fn drive(entry: Entry, schedule: &Schedule, cfg: RunConfig) -> Observed {
    let n = 3;
    let mut sim = Sim::new(universe(n));
    let shared: Vec<Reg<u64>> = (0..SCAN_WORDS)
        .map(|i| sim.alloc(format!("shared{i}"), 10 + i as u64))
        .collect();
    let outs = (0..n)
        .map(|i| sim.alloc(format!("out[{i}]"), 0u64))
        .collect::<Vec<_>>();
    let mut fleet: Vec<SumScan> = [2, 5, 100]
        .iter()
        .zip(&outs)
        .map(|(&limit, &out)| SumScan::new(shared[0], out, SCAN_WORDS, limit))
        .collect();
    let mut cursor = ScheduleCursor::new(schedule.clone());
    let result = match entry {
        Entry::Fleet => sim.run_automata(&mut fleet, &mut cursor, cfg),
        Entry::BoxedFleet => sim.run_automata(&mut boxed(fleet), &mut cursor, cfg),
        Entry::Replay => sim.run_automata_replay(&mut fleet, schedule, cfg),
        Entry::ReplaySoa => sim.run_automata_replay_soa(&mut fleet, schedule, 4, cfg),
    };
    observe(&sim, result, &outs)
}

/// The fleet as `Box<dyn Automaton>`s.
fn boxed<A: Automaton + 'static>(fleet: Vec<A>) -> Vec<Box<dyn Automaton>> {
    fleet
        .into_iter()
        .map(|m| Box::new(m) as Box<dyn Automaton>)
        .collect()
}

fn observe(
    sim: &Sim,
    result: Result<st_sim::RunStatus, st_sim::SimError>,
    outs: &[Reg<u64>],
) -> Observed {
    let n = sim.universe().n();
    let report = sim.report();
    Observed {
        result,
        steps: sim.steps_executed(),
        ops: (0..n).map(|i| sim.op_count(pid(i))).collect(),
        probes: report
            .probes
            .events()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect(),
        decisions: sim
            .decisions()
            .iter()
            .map(|d| d.map(|d| (d.value, d.step)))
            .collect(),
        finished: (0..n).map(|i| sim.is_finished(pid(i))).collect(),
        outs: outs.iter().map(|&r| sim.peek(r)).collect(),
        register_stats: sim.memory().stats(),
    }
}

/// One step kernel, four entry points: the cursor fleet drive over a typed
/// and over a boxed fleet, and the two replay entries, must be
/// observationally identical on every
/// combination of stop rule and budget below / at / above the schedule
/// length — with a fleet whose first machine completes mid-run. (That each
/// executes exactly the steps it pulls is `tests/pulled_is_executed.rs`.)
#[test]
fn every_drive_is_observationally_identical() {
    // Round-robin (the batched drive's strided path), dwells of 8 (its
    // dwell window), then an irregular tail (bucketing + scalar fallback).
    let steps: Vec<usize> = (0..30)
        .map(|s| s % 3)
        .chain((0..48).map(|s| (s / 8) % 3))
        .chain((0..42).map(|s| (s * 7 + s / 5) % 3))
        .collect();
    let len = steps.len() as u64;
    let schedule = Schedule::from_indices(steps);
    let stops = [
        StopWhen::Never,
        StopWhen::AllDecided(ProcSet::from_indices([0, 1])),
        StopWhen::AnyDecided,
    ];
    let mut statuses = Vec::new();
    for stop in stops {
        for budget in [len / 2, len, len + 9] {
            let cfg = RunConfig::steps(budget).stop_when(stop);
            let reference = drive(Entry::Replay, &schedule, cfg);
            let status = reference.result.clone().unwrap();
            // A run that read nothing would compare statistics vacuously.
            assert!(reference.register_stats.iter().any(|s| s.reads > 0));
            for entry in ENTRIES {
                assert_eq!(
                    drive(entry, &schedule, cfg),
                    reference,
                    "{entry:?} vs replay: {stop:?}, budget {budget}"
                );
            }
            statuses.push(status);
        }
    }
    // The table reaches every way a run can end, and the early finisher
    // did finish.
    for want in [
        st_sim::RunStatus::Stopped,
        st_sim::RunStatus::MaxSteps,
        st_sim::RunStatus::SourceEnded,
    ] {
        assert!(statuses.contains(&want), "no cell ended {want:?}");
    }
    let full = drive(Entry::Replay, &schedule, RunConfig::steps(len));
    assert_eq!(full.finished, [true, true, false]);
}

/// The one intended difference between the entry points: a replay drive
/// validates the prefix its budget admits before executing anything — also
/// when a stop rule sends it through the general loop — while a cursor
/// drive executes up to the offending step.
#[test]
fn out_of_universe_step_splits_replay_from_cursor_drives() {
    let bad = Schedule::from_indices([0, 1, 2, 0, 1, 7, 2, 0]);
    let error = Err(st_sim::SimError::ScheduleOutOfUniverse {
        process: pid(7),
        n: 3,
    });
    let stop = StopWhen::AllDecided(ProcSet::from_indices([2]));
    for cfg in [RunConfig::steps(100), RunConfig::steps(100).stop_when(stop)] {
        for entry in ENTRIES {
            let seen = drive(entry, &bad, cfg);
            assert_eq!(seen.result, error, "{entry:?}");
            let ran = match entry {
                Entry::Fleet | Entry::BoxedFleet => 5,
                _ => 0,
            };
            assert_eq!(seen.steps, ran, "{entry:?}, {cfg:?}");
        }
    }
    // Only the prefix is the drive's business: a budget that ends before
    // the bad step never sees it.
    for entry in ENTRIES {
        let seen = drive(entry, &bad, RunConfig::steps(5));
        assert_eq!(seen.result, Ok(st_sim::RunStatus::MaxSteps), "{entry:?}");
        assert_eq!(seen.steps, 5);
    }
}

/// One machine of a fleet of two types, as a typed fleet can hold it: the
/// reference the boxed mixed fleet is held to.
enum Mixed {
    Scan(SumScan),
    Count(CountUp),
}

impl Automaton for Mixed {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        match self {
            Mixed::Scan(m) => m.step(mem),
            Mixed::Count(m) => m.step(mem),
        }
    }
}

/// The boxed machine `m` holds.
fn unwrap_boxed(m: Mixed) -> Box<dyn Automaton> {
    match m {
        Mixed::Scan(m) => Box::new(m),
        Mixed::Count(m) => Box::new(m),
    }
}

/// The scanner `m` holds.
fn unwrap_scan(m: Mixed) -> SumScan {
    match m {
        Mixed::Scan(m) => m,
        Mixed::Count(_) => panic!("a scan fleet holds scanners only"),
    }
}

/// Runs a four-process fleet — [`SumScan`]s with round limits 2, 5, 3 and
/// 100, or with `mixed` every odd process a [`CountUp`] to 7 instead — as
/// `as_fleet` lays it out, through the cursor drive or the replay.
fn mixed_run<A: Automaton>(
    mixed: bool,
    as_fleet: fn(Mixed) -> A,
    replay: bool,
    schedule: &Schedule,
) -> Observed {
    let n = 4;
    let mut sim = Sim::new(universe(n));
    let shared = (0..SCAN_WORDS)
        .map(|i| sim.alloc(format!("shared[{i}]"), 3u64))
        .collect::<Vec<_>>();
    let outs = (0..n)
        .map(|i| sim.alloc(format!("out[{i}]"), 0u64))
        .collect::<Vec<_>>();
    let mut fleet: Vec<A> = [2, 5, 3, 100]
        .iter()
        .zip(&outs)
        .enumerate()
        .map(|(i, (&limit, &out))| {
            as_fleet(if mixed && i % 2 == 1 {
                Mixed::Count(CountUp {
                    reg: out,
                    next: 1,
                    limit: 7,
                })
            } else {
                Mixed::Scan(SumScan::new(shared[0], out, SCAN_WORDS, limit))
            })
        })
        .collect();
    let cfg = RunConfig::steps(schedule.len() as u64);
    let result = if replay {
        sim.run_automata_replay(&mut fleet, schedule, cfg)
    } else {
        sim.run_automata(&mut fleet, &mut ScheduleCursor::new(schedule.clone()), cfg)
    };
    observe(&sim, result, &outs)
}

/// A boxed fleet steps as the machines it boxes: the same machines as a
/// typed `Vec<A>` and as a `Vec<Box<dyn Automaton>>`, through the cursor
/// drive and the replay, leave identical reports — probes, decisions, op
/// counts and register statistics. A fleet of two machine types, which only
/// the boxed form can hold, is held to the same machines behind one enum.
#[test]
fn boxed_fleet_equals_typed_fleet() {
    let schedule = Schedule::from_indices(
        (0..40)
            .map(|s| s % 4)
            .chain((0..80).map(|s| (s * 7 + s / 5) % 4)),
    );
    for replay in [false, true] {
        let typed = mixed_run(false, unwrap_scan, replay, &schedule);
        assert!(typed.register_stats.iter().any(|s| s.reads > 0));
        assert!(typed.finished.contains(&true) && typed.finished.contains(&false));
        assert_eq!(mixed_run(false, unwrap_boxed, replay, &schedule), typed);

        let reference = mixed_run(true, |m| m, replay, &schedule);
        assert_eq!(reference.decisions[1].map(|(v, _)| v), Some(7));
        assert_eq!(
            reference.decisions[0].map(|(v, _)| v),
            Some(3 * SCAN_WORDS as u64)
        );
        assert_eq!(mixed_run(true, unwrap_boxed, replay, &schedule), reference);
    }
}
