//! Property tests for the executor: accounting invariants that hold for
//! every schedule and every protocol shape.

mod common;

use common::{step_once, StepFn};
use proptest::prelude::*;
use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
use st_sim::{Memory, Reg, RunConfig, Sim, Status, StepAccess, WriteDiscipline};

/// Writes 1, 2, 3, … into `mine`, one write per step, forever.
fn count_up(mine: Reg<u64>) -> StepFn<impl FnMut(&mut StepAccess<'_>) -> Status> {
    let mut i = 0u64;
    StepFn(move |mem: &mut StepAccess<'_>| {
        i += 1;
        mem.write(mine, i);
        Status::Running
    })
}

prop_compose! {
    fn arb_schedule(n: usize)(steps in prop::collection::vec(0..n, 0..2_000)) -> Schedule {
        Schedule::from_indices(steps)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On-demand names equal eagerly formatted ones for every register,
    /// whatever mix of blocks (empty and one-register ones included) and
    /// single allocations built the arena — block boundaries included,
    /// since every index is checked.
    #[test]
    fn on_demand_names_match_eager_reference(
        // A draw of 9 or more is a single `alloc`, below that a block of
        // that many registers.
        draws in prop::collection::vec(0usize..12, 0..24),
    ) {
        let mut memory = Memory::new();
        let mut eager: Vec<String> = Vec::new();
        for (b, &count) in draws.iter().enumerate() {
            if count >= 9 {
                let name = format!("solo{b}");
                memory.alloc(name.clone(), WriteDiscipline::MultiWriter, b as u64);
                eager.push(name);
            } else {
                let base = memory.alloc_block(
                    count,
                    0u64,
                    |_| WriteDiscipline::MultiWriter,
                    move |i| format!("block{b}[{i}]"),
                );
                prop_assert_eq!(base.index(), eager.len());
                eager.extend((0..count).map(|i| format!("block{b}[{i}]")));
            }
        }
        prop_assert_eq!(memory.len(), eager.len());
        for (i, want) in eager.iter().enumerate() {
            prop_assert_eq!(&memory.name(i).unwrap(), want);
        }
        prop_assert!(memory.name(eager.len()).is_err());
        let stats: Vec<String> = memory.stats().iter().map(|s| memory.name(s.index).unwrap()).collect();
        prop_assert_eq!(stats, eager);
    }

    /// Total register operations never exceed executed steps, and equal
    /// them exactly when no process pauses, idles, or finishes mid-run.
    #[test]
    fn ops_bounded_by_steps(sched in arb_schedule(3)) {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let reg = sim.alloc("x", 0u64);
        let mut fleet = Vec::new();
        for _ in u.processes() {
            // Read, then write back incremented, forever.
            let mut read: Option<u64> = None;
            let incr = StepFn(move |mem: &mut StepAccess<'_>| {
                match read.take() {
                    None => read = Some(mem.read(reg)),
                    Some(v) => mem.write(reg, v + 1),
                }
                Status::Running
            });
            fleet.push(incr);
        }
        let len = sched.len() as u64;
        let mut src = ScheduleCursor::new(sched);
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(len)).unwrap();
        let report = sim.report();
        let total_ops: u64 = report.op_counts.iter().sum();
        prop_assert_eq!(total_ops, report.steps);
    }

    /// Per-process op counts split exactly along the schedule's step counts
    /// for never-finishing protocols.
    #[test]
    fn per_process_accounting(sched in arb_schedule(4)) {
        let u = Universe::new(4).unwrap();
        let mut sim = Sim::new(u);
        let regs = sim.alloc_per_process("r", 0u64);
        let mut fleet: Vec<_> = u.processes().map(|p| count_up(regs.at(p.index()))).collect();
        let counts = sched.step_counts(u);
        let len = sched.len() as u64;
        let mut src = ScheduleCursor::new(sched);
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(len)).unwrap();
        let report = sim.report();
        for (idx, &c) in counts.iter().enumerate() {
            prop_assert_eq!(report.op_counts[idx], c as u64);
            // The register holds exactly the number of writes performed.
            prop_assert_eq!(sim.peek(regs.at(idx)), c as u64);
        }
    }

    /// Crash makes a process permanently idle without disturbing others'
    /// registers. A crash is a schedule that stops scheduling the process:
    /// after the cut, p0's steps are dropped from the schedule.
    #[test]
    fn crash_isolates(sched in arb_schedule(2), crash_at in 0usize..500) {
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let regs = sim.alloc_per_process("r", 0u64);
        let mut fleet: Vec<_> = u.processes().map(|p| count_up(regs.at(p.index()))).collect();
        let len = sched.len();
        let cut = crash_at.min(len);
        let mut src = ScheduleCursor::new(sched.prefix(cut));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(cut as u64)).unwrap();
        let frozen = sim.peek(regs.at(0));
        let survivors: Schedule = sched.suffix(cut).iter().filter(|p| p.index() != 0).collect();
        let mut src = ScheduleCursor::new(survivors);
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps((len - cut) as u64)).unwrap();
        // p0's register froze at the crash; p1's reflects all its steps.
        prop_assert_eq!(sim.peek(regs.at(0)), frozen);
        prop_assert_eq!(sim.peek(regs.at(1)), sched.occurrences(ProcessId::new(1)) as u64);
    }

    /// Probes never consume steps: a probe-only process finishes on its
    /// first granted step regardless of probe volume.
    #[test]
    fn probes_are_free(probe_count in 0usize..200) {
        let u = Universe::new(1).unwrap();
        let mut sim = Sim::new(u);
        let prober = StepFn(move |mem: &mut StepAccess<'_>| {
            for i in 0..probe_count {
                mem.probe("x", i as u64);
            }
            mem.pause();
            Status::Done
        });
        step_once(&mut sim, &mut [prober], 0);
        let report = sim.report();
        prop_assert_eq!(report.probes.len(), probe_count);
        prop_assert_eq!(report.op_counts[0], 0);
        prop_assert_eq!(report.steps, 1);
        let _ = ProcSet::EMPTY;
    }
}
