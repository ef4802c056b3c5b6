//! Test machinery shared by the suites of this crate.

// Every suite uses its own subset.
#![allow(dead_code)]

use st_core::{Schedule, ScheduleCursor};
use st_sim::{Automaton, BatchAccess, Reg, RunConfig, Sim, Status, StepAccess};

/// Executes one scheduled step of process `p` through the cursor fleet
/// drive.
pub fn step_once<A: Automaton>(sim: &mut Sim, fleet: &mut [A], p: usize) {
    let mut one = ScheduleCursor::new(Schedule::from_indices([p]));
    sim.run_automata(fleet, &mut one, RunConfig::steps(1))
        .expect("p is in the universe");
}

/// A test automaton from a closure: every scheduled step is one call, with
/// the closure's captures as the machine's local state.
pub struct StepFn<F>(pub F);

impl<F: FnMut(&mut StepAccess<'_>) -> Status> Automaton for StepFn<F> {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        (self.0)(mem)
    }
}

/// Two-phase scan machine: reads `m` words of a shared array one per step
/// (pure), probes the running sum at the scan boundary, then writes it to
/// its own output register (impure) — repeating until `limit` rounds, then
/// deciding. The smallest shape that exercises batched span reads, probe
/// ordering, phase turnover inside a slice, and the scalar write fallback.
pub struct SumScan {
    base: Reg<u64>,
    out: Reg<u64>,
    m: usize,
    idx: usize,
    acc: u64,
    rounds: u64,
    limit: u64,
    /// The length of every allotment a batch drive handed it, in order.
    pub batches: Vec<usize>,
}

impl SumScan {
    pub fn new(base: Reg<u64>, out: Reg<u64>, m: usize, limit: u64) -> Self {
        SumScan {
            base,
            out,
            m,
            idx: 0,
            acc: 0,
            rounds: 0,
            limit,
            batches: Vec::new(),
        }
    }
}

impl Automaton for SumScan {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        if self.idx < self.m {
            self.acc = self
                .acc
                .wrapping_add(mem.read_word_array(self.base, self.idx));
            self.idx += 1;
            if self.idx == self.m {
                mem.probe("sum", self.acc);
            }
            Status::Running
        } else {
            mem.write_word(self.out, self.acc);
            self.rounds += 1;
            if self.rounds == self.limit {
                mem.decide(self.acc as st_core::Value);
                return Status::Done;
            }
            self.idx = 0;
            self.acc = 0;
            Status::Running
        }
    }

    fn phase_class(&self) -> u8 {
        (self.idx >= self.m) as u8
    }

    fn read_run(&self) -> usize {
        // The whole remaining scan is guaranteed value-independent reads;
        // the write phase pins the run to zero (impure slice → fallback).
        self.m - self.idx.min(self.m)
    }

    fn step_reads(&mut self, mem: &mut BatchAccess<'_>) -> Status {
        self.batches.push(mem.remaining());
        let take = mem.remaining().min(self.m - self.idx);
        let mut buf = vec![0u64; take];
        mem.read_word_span(self.base, self.idx, &mut buf);
        for w in buf {
            self.acc = self.acc.wrapping_add(w);
        }
        self.idx += take;
        if self.idx == self.m {
            mem.probe("sum", self.acc);
        }
        Status::Running
    }
}

/// [`SumScan`] without its `step_reads` override: a machine that only
/// reports its read run and phase class, which the batched engine steps
/// through by default.
pub struct SteppedSumScan(pub SumScan);

impl Automaton for SteppedSumScan {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        self.0.step(mem)
    }

    fn phase_class(&self) -> u8 {
        self.0.phase_class()
    }

    fn read_run(&self) -> usize {
        self.0.read_run()
    }
}

/// [`SteppedSumScan`] whose read run over-reports by one step, into the
/// write that ends each scan — a `read_run` bug the batched engine must
/// refuse.
pub struct OverReadSumScan(pub SumScan);

impl Automaton for OverReadSumScan {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        self.0.step(mem)
    }

    fn read_run(&self) -> usize {
        self.0.read_run() + 1
    }
}
