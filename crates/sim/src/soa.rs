//! Phase-batched struct-of-arrays execution: the batched engine behind
//! [`Sim::run_automata`](crate::Sim::run_automata).
//!
//! The scalar loop dispatches one `step` call per scheduled step: even with
//! the automaton body inlined, every step pays the dispatch prologue —
//! reload the machine's control state, branch on its phase, perform one
//! register operation, write the state back. For the paper's protocols that
//! price is paid almost entirely for *reads*: ~99% of the Figure 2
//! detector's steps scan the counter matrix, and scans are long runs of
//! consecutive steps whose behavior does not depend on the values read.
//!
//! The engine exploits exactly that structure. Each turn it takes the next
//! stretch of the schedule block and asks every machine scheduled there for
//! its [`read_run`](crate::Automaton::read_run) — the number of upcoming
//! steps guaranteed to be reads regardless of the values read. If every
//! machine's allotment fits inside its read run, the stretch is **pure**: it
//! contains only reads, reads commute (the register state is constant for
//! its duration), and the engine executes each machine's whole allotment in
//! a single [`step_reads`](crate::Automaton::step_reads) call — machines
//! grouped by [`phase_class`](crate::Automaton::phase_class) so one phase's
//! tight loop (a [`read_word_span`](BatchAccess::read_word_span) over the
//! word arena) runs back to back across the fleet. A stretch that is not
//! pure runs scalar, in order, which is byte-for-byte the plain replay.
//!
//! A stretch is one of three shapes:
//!
//! - a **dwell window**: one process scheduled repeatedly, taken up to its
//!   read run whatever the dwell's length, as one contiguous allotment (a
//!   machine with no read run left takes one step scalar, then the dwell is
//!   looked at again — so a dwell that crosses a phase end batches on both
//!   sides of it);
//! - a **round window**: wherever a fixed permutation of the whole fleet
//!   repeats (round-robin and every rotation of it), as many whole rounds as
//!   keep repeating and fit inside every live machine's read run, each
//!   machine's share one arithmetic-progression allotment (its offset in the
//!   round, stride `n`); fewer than two rounds — a phase turnover — run one
//!   round scalar;
//! - otherwise a **bucketed slice** of mixed steps — 64 of them on
//!   [`Sim::run_automata`](crate::Sim::run_automata); the raw engine entry
//!   [`Sim::run_automata_replay_soa`](crate::Sim::run_automata_replay_soa)
//!   takes the length — cut where a dwell begins, its steps bucketed per
//!   process.
//!
//! Below [`SOA_DELEGATE_BELOW_N`](crate::SOA_DELEGATE_BELOW_N) processes
//! [`Sim::run_automata`](crate::Sim::run_automata) does not batch at all:
//! allotments that short lose to the scalar loop on every schedule family
//! measured.
//!
//! Observational identity to the scalar replay is a hard contract, enforced
//! by differential tests over every schedule family: same probes at the
//! same step indices (each batched operation carries its original global
//! step index, and the probe-log tail of a batch is re-sorted into step
//! order), same decisions, same per-process op counts, same per-register
//! access statistics, same final register contents.

use st_core::{ProcSet, ProcessId, Value};

use crate::memory::Memory;
use crate::register::{Reg, RegValue};
use crate::trace::{ProbeEvent, TraceInner};

/// The global step indices allotted to one machine in the current batch:
/// an explicit list (bucketed slices), a contiguous run (dwell windows), or
/// an arithmetic progression (round windows) — the engine's fast paths
/// never materialize the latter two.
pub(crate) enum Allotment<'a> {
    /// Explicit step indices, in schedule order.
    List(&'a [u64]),
    /// `len` consecutive steps starting at global step `start` — a dwell
    /// window.
    Run { start: u64, len: usize },
    /// `len` steps at `start, start + stride, start + 2·stride, …` — one
    /// process's cursor in a round window (`len` whole rounds that repeat a
    /// fixed permutation of the fleet, period `stride = n`).
    Strided { start: u64, stride: u64, len: usize },
}

impl Allotment<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Allotment::List(steps) => steps.len(),
            Allotment::Run { len, .. } | Allotment::Strided { len, .. } => *len,
        }
    }

    #[inline]
    fn step_at(&self, i: usize) -> u64 {
        match self {
            Allotment::List(steps) => steps[i],
            Allotment::Run { start, .. } => start + i as u64,
            Allotment::Strided { start, stride, .. } => start + stride * i as u64,
        }
    }
}

/// Scoped view of the simulator handed to
/// [`Automaton::step_reads`](crate::Automaton::step_reads) for a whole run
/// of read steps.
///
/// Unlike [`StepAccess`](crate::StepAccess) (one operation, then the step
/// ends), a `BatchAccess` carries the global step indices of every step
/// allotted to the machine in the current batch; each read operation
/// consumes the next one. Probes and decisions attach to the most recently
/// consumed step, which is exactly where the plain drive would have
/// published them (protocols probe/decide in the same step as the read that
/// triggered it).
pub struct BatchAccess<'a> {
    pid: ProcessId,
    steps: Allotment<'a>,
    cursor: usize,
    memory: &'a mut Memory,
    trace: &'a mut TraceInner,
}

impl<'a> BatchAccess<'a> {
    pub(crate) fn new(
        pid: ProcessId,
        steps: Allotment<'a>,
        memory: &'a mut Memory,
        trace: &'a mut TraceInner,
    ) -> Self {
        BatchAccess {
            pid,
            steps,
            cursor: 0,
            memory,
            trace,
        }
    }

    /// Register operations performed so far in this batch (= steps
    /// consumed; every batched step is a read).
    pub(crate) fn ops(&self) -> u64 {
        self.cursor as u64
    }

    /// This process's identity.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Steps not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.cursor
    }

    #[inline]
    fn consume(&mut self, count: usize) {
        assert!(
            count <= self.remaining(),
            "automaton of {} overran its batch: {} steps requested, {} left",
            self.pid,
            count,
            self.remaining()
        );
        self.cursor += count;
    }

    /// Atomically reads a register of any value type: all its words at
    /// once. **Consumes one batched step.** Prefer
    /// [`read_word`](Self::read_word) (or the span form) for `u64` registers
    /// on hot paths.
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: batch overrun, foreign handles, or type
    /// confusion.
    #[inline]
    pub fn read<T: RegValue>(&mut self, reg: Reg<T>) -> T {
        self.consume(1);
        match self.memory.read(reg) {
            Ok(v) => v,
            Err(e) => panic!("simulated {} read failed: {e}", self.pid),
        }
    }

    /// Atomically reads a `u64` register. **Consumes one batched step.**
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: batch overrun or a foreign handle.
    #[inline]
    pub fn read_word(&mut self, reg: Reg<u64>) -> u64 {
        self.consume(1);
        match self.memory.read_word(reg) {
            Ok(v) => v,
            Err(e) => panic!("simulated {} read failed: {e}", self.pid),
        }
    }

    /// [`read_word`](Self::read_word) of the register allocated `offset`
    /// slots after `base` (see
    /// [`StepAccess::read_word_array`](crate::StepAccess::read_word_array)).
    #[inline]
    pub fn read_word_array(&mut self, base: Reg<u64>, offset: usize) -> u64 {
        self.consume(1);
        let reg: Reg<u64> = Reg::new((base.index() + offset) as u32);
        match self.memory.read_word(reg) {
            Ok(v) => v,
            Err(e) => panic!("simulated {} array read failed: {e}", self.pid),
        }
    }

    /// Reads `dest.len()` consecutive word registers starting `offset`
    /// slots after `base` in one tight loop — the batch form of a register
    /// array scan. **Consumes `dest.len()` batched steps**, each counted as
    /// one read of its slot.
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: batch overrun or a span leaving the arena.
    #[inline]
    pub fn read_word_span(&mut self, base: Reg<u64>, offset: usize, dest: &mut [u64]) {
        self.consume(dest.len());
        if let Err(e) = self.memory.read_word_span(base, offset, dest) {
            panic!("simulated {} span read failed: {e}", self.pid);
        }
    }

    /// Publishes an instrumentation probe, attached to the most recently
    /// consumed step. **Free.**
    ///
    /// # Panics
    ///
    /// Panics if no step has been consumed yet (a probe belongs to the step
    /// whose read triggered it).
    pub fn probe(&mut self, key: &'static str, value: u64) {
        let step = self.current_step();
        self.trace.probes.push(ProbeEvent {
            step,
            pid: self.pid,
            key,
            value,
        });
    }

    /// Publishes a process-set-valued probe (encoded as the bitset).
    pub fn probe_set(&mut self, key: &'static str, set: ProcSet) {
        self.probe(key, set.bits());
    }

    /// Records this process's irrevocable decision, attached to the most
    /// recently consumed step. **Free.**
    ///
    /// # Panics
    ///
    /// Panics if the process already decided, or if no step has been
    /// consumed yet.
    pub fn decide(&mut self, value: Value) {
        let step = self.current_step();
        self.trace.record_decision(self.pid, value, step);
    }

    #[inline]
    fn current_step(&self) -> u64 {
        assert!(
            self.cursor > 0,
            "automaton of {} probed/decided before consuming a step of its batch",
            self.pid
        );
        self.steps.step_at(self.cursor - 1)
    }
}
