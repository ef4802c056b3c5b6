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
//! loop runs back to back across the fleet. By default that call steps the
//! machine through its allotment ([`BatchAccess::step_through`]): a read run
//! is all a machine needs to be batched, and `step` stays the one body of
//! every phase. A machine with a cheaper algorithm for a whole run — the
//! Figure 2 detector's span reads over the word arena
//! ([`read_word_span`](BatchAccess::read_word_span)) — overrides it. A
//! stretch that is not pure runs scalar, in order, which is byte-for-byte
//! the plain replay.
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
//! access statistics, same final register contents. A batched step that
//! writes breaks it, so [`BatchAccess::step_through`] refuses one: it
//! panics naming the machine's over-reported read run.

use st_core::ProcessId;

use crate::automaton::{Automaton, Status, StepAccess};
use crate::memory::Memory;
use crate::register::Reg;
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

/// Scoped view of the simulator handed to [`Automaton::step_reads`] for a
/// whole run of read steps.
///
/// Unlike [`StepAccess`] (one operation, then the step ends), a
/// `BatchAccess` carries the global step indices of every step allotted to
/// the machine in the current batch. A machine uses them in one of two
/// ways: [`step_through`](Self::step_through) — the default `step_reads` —
/// runs its [`Automaton::step`] once per allotted step, each at its own
/// index; an override reads whole register spans
/// ([`read_word_span`](Self::read_word_span)), each word consuming the next
/// step, and publishes probes on the most recently consumed one, which is
/// exactly where the scalar drive would have published them (protocols
/// probe in the same step as the read that triggered it).
pub struct BatchAccess<'a> {
    pid: ProcessId,
    steps: Allotment<'a>,
    cursor: usize,
    /// Register operations performed so far in this batch.
    ops: u64,
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
            ops: 0,
            memory,
            trace,
        }
    }

    /// Register operations performed so far in this batch (the steps
    /// consumed, less those that performed none).
    pub(crate) fn ops(&self) -> u64 {
        self.ops
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

    /// Runs `machine`'s [`step`](Automaton::step) once per remaining
    /// allotted step, each through a [`StepAccess`] at that step's global
    /// index, until the allotment is used up or the machine completes —
    /// exactly what the scalar drive does with these steps. This is the
    /// default [`Automaton::step_reads`].
    ///
    /// # Panics
    ///
    /// Panics if a step writes a register: the machine's
    /// [`read_run`](Automaton::read_run) over-reported, and the batch ran
    /// into a write.
    pub fn step_through<A: Automaton + ?Sized>(&mut self, machine: &mut A) -> Status {
        while self.cursor < self.steps.len() {
            let step = self.steps.step_at(self.cursor);
            self.cursor += 1;
            let version = self.memory.version();
            let mut access = StepAccess::new(self.pid, step, self.memory, self.trace);
            let status = machine.step(&mut access);
            self.ops += access.op_performed() as u64;
            assert_eq!(
                self.memory.version(),
                version,
                "automaton of {} wrote in a batched step: its read_run \
                 over-reported the reads ahead",
                self.pid
            );
            if status == Status::Done {
                return Status::Done;
            }
        }
        Status::Running
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
        let count = dest.len();
        assert!(
            count <= self.remaining(),
            "automaton of {} overran its batch: {} steps requested, {} left",
            self.pid,
            count,
            self.remaining()
        );
        self.cursor += count;
        self.ops += count as u64;
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
        assert!(
            self.cursor > 0,
            "automaton of {} probed before consuming a step of its batch",
            self.pid
        );
        self.trace.probes.push(ProbeEvent {
            step: self.steps.step_at(self.cursor - 1),
            pid: self.pid,
            key,
            value,
        });
    }
}
