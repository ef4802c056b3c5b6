//! Phase-batched struct-of-arrays execution: the second replay drive.
//!
//! The plain replay drive ([`Sim::run_automata_replay`](crate::Sim::run_automata_replay))
//! dispatches one `step` call per scheduled step: even with the automaton
//! body inlined, every step pays the dispatch prologue — reload the
//! machine's control state, branch on its phase, perform one register
//! operation, write the state back. For the paper's protocols that price is
//! paid almost entirely for *reads*: ~99% of the Figure 2 detector's steps
//! scan the counter matrix, and scans are long runs of consecutive steps
//! whose behavior does not depend on the values read.
//!
//! The SoA drive ([`Sim::run_automata_replay_soa`](crate::Sim::run_automata_replay_soa))
//! exploits exactly that structure. It processes the schedule in contiguous
//! slices; for each slice it buckets the steps per process and asks every
//! scheduled machine for its [`read_run`](PhaseBatch::read_run) — the
//! number of upcoming steps guaranteed to be reads regardless of the values
//! read. If every machine's allotment fits inside its read run, the slice is
//! **pure**: it contains only read operations, reads commute (the register
//! state is constant for the duration of the slice), and the drive may
//! execute each machine's whole allotment in a single
//! [`step_reads`](PhaseBatch::step_reads) call — machines grouped by
//! [`phase_class`](PhaseBatch::phase_class) so one phase's tight loop (a
//! [`read_word_span`](BatchAccess::read_word_span) over the word arena)
//! runs back to back across the fleet. A slice that is not pure falls back
//! to scalar in-order stepping, which is byte-for-byte the plain replay.
//!
//! Two schedule shapes skip the bucketing entirely. A **uniform** slice
//! (one process throughout — dwell-shaped schedules) becomes a single
//! contiguous-run allotment. A **round window** is measured in whole
//! rounds, not slices: wherever a fixed permutation of the whole fleet
//! repeats (round-robin and every rotation of it), the drive takes as many
//! rounds as keep repeating and fit inside every live machine's read run,
//! and gives each machine one arithmetic-progression allotment (start =
//! its offset in the round, stride = `n`) driven by a strided cursor; a
//! window of fewer than two rounds — a phase turnover — runs one round
//! scalar instead. Neither materializes a step-index list, and the slice
//! length bounds only the uniform and the bucketed slices. And below
//! [`SOA_DELEGATE_BELOW_N`](crate::SOA_DELEGATE_BELOW_N) processes the
//! delegating entry point does not batch at all: allotments that short
//! lose to the plain replay on every schedule family measured, so small
//! universes route straight to it
//! ([`Sim::run_automata_replay_soa_batched`](crate::Sim::run_automata_replay_soa_batched)
//! bypasses the heuristic for differential testing).
//!
//! Observational identity to plain replay is a hard contract, enforced by
//! differential tests over every schedule family: same probes at the same
//! step indices (each batched operation carries its original global step
//! index, and the probe-log tail of a batch is re-sorted into step
//! order), same decisions, same per-process op counts, same per-register
//! access statistics, same final register contents.

use st_core::{ProcSet, ProcessId, Value};

use crate::automaton::{Automaton, Status};
use crate::ctx::SimShared;
use crate::memory::Memory;
use crate::register::{Reg, RegValue};
use crate::trace::ProbeEvent;

/// An [`Automaton`] that can project its control state onto a phase vector
/// and execute runs of read steps in batch — the requirement for the SoA
/// replay drive.
///
/// # Contract
///
/// - [`read_run`](Self::read_run) returns a number `r` such that the next
///   `r` scheduled steps of this machine, from its current state, each
///   perform exactly one register **read** (or become no-ops by the machine
///   completing), *and* which registers they read does not depend on the
///   values returned by reads within the run. Returning fewer than the true
///   run length is always safe (it only forces the scalar fallback);
///   returning more is unsound.
/// - [`step_reads`](Self::step_reads) must consume **all** steps of the
///   passed [`BatchAccess`] (unless it completes first) and leave the
///   machine in exactly the state `mem.len()` individual
///   [`step`](Automaton::step) calls would have produced.
/// - [`phase_class`](Self::phase_class) is a small dense label of the
///   current control phase, used only to group machines so one phase's
///   batch loop runs back to back across the fleet; it carries no
///   correctness obligation.
pub trait PhaseBatch: Automaton {
    /// Dense label of the current control phase (grouping hint).
    fn phase_class(&self) -> u8;

    /// Guaranteed number of upcoming value-independent read steps.
    fn read_run(&self) -> usize;

    /// Executes `mem.len()` scheduled steps, all reads, in one call.
    fn step_reads(&mut self, mem: &mut BatchAccess<'_>) -> Status;
}

/// The global step indices allotted to one machine in the current batch:
/// an explicit list (irregular interleaved slices), a contiguous run
/// (uniform slices), or an arithmetic progression (round windows) — the
/// drive's fast paths never materialize the latter two.
pub(crate) enum Allotment<'a> {
    /// Explicit step indices, in schedule order.
    List(&'a [u64]),
    /// `len` consecutive steps starting at global step `start` — the
    /// uniform-slice fast path.
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

/// Scoped view of the simulator handed to [`PhaseBatch::step_reads`] for a
/// whole run of read steps.
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
    shared: &'a SimShared,
}

impl<'a> BatchAccess<'a> {
    pub(crate) fn new(
        pid: ProcessId,
        steps: Allotment<'a>,
        memory: &'a mut Memory,
        shared: &'a SimShared,
    ) -> Self {
        BatchAccess {
            pid,
            steps,
            cursor: 0,
            memory,
            shared,
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

    /// Atomically reads a register of any value type. **Consumes one
    /// batched step.** Prefer [`read_word`](Self::read_word) (or the span
    /// form) for `u64` registers on hot paths.
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
    /// Panics on protocol bugs: batch overrun, foreign handles, or type
    /// confusion.
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
    /// Panics on protocol bugs: batch overrun, a span leaving the arena, or
    /// a non-word register inside the span.
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
    pub fn probe(&self, key: &'static str, value: u64) {
        let step = self.current_step();
        self.shared.trace.borrow_mut().probes.push(ProbeEvent {
            step,
            pid: self.pid,
            key,
            value,
        });
    }

    /// Publishes a process-set-valued probe (encoded as the bitset).
    pub fn probe_set(&self, key: &'static str, set: ProcSet) {
        self.probe(key, set.bits());
    }

    /// Records this process's irrevocable decision, attached to the most
    /// recently consumed step. **Free.**
    ///
    /// # Panics
    ///
    /// Panics if the process already decided, or if no step has been
    /// consumed yet.
    pub fn decide(&self, value: Value) {
        self.shared
            .record_decision(self.pid, value, self.current_step());
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
