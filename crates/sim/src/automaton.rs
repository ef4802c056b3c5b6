//! The automaton ABI: every protocol is an explicit state machine.
//!
//! The executor calls [`Automaton::step`] once per scheduled step and hands
//! it a scoped [`StepAccess`] — a direct view of the register arena plus the
//! instrumentation channels. The automaton keeps its own control state
//! (typically a phase enum) and performs **at most one** shared-memory
//! operation per call, exactly the model's notion of a step (one register
//! access plus unbounded local computation). A protocol whose pseudocode is
//! a loop of operations becomes one phase per operation; the local code
//! between two operations runs at the end of the step that performed the
//! first.
//!
//! Every drive of [`Sim`](crate::Sim) steps a caller-owned fleet `&mut [A]`
//! of this trait, `automata[i]` the machine of process `i`. A fleet of one
//! machine type inlines its `step`; a fleet of several types is a
//! `Vec<Box<dyn Automaton>>`, through the blanket impl for `Box`.

use st_core::{ProcSet, ProcessId, Value};

use crate::memory::Memory;
use crate::register::{Reg, RegValue};
use crate::soa::BatchAccess;
use crate::trace::{ProbeEvent, TraceInner};

/// What an automaton reports after a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// The automaton has more steps to take.
    Running,
    /// The automaton completed; further scheduled steps become no-ops (the
    /// halted automaton self-loops, as in the model).
    Done,
}

/// An explicit protocol state machine driven directly by the executor.
///
/// Implementations keep their control state (phase, loop indices) in plain
/// fields and advance it by one scheduled step per [`step`](Self::step)
/// call. See the module docs for the contract and
/// [`Sim::run_automata`](crate::Sim::run_automata) for wiring.
///
/// # Examples
///
/// A two-phase automaton incrementing a shared counter and deciding:
///
/// ```
/// use st_sim::{Automaton, Reg, RunConfig, Sim, Status, StepAccess};
/// use st_core::{Schedule, ScheduleCursor, Universe};
///
/// enum Phase { Read, Write(u64), Done }
/// struct Incr { reg: Reg<u64>, phase: Phase }
///
/// impl Automaton for Incr {
///     fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
///         match self.phase {
///             Phase::Read => {
///                 let v = mem.read_word(self.reg);
///                 self.phase = Phase::Write(v + 1);
///                 Status::Running
///             }
///             Phase::Write(v) => {
///                 mem.write_word(self.reg, v);
///                 mem.decide(v);
///                 self.phase = Phase::Done;
///                 Status::Done
///             }
///             Phase::Done => unreachable!("executor stops stepping after Done"),
///         }
///     }
/// }
///
/// let mut sim = Sim::new(Universe::new(1).unwrap());
/// let reg = sim.alloc("x", 41u64);
/// let mut fleet = [Incr { reg, phase: Phase::Read }];
/// let mut src = ScheduleCursor::new(Schedule::from_indices([0, 0]));
/// sim.run_automata(&mut fleet, &mut src, RunConfig::steps(2)).unwrap();
/// assert_eq!(sim.peek(reg), 42);
/// ```
///
/// # Batching
///
/// A machine that reports a [`read_run`](Self::read_run) is batched: the
/// engine (see [`soa`](crate::soa)) hands it whole runs of read steps, which
/// by default it steps through one [`step`](Self::step) at a time, so `step`
/// stays the one body of every phase. [`step_reads`](Self::step_reads) is an
/// optional override for a machine with a cheaper algorithm for a whole run
/// than stepping; [`phase_class`](Self::phase_class) is a grouping hint. A
/// machine that keeps the default read run of 0 is never batched.
pub trait Automaton {
    /// Executes one scheduled step: at most one register operation through
    /// `mem`, plus any amount of local computation.
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status;

    /// A small dense label of the current control phase: the engine groups
    /// machines by it, so one phase's batch loop runs back to back across
    /// the fleet. A hint, with no correctness obligation.
    fn phase_class(&self) -> u8 {
        0
    }

    /// A number `r` such that the next `r` scheduled steps of this machine,
    /// from its current state, each perform exactly one register **read**
    /// (or become no-ops by the machine completing), *and* which registers
    /// they read does not depend on the values read. Fewer than the true run
    /// is always safe (it only forces the scalar fallback); more is unsound.
    /// The default, 0, keeps the machine off the batched path.
    fn read_run(&self) -> usize {
        0
    }

    /// Executes all `mem.remaining()` steps, which lie within the read run,
    /// in one call, leaving the machine exactly where as many
    /// [`step`](Self::step) calls would (it may stop early by completing).
    /// Never called while [`read_run`](Self::read_run) is 0. The default is
    /// those `step` calls ([`BatchAccess::step_through`]); override it only
    /// where a batch has a cheaper algorithm than stepping.
    fn step_reads(&mut self, mem: &mut BatchAccess<'_>) -> Status {
        mem.step_through(self)
    }
}

/// A boxed automaton steps as the automaton it holds: a heterogeneous
/// fleet is a `Vec<Box<dyn Automaton>>`.
impl<A: Automaton + ?Sized> Automaton for Box<A> {
    #[inline]
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        (**self).step(mem)
    }

    fn phase_class(&self) -> u8 {
        (**self).phase_class()
    }

    fn read_run(&self) -> usize {
        (**self).read_run()
    }

    fn step_reads(&mut self, mem: &mut BatchAccess<'_>) -> Status {
        (**self).step_reads(mem)
    }
}

/// Scoped, direct view of the simulator handed to an [`Automaton`] for
/// exactly one step.
///
/// Register operations are plain calls against the word arena
/// (`&mut Memory`); probes and decisions go to the trace (`&mut`, too). The **one-operation-per-step** discipline is enforced
/// explicitly: a second register operation in the same step panics.
pub struct StepAccess<'a> {
    pid: ProcessId,
    /// The executing step's global index: probes and decisions attach to
    /// it.
    step: u64,
    memory: &'a mut Memory,
    trace: &'a mut TraceInner,
    /// The step's one slot (register operation *or* pause) was consumed.
    op_used: bool,
    /// A register operation was actually performed (pauses excluded) — the
    /// executor accumulates per-process op counts from this.
    op_performed: bool,
}

impl<'a> StepAccess<'a> {
    pub(crate) fn new(
        pid: ProcessId,
        step: u64,
        memory: &'a mut Memory,
        trace: &'a mut TraceInner,
    ) -> Self {
        StepAccess {
            pid,
            step,
            memory,
            trace,
            op_used: false,
            op_performed: false,
        }
    }

    /// Whether this step performed a register operation (pauses excluded) —
    /// the executor accumulates per-process op counts from this flag, off
    /// the step path.
    pub(crate) fn op_performed(&self) -> bool {
        self.op_performed
    }

    /// This process's identity.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    #[inline]
    fn consume_op(&mut self) {
        assert!(
            !self.op_used,
            "automaton of {} performed two shared-memory operations in one \
             step; a step is one register access plus local computation",
            self.pid
        );
        self.op_used = true;
        self.op_performed = true;
    }

    /// Atomically reads a `u64` register through the word fast path.
    /// **Costs the step's one operation.**
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: a second operation this step, or a foreign
    /// handle.
    #[inline]
    pub fn read_word(&mut self, reg: Reg<u64>) -> u64 {
        self.consume_op();
        match self.memory.read_word(reg) {
            Ok(v) => v,
            Err(e) => panic!("simulated {} read failed: {e}", self.pid),
        }
    }

    /// Atomically writes a `u64` register through the word fast path.
    /// **Costs the step's one operation.**
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: a second operation this step, foreign
    /// handles, a multi-word register, or violating a single-writer
    /// discipline.
    #[inline]
    pub fn write_word(&mut self, reg: Reg<u64>, value: u64) {
        self.consume_op();
        if let Err(e) = self.memory.write_word(self.pid, reg, value) {
            panic!("simulated {} write failed: {e}", self.pid);
        }
    }

    /// [`read_word`](Self::read_word) of the register allocated `offset`
    /// slots after `base` — the register-*array* scan primitive. Blocks from
    /// [`Sim::alloc_block`](crate::Sim::alloc_block) /
    /// [`Sim::alloc_per_process`](crate::Sim::alloc_per_process) (and any
    /// back-to-back allocation sequence) are contiguous, so a scanning
    /// automaton can keep one base handle and a counter instead of loading
    /// a handle from its own table every step — one less data-dependent
    /// load on the hottest path in the simulator. The bounds check still
    /// applies to the derived slot.
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: a second operation this step, or an offset
    /// falling outside the arena.
    #[inline]
    pub fn read_word_array(&mut self, base: Reg<u64>, offset: usize) -> u64 {
        self.consume_op();
        let reg: Reg<u64> = Reg::new((base.index() + offset) as u32);
        match self.memory.read_word(reg) {
            Ok(v) => v,
            Err(e) => panic!("simulated {} array read failed: {e}", self.pid),
        }
    }

    /// [`write_word`](Self::write_word) of the register allocated `offset`
    /// slots after `base` — the write twin of
    /// [`read_word_array`](Self::read_word_array), for automata that index
    /// large contiguous register arrays by offset instead of carrying a
    /// handle table. All access-time checks (bounds, width, write
    /// discipline) still apply to the derived slot.
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: a second operation this step, an offset
    /// falling outside the arena, a multi-word register at the slot, or
    /// violating a single-writer discipline.
    #[inline]
    pub fn write_word_array(&mut self, base: Reg<u64>, offset: usize, value: u64) {
        self.consume_op();
        let reg: Reg<u64> = Reg::new((base.index() + offset) as u32);
        if let Err(e) = self.memory.write_word(self.pid, reg, value) {
            panic!("simulated {} array write failed: {e}", self.pid);
        }
    }

    /// Atomically reads a register of any type: all its words at once.
    /// **Costs the step's one operation.**
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: a second operation this step, foreign
    /// handles, or type confusion.
    pub fn read<T: RegValue>(&mut self, reg: Reg<T>) -> T {
        self.consume_op();
        match self.memory.read(reg) {
            Ok(v) => v,
            Err(e) => panic!("simulated {} read failed: {e}", self.pid),
        }
    }

    /// Atomically writes a register of any type: all its words at once.
    /// **Costs the step's one operation.**
    ///
    /// # Panics
    ///
    /// Same conditions as [`write_word`](Self::write_word).
    pub fn write<T: RegValue>(&mut self, reg: Reg<T>, value: T) {
        self.consume_op();
        if let Err(e) = self.memory.write(self.pid, reg, value) {
            panic!("simulated {} write failed: {e}", self.pid);
        }
    }

    /// Consumes the step's operation without touching shared memory (a
    /// "skip" step; the model equivalent is reading a dummy register).
    /// Returning from [`Automaton::step`] without any operation is
    /// equivalent; this exists to make the intent explicit (and to enforce
    /// that nothing else runs in the same step).
    pub fn pause(&mut self) {
        assert!(
            !self.op_used,
            "automaton of {} paused after an operation in the same step",
            self.pid
        );
        self.op_used = true;
    }

    /// Publishes an instrumentation probe. **Free**: probes model the
    /// external observation of a process's local variables (e.g. the
    /// failure-detector output `fdOutput` of Figure 2) and take no step.
    pub fn probe(&mut self, key: &'static str, value: u64) {
        self.trace.probes.push(ProbeEvent {
            step: self.step,
            pid: self.pid,
            key,
            value,
        });
    }

    /// Publishes a process-set-valued probe (encoded as the bitset).
    pub fn probe_set(&mut self, key: &'static str, set: ProcSet) {
        self.probe(key, set.bits());
    }

    /// Records this process's irrevocable decision. **Free.**
    ///
    /// # Panics
    ///
    /// Panics if the process already decided (decisions are irrevocable).
    pub fn decide(&mut self, value: Value) {
        self.trace.record_decision(self.pid, value, self.step);
    }
}
