//! The process-side API: awaitable register operations, probes, decisions.
//!
//! Protocol code is an `async fn` over a [`ProcessCtx`]. Every register
//! operation suspends until the deterministic executor grants the process a
//! step; a granted poll performs exactly one operation and then runs local
//! code until the next operation — matching the model, where a step is one
//! shared-memory access plus unbounded local computation.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use st_core::{ProcSet, ProcessId, Value, PROCSET_CAPACITY};

use crate::memory::Memory;
use crate::register::{Reg, RegValue};
use crate::trace::{Decision, ProbeEvent, TraceInner};

/// State shared between the executor and all process contexts.
pub(crate) struct SimShared {
    pub memory: RefCell<Memory>,
    /// The single outstanding step grant; consumed by the granted process's
    /// next register operation.
    pub grant: Cell<Option<ProcessId>>,
    /// Global step index (the index of the step currently executing).
    pub step: Cell<u64>,
    pub trace: RefCell<TraceInner>,
    /// Bitmask mirror of `trace.decisions` (`ProcSet::bits` encoding) for
    /// processes with index below [`PROCSET_CAPACITY`], maintained by
    /// [`SimShared::note_decided`]: lets the executor evaluate
    /// `StopWhen::AllDecided` in O(1) per step without borrowing the trace
    /// (the stop set is a `ProcSet`, so it can only name processes the mask
    /// covers).
    pub decided: Cell<u64>,
    /// Total decisions so far, over *all* processes — `AnyDecided` in large
    /// universes (n > 64) where the bitmask cannot see every decider.
    pub decided_count: Cell<u32>,
    /// Per-process completed register operations; `Cell`s so the per-op
    /// accounting path skips the trace `RefCell`.
    pub op_counts: Vec<Cell<u64>>,
    pub n: usize,
}

impl SimShared {
    /// Records `pid`'s decision of `value` at `step` in the trace and the
    /// executor's cached decision state. Shared by every decide path (async
    /// context, step access, batch access).
    ///
    /// # Panics
    ///
    /// Panics if the process already decided (decisions are irrevocable).
    pub(crate) fn record_decision(&self, pid: ProcessId, value: Value, step: u64) {
        let mut trace = self.trace.borrow_mut();
        let slot = &mut trace.decisions[pid.index()];
        assert!(
            slot.is_none(),
            "process {pid} decided twice (had {slot:?}, now {value})"
        );
        *slot = Some(Decision { value, step });
        let idx = pid.index();
        if idx < PROCSET_CAPACITY {
            self.decided.set(self.decided.get() | (1u64 << idx));
        }
        self.decided_count.set(self.decided_count.get() + 1);
    }
}

/// Handle through which a simulated process interacts with the system.
///
/// Obtained by the closure passed to [`Sim::spawn`](crate::Sim::spawn).
/// Cloneable so that helper objects (e.g. shared-object implementations)
/// can hold their own copy.
#[derive(Clone)]
pub struct ProcessCtx {
    pid: ProcessId,
    shared: Rc<SimShared>,
}

impl ProcessCtx {
    pub(crate) fn new(pid: ProcessId, shared: Rc<SimShared>) -> Self {
        ProcessCtx { pid, shared }
    }

    /// This process's identity.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.shared.n
    }

    /// Atomically reads a register. **Costs one step.**
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: foreign handles or type confusion.
    pub async fn read<T: RegValue>(&self, reg: Reg<T>) -> T {
        self.step_grant().await;
        let result = self.shared.memory.borrow_mut().read(reg);
        match result {
            Ok(v) => {
                self.count_op();
                v
            }
            Err(e) => panic!("simulated {} read failed: {e}", self.pid),
        }
    }

    /// Atomically writes a register. **Costs one step.**
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: foreign handles, type confusion, or
    /// violating a single-writer discipline.
    pub async fn write<T: RegValue>(&self, reg: Reg<T>, value: T) {
        self.step_grant().await;
        let result = self.shared.memory.borrow_mut().write(self.pid, reg, value);
        match result {
            Ok(()) => self.count_op(),
            Err(e) => panic!("simulated {} write failed: {e}", self.pid),
        }
    }

    /// Atomically reads a `u64` register through the word fast path (no
    /// type erasure — see [`Memory`]'s module docs). **Costs one step.**
    ///
    /// Equivalent to [`read`](Self::read) for `Reg<u64>`; protocols with
    /// register-scan inner loops (the Figure 2 counter matrix) use this to
    /// keep the per-step dispatch monomorphic.
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: foreign handles or type confusion.
    pub async fn read_word(&self, reg: Reg<u64>) -> u64 {
        self.step_grant().await;
        let result = self.shared.memory.borrow_mut().read_word(reg);
        match result {
            Ok(v) => {
                self.count_op();
                v
            }
            Err(e) => panic!("simulated {} read failed: {e}", self.pid),
        }
    }

    /// Atomically writes a `u64` register through the word fast path.
    /// **Costs one step.**
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: foreign handles, type confusion, or
    /// violating a single-writer discipline.
    pub async fn write_word(&self, reg: Reg<u64>, value: u64) {
        self.step_grant().await;
        let result = self
            .shared
            .memory
            .borrow_mut()
            .write_word(self.pid, reg, value);
        match result {
            Ok(()) => self.count_op(),
            Err(e) => panic!("simulated {} write failed: {e}", self.pid),
        }
    }

    /// Consumes one step without touching shared memory (a "skip" step; the
    /// model equivalent is reading a dummy register).
    pub async fn pause(&self) {
        self.step_grant().await;
    }

    /// Publishes an instrumentation probe. **Free**: probes model the
    /// external observation of a process's local variables (e.g. the
    /// failure-detector output `fdOutput` of Figure 2) and take no step.
    pub fn probe(&self, key: &'static str, value: u64) {
        let step = self.shared.step.get();
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

    /// Records this process's irrevocable decision. **Free** (the decision
    /// is local state; protocols typically write it to shared registers
    /// separately).
    ///
    /// # Panics
    ///
    /// Panics if the process already decided (decisions are irrevocable).
    pub fn decide(&self, value: Value) {
        let step = self.shared.step.get();
        self.shared.record_decision(self.pid, value, step);
    }

    /// Returns `true` if this process has decided.
    pub fn has_decided(&self) -> bool {
        self.shared.trace.borrow().decisions[self.pid.index()].is_some()
    }

    /// The global step index currently executing (instrumentation only; a
    /// real process has no access to global time).
    pub fn now(&self) -> u64 {
        self.shared.step.get()
    }

    fn count_op(&self) {
        let slot = &self.shared.op_counts[self.pid.index()];
        slot.set(slot.get() + 1);
    }

    fn step_grant(&self) -> StepGrant<'_> {
        StepGrant {
            shared: &self.shared,
            pid: self.pid,
        }
    }
}

/// Future resolving when the executor grants this process its next step.
struct StepGrant<'a> {
    shared: &'a SimShared,
    pid: ProcessId,
}

impl Future for StepGrant<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.shared.grant.get() == Some(self.pid) {
            self.shared.grant.set(None);
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}
