//! The simulator state every step reaches: the register arena, the trace,
//! and the executor's cached decision state.

use std::cell::{Cell, RefCell};

use st_core::{ProcessId, Value, PROCSET_CAPACITY};

use crate::memory::Memory;
use crate::trace::{Decision, TraceInner};

/// State shared between the executor and the access views it hands out for
/// one step ([`StepAccess`](crate::StepAccess),
/// [`BatchAccess`](crate::BatchAccess)).
pub(crate) struct SimShared {
    pub memory: RefCell<Memory>,
    pub trace: RefCell<TraceInner>,
    /// Bitmask mirror of `trace.decisions` (`ProcSet::bits` encoding) for
    /// processes with index below [`PROCSET_CAPACITY`], maintained by
    /// [`SimShared::record_decision`]: lets the executor evaluate
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
}

impl SimShared {
    /// Records `pid`'s decision of `value` at `step` in the trace and the
    /// executor's cached decision state. Shared by every decide path (step
    /// access, batch access).
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
