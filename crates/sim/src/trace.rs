//! Run instrumentation: probes and decisions.
//!
//! Probes are the *observability side-channel* of the simulator: a process
//! publishes a `(key, u64)` pair without taking a step (the model allows
//! unbounded local computation per step, and reading a process's local state
//! costs nothing). Failure-detector outputs — local variables in the model —
//! are exposed this way, e.g. the Figure 2 `winnerset` as the bitset of a
//! [`ProcSet`](st_core::ProcSet).

use st_core::{ProcessId, Value, PROCSET_CAPACITY};

/// One probe publication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Global step index at which the probe was published.
    pub step: u64,
    /// Publishing process.
    pub pid: ProcessId,
    /// Probe key (interned by the protocol as a static string).
    pub key: &'static str,
    /// Published value (protocol-defined encoding; often `ProcSet::bits`).
    pub value: u64,
}

/// A decision taken by a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Decided value.
    pub value: Value,
    /// Global step index at which the decision happened.
    pub step: u64,
}

/// Mutable instrumentation state, owned by the simulator: probes and
/// decisions, with the decision state the stop rules read.
#[derive(Clone)]
pub(crate) struct TraceInner {
    pub probes: Vec<ProbeEvent>,
    pub decisions: Vec<Option<Decision>>,
    /// Bitmask mirror of `decisions` (`ProcSet::bits` encoding) for
    /// processes with index below [`PROCSET_CAPACITY`]: `StopWhen::AllDecided`
    /// is O(1) per step (its set is a `ProcSet`, so it can only name
    /// processes the mask covers).
    pub decided: u64,
    /// Total decisions so far, over *all* processes — `AnyDecided` in large
    /// universes (n > 64) where the bitmask cannot see every decider.
    pub decided_count: u32,
}

impl TraceInner {
    pub fn new(n: usize) -> Self {
        TraceInner {
            probes: Vec::new(),
            decisions: vec![None; n],
            decided: 0,
            decided_count: 0,
        }
    }

    /// Records `pid`'s decision of `value` at `step`. Shared by every
    /// decide path (step access, batch access).
    ///
    /// # Panics
    ///
    /// Panics if the process already decided (decisions are irrevocable).
    pub fn record_decision(&mut self, pid: ProcessId, value: Value, step: u64) {
        let slot = &mut self.decisions[pid.index()];
        assert!(
            slot.is_none(),
            "process {pid} decided twice (had {slot:?}, now {value})"
        );
        *slot = Some(Decision { value, step });
        if pid.index() < PROCSET_CAPACITY {
            self.decided |= 1 << pid.index();
        }
        self.decided_count += 1;
    }
}

/// Immutable probe log exposed in a [`RunReport`](crate::RunReport).
#[derive(Clone, Debug, Default)]
pub struct ProbeLog {
    events: Vec<ProbeEvent>,
}

impl ProbeLog {
    pub(crate) fn new(events: Vec<ProbeEvent>) -> Self {
        ProbeLog { events }
    }

    /// All events in publication order.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no probe was published.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The timeline of values published by `pid` under `key`, as
    /// `(step, value)` pairs in order.
    pub fn timeline(&self, pid: ProcessId, key: &str) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .filter(|e| e.pid == pid && e.key == key)
            .map(|e| (e.step, e.value))
            .collect()
    }

    /// The last value published by `pid` under `key`, if any.
    pub fn last_value(&self, pid: ProcessId, key: &str) -> Option<u64> {
        self.events
            .iter()
            .rev()
            .find(|e| e.pid == pid && e.key == key)
            .map(|e| e.value)
    }

    /// The earliest step from which `pid`'s publications under `key` keep the
    /// final value until the end of the log (`None` if `pid` never published
    /// under `key`).
    ///
    /// This is the per-process *stabilization step*: the FD convergence
    /// analysis takes the max over correct processes.
    pub fn stabilization_step(&self, pid: ProcessId, key: &str) -> Option<u64> {
        let tl = self.timeline(pid, key);
        let (_, last) = *tl.last()?;
        let mut stab = tl[0].0;
        let mut stable = false;
        for &(step, v) in &tl {
            if v == last {
                if !stable {
                    stab = step;
                    stable = true;
                }
            } else {
                stable = false;
            }
        }
        Some(stab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(step: u64, pid: usize, key: &'static str, value: u64) -> ProbeEvent {
        ProbeEvent {
            step,
            pid: ProcessId::new(pid),
            key,
            value,
        }
    }

    #[test]
    fn timeline_and_last_value() {
        let log = ProbeLog::new(vec![
            ev(1, 0, "ws", 3),
            ev(2, 1, "ws", 5),
            ev(4, 0, "ws", 6),
            ev(5, 0, "other", 9),
        ]);
        assert_eq!(log.timeline(ProcessId::new(0), "ws"), vec![(1, 3), (4, 6)]);
        assert_eq!(log.last_value(ProcessId::new(0), "ws"), Some(6));
        assert_eq!(log.last_value(ProcessId::new(1), "ws"), Some(5));
        assert_eq!(log.last_value(ProcessId::new(2), "ws"), None);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
    }

    #[test]
    fn stabilization_simple() {
        let log = ProbeLog::new(vec![
            ev(1, 0, "ws", 1),
            ev(3, 0, "ws", 2),
            ev(5, 0, "ws", 2),
            ev(9, 0, "ws", 2),
        ]);
        assert_eq!(log.stabilization_step(ProcessId::new(0), "ws"), Some(3));
    }

    #[test]
    fn stabilization_with_relapse() {
        // Value returns to 2 after a relapse: stabilization restarts.
        let log = ProbeLog::new(vec![
            ev(1, 0, "ws", 2),
            ev(3, 0, "ws", 7),
            ev(5, 0, "ws", 2),
            ev(6, 0, "ws", 2),
        ]);
        assert_eq!(log.stabilization_step(ProcessId::new(0), "ws"), Some(5));
    }

    #[test]
    fn stabilization_single_event() {
        let log = ProbeLog::new(vec![ev(4, 1, "ws", 8)]);
        assert_eq!(log.stabilization_step(ProcessId::new(1), "ws"), Some(4));
        assert_eq!(log.stabilization_step(ProcessId::new(0), "ws"), None);
    }
}
