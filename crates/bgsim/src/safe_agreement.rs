//! Safe agreement: the synchronization core of the BG simulation.
//!
//! A safe-agreement object lets each of the `s` simulators propose a value
//! and agree on one, with the defining twist that **agreement may block only
//! if a proposer crashes inside its (constant-length) unsafe zone**. One
//! crashed simulator can therefore block at most one object — the
//! structural fact behind "k+1 simulators tolerate k crashes while blocking
//! at most k simulated processes" (Properties (i) of Theorem 26's proof).
//!
//! Implementation (Borowsky–Gafni): per proposer registers `V[s]` (value)
//! and `L[s]` (level ∈ {0, 1, 2}).
//!
//! - `propose(v)`: `V[me] ← v`; `L[me] ← 1` *(unsafe zone begins)*; read all
//!   levels; if some `L[j] = 2` then `L[me] ← 0` else `L[me] ← 2` *(unsafe
//!   zone ends)*.
//! - `resolve()`: read all levels; if some `L[j] = 1`, the object is
//!   **unresolved** (a proposer is in its unsafe zone — possibly crashed
//!   there); otherwise return `V[j]` for the smallest `j` with `L[j] = 2`.
//!
//! Both are [`SafeAgreementCall`]s: one phase per register operation, driven
//! a step at a time by the automaton that makes the call.

use st_core::Value;
use st_sim::{Reg, Sim, StepAccess};

/// A single-shot safe-agreement object among `width` proposers
/// (the simulators). Clone into each simulator.
#[derive(Clone, Debug)]
pub struct SafeAgreement {
    values: Vec<Reg<Option<Value>>>,
    levels: Vec<Reg<u64>>,
}

/// Result of a non-blocking resolution poll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Agreement reached on this value.
    Agreed(Value),
    /// A proposer is (or crashed) inside its unsafe zone; poll again later.
    Unresolved,
    /// Nobody has proposed yet.
    Empty,
}

impl SafeAgreement {
    /// Allocates the object's registers (`V[s]`, `L[s]` for each of the
    /// `width` proposers, indexed by process index `0..width`).
    pub fn alloc(sim: &mut Sim, name: &str, width: usize) -> Self {
        let values = (0..width)
            .map(|s| sim.alloc_sw(format!("{name}.V[{s}]"), st_core::ProcessId::new(s), None))
            .collect();
        let levels = (0..width)
            .map(|s| sim.alloc_sw(format!("{name}.L[{s}]"), st_core::ProcessId::new(s), 0u64))
            .collect();
        SafeAgreement { values, levels }
    }

    /// Whether the object looks blocked right now (instrumentation):
    /// someone at level 1, nobody at level 2 pending... simply: a level-1
    /// entry exists.
    pub fn peek_unsafe(&self, sim: &Sim) -> bool {
        self.levels.iter().any(|&l| sim.peek(l) == 1)
    }
}

/// One call on a [`SafeAgreement`] in progress: a proposal
/// ([`propose`](Self::propose), **`2 + width + 1` steps**, of which the
/// *unsafe zone* — between the `L[me] ← 1` write and the final level
/// write — spans `width + 1`; crashing there may block the object forever)
/// or a non-blocking resolution scan ([`resolve`](Self::resolve),
/// **`width` steps**, plus one value read when resolvable). Drive it with
/// [`step`](Self::step) from an automaton, one call per scheduled step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SafeAgreementCall(Phase);

/// The register operation a call's next step performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// `V[me] ← v`.
    WriteValue(Value),
    /// `L[me] ← 1`: the unsafe zone begins.
    RaiseLevel,
    /// Read `L[j]` — the proposal's scan or the resolution's — noting
    /// whether some level was 1 and the smallest proposer at level 2.
    Scan {
        proposing: bool,
        j: usize,
        saw_one: bool,
        first_two: Option<usize>,
    },
    /// `L[me] ← 0` if some level was 2, else `2`: the unsafe zone ends.
    SettleLevel(u64),
    /// Read `V[j]` of the smallest proposer `j` at level 2.
    ReadValue(usize),
}

/// What one step of a [`SafeAgreementCall`] produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallStep {
    /// The call has more steps to take.
    Busy,
    /// The proposal completed with this step.
    Proposed,
    /// The resolution scan completed with this step.
    Resolved(Resolution),
}

/// The first step of a level scan.
fn scan(proposing: bool) -> Phase {
    Phase::Scan {
        proposing,
        j: 0,
        saw_one: false,
        first_two: None,
    }
}

impl SafeAgreementCall {
    /// A proposal of `v` (make at most one per simulator per object).
    pub fn propose(v: Value) -> Self {
        SafeAgreementCall(Phase::WriteValue(v))
    }

    /// A resolution scan.
    pub fn resolve() -> Self {
        SafeAgreementCall(scan(false))
    }

    /// Performs the call's next register operation on `object` — one
    /// step — and advances the call past it.
    ///
    /// # Panics
    ///
    /// Panics if a level-2 proposer's value register is empty (the object
    /// was written by something other than these calls).
    pub fn step(&mut self, object: &SafeAgreement, mem: &mut StepAccess<'_>) -> CallStep {
        let me = mem.pid().index();
        self.0 = match self.0 {
            Phase::WriteValue(v) => {
                mem.write(object.values[me], Some(v));
                Phase::RaiseLevel
            }
            Phase::RaiseLevel => {
                mem.write(object.levels[me], 1);
                scan(true)
            }
            Phase::Scan {
                proposing,
                j,
                saw_one,
                first_two,
            } => {
                let level = mem.read(object.levels[j]);
                let saw_one = saw_one || level == 1;
                let first_two = first_two.or((level == 2).then_some(j));
                match first_two {
                    _ if j + 1 < object.levels.len() => Phase::Scan {
                        proposing,
                        j: j + 1,
                        saw_one,
                        first_two,
                    },
                    _ if proposing => Phase::SettleLevel(if first_two.is_some() { 0 } else { 2 }),
                    _ if saw_one => return CallStep::Resolved(Resolution::Unresolved),
                    Some(j) => Phase::ReadValue(j),
                    None => return CallStep::Resolved(Resolution::Empty),
                }
            }
            Phase::SettleLevel(level) => {
                mem.write(object.levels[me], level);
                return CallStep::Proposed;
            }
            Phase::ReadValue(j) => {
                let v = mem.read(object.values[j]);
                let v = v.expect("level 2 implies a proposed value");
                return CallStep::Resolved(Resolution::Agreed(v));
            }
        };
        CallStep::Busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
    use st_sim::{Automaton, RunConfig, Status, StopWhen};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Proposes, then scans until the object resolves to a value, which it
    /// decides — pausing one step after each scan that did not, if asked.
    struct Proposer {
        object: SafeAgreement,
        call: SafeAgreementCall,
        pause_after_miss: bool,
        pausing: bool,
    }

    impl Proposer {
        fn new(object: &SafeAgreement, v: Value, pause_after_miss: bool) -> Self {
            Proposer {
                object: object.clone(),
                call: SafeAgreementCall::propose(v),
                pause_after_miss,
                pausing: false,
            }
        }
    }

    impl Automaton for Proposer {
        fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
            if self.pausing {
                self.pausing = false;
                mem.pause();
                return Status::Running;
            }
            match self.call.step(&self.object, mem) {
                CallStep::Busy => {}
                CallStep::Proposed => self.call = SafeAgreementCall::resolve(),
                CallStep::Resolved(Resolution::Agreed(w)) => {
                    mem.decide(w);
                    return Status::Done;
                }
                CallStep::Resolved(_) => {
                    self.call = SafeAgreementCall::resolve();
                    self.pausing = self.pause_after_miss;
                }
            }
            Status::Running
        }
    }

    /// All proposers complete: agreement and validity hold under arbitrary
    /// interleavings.
    #[test]
    fn agreement_and_validity() {
        for seed in 0..40u64 {
            let width = 3;
            let u = Universe::new(width).unwrap();
            let mut sim = Sim::new(u);
            let sa = SafeAgreement::alloc(&mut sim, "sa", width);
            let mut fleet: Vec<_> = u
                .processes()
                .map(|p| Proposer::new(&sa, 100 + p.index() as Value, true))
                .collect();
            let sched: Vec<usize> = (0..2000)
                .map(|i| {
                    ((seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i * 2654435761))
                        % 3) as usize
                })
                .collect();
            let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
            sim.run_automata(
                &mut fleet,
                &mut src,
                RunConfig::steps(2000).stop_when(StopWhen::AllDecided(ProcSet::full(u))),
            )
            .unwrap();
            let rep = sim.report();
            let decided: Vec<Value> = (0..width)
                .filter_map(|i| rep.decision_value(pid(i)))
                .collect();
            assert_eq!(decided.len(), width, "seed {seed}: all must decide");
            assert!(
                decided.iter().all(|&v| v == decided[0]),
                "seed {seed}: split {decided:?}"
            );
            assert!((100..103).contains(&decided[0]));
        }
    }

    /// A proposer crashing inside its unsafe zone blocks resolution; one
    /// crashing outside does not.
    #[test]
    fn crash_in_unsafe_zone_blocks() {
        let width = 2;
        let u = Universe::new(width).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", width);
        let mut fleet = [Proposer::new(&sa, 7, false), Proposer::new(&sa, 8, false)];
        // p0 takes exactly 2 steps: V write + L←1 write — then crashes *in*
        // the unsafe zone. p1 runs alone forever after.
        let sched: Vec<usize> = [0usize, 0]
            .into_iter()
            .chain(std::iter::repeat_n(1, 500))
            .collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(502))
            .unwrap();
        assert!(sa.peek_unsafe(&sim), "p0 is stuck at level 1");
        assert_eq!(
            sim.report().decision_value(pid(1)),
            None,
            "p1 must block on the unresolved object"
        );
    }

    #[test]
    fn crash_before_proposing_does_not_block() {
        let width = 2;
        let u = Universe::new(width).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", width);
        let mut fleet = [Proposer::new(&sa, 8, false), Proposer::new(&sa, 9, false)];
        // p0 never runs at all.
        let sched: Vec<usize> = std::iter::repeat_n(1, 200).collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(200))
            .unwrap();
        assert_eq!(sim.report().decision_value(pid(1)), Some(9));
    }

    #[test]
    fn empty_object_reports_empty() {
        /// One resolution scan; decides 1 if it found the object empty.
        struct ScanOnce(SafeAgreement, SafeAgreementCall);
        impl Automaton for ScanOnce {
            fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
                match self.1.step(&self.0, mem) {
                    CallStep::Resolved(r) => {
                        mem.decide(u64::from(r == Resolution::Empty));
                        Status::Done
                    }
                    _ => Status::Running,
                }
            }
        }
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", 2);
        let scan = || ScanOnce(sa.clone(), SafeAgreementCall::resolve());
        let mut fleet = [scan(), scan()];
        let mut src = ScheduleCursor::new(Schedule::from_indices(vec![0; 10]));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(10))
            .unwrap();
        assert_eq!(sim.report().decision_value(pid(0)), Some(1));
    }
}
