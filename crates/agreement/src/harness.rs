//! The composed protocol stack: one call to build a complete
//! `(t,k,n)`-agreement system in a simulator.
//!
//! Chooses the right protocol for the task — the trivial algorithm when
//! `t < k` (asynchronously solvable), otherwise Figure 2 k-anti-Ω composed
//! with k-parallel Paxos — builds one machine per process, and packages
//! outcome checking. This is the entry point used by the experiment
//! harness, the examples, and the BG reduction.

use st_core::{
    check_outcome, AgreementOutcome, AgreementTask, AgreementViolation, ProcSet, ProcessId,
    StepSource, Value,
};
use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy};
use st_sim::{Automaton, Memory, RunConfig, RunReport, RunStatus, Sim, SimError, StopWhen};

use crate::kset::KSetAgreement;
use crate::trivial::TrivialAgreement;

/// Which protocol the stack deployed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackKind {
    /// Figure 2 k-anti-Ω + k-parallel Paxos (for `k ≤ t`).
    FdParallelPaxos,
    /// First-`k`-decide (for `t < k`).
    Trivial,
}

/// Which simulator ABI the stack runs on. There is one: every protocol is
/// an automaton of the stack's fleet. The type stays for
/// [`build_abi`](AgreementStack::build_abi)'s callers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StackAbi {
    /// [`KSetAgreementMachine`](crate::KSetAgreementMachine) (or, for
    /// `t < k`, [`TrivialMachine`](crate::TrivialMachine)) state machines,
    /// one per process.
    #[default]
    Machine,
}

/// A fully built agreement stack, ready to run: the simulator (register
/// arena and trace) and the fleet of one machine per process it drives.
///
/// # Examples
///
/// Solve 1-resilient consensus among three processes under a conforming
/// `S^1_{2,3}` schedule:
///
/// ```
/// use st_agreement::AgreementStack;
/// use st_core::{AgreementTask, ProcSet};
/// use st_sched::{SeededRandom, SetTimely};
///
/// let task = AgreementTask::new(1, 1, 3).unwrap();
/// let stack = AgreementStack::build(task, &[10, 20, 30]);
/// let timely = ProcSet::from_indices([0]);
/// let observed = ProcSet::from_indices([0, 1]);
/// let mut src = SetTimely::new(timely, observed, 4,
///     SeededRandom::new(task.universe(), 7));
/// let run = stack.run(&mut src, 3_000_000, ProcSet::EMPTY);
/// assert!(run.is_clean_termination());
/// ```
pub struct AgreementStack {
    sim: Sim,
    /// The machine of every process: one virtual call per step, and one
    /// fleet type whichever protocol the task chose.
    fleet: Vec<Box<dyn Automaton>>,
    task: AgreementTask,
    inputs: Vec<Value>,
    kind: StackKind,
    kset: Option<KSetAgreement>,
}

/// Result of driving an [`AgreementStack`].
#[derive(Clone, Debug)]
pub struct StackRun {
    /// Why the run ended.
    pub status: RunStatus,
    /// The raw run report (probes, decisions, statistics).
    pub report: RunReport,
    /// The agreement outcome (inputs, decisions, correct set).
    pub outcome: AgreementOutcome,
    /// Violations found by the `st-core` checker.
    pub violations: Vec<AgreementViolation>,
}

impl StackRun {
    /// `true` if every correct process decided and no property was violated.
    pub fn is_clean_termination(&self) -> bool {
        self.violations.is_empty()
            && self
                .outcome
                .correct
                .iter()
                .all(|p| self.outcome.decisions[p.index()].is_some())
    }

    /// `true` if safety held (no k-agreement or validity violation),
    /// regardless of termination.
    pub fn is_safe(&self) -> bool {
        self.violations
            .iter()
            .all(|v| matches!(v, AgreementViolation::Termination { .. }))
    }
}

impl AgreementStack {
    /// Builds a stack for `task` with the given inputs (defaults to the
    /// paper's increment timeout policy).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n`.
    pub fn build(task: AgreementTask, inputs: &[Value]) -> Self {
        Self::build_with_policy(task, inputs, TimeoutPolicy::Increment)
    }

    /// Builds a stack with an explicit timeout policy (ablation).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n`.
    pub fn build_with_policy(task: AgreementTask, inputs: &[Value], policy: TimeoutPolicy) -> Self {
        Self::build_abi(task, inputs, policy, false, StackAbi::default())
    }

    /// [`build_with_policy`](Self::build_with_policy) with two parameters
    /// that no longer choose anything: [`StackAbi::Machine`] is the only
    /// ABI, and `record_schedule` must be `false` (the simulator records no
    /// schedule). Both stay until their last caller, the benchmark's
    /// ladder, drops them.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n` or `record_schedule` is `true`.
    pub fn build_abi(
        task: AgreementTask,
        inputs: &[Value],
        policy: TimeoutPolicy,
        record_schedule: bool,
        _abi: StackAbi,
    ) -> Self {
        assert!(
            !record_schedule,
            "the simulator records no schedule; the parameter goes with the benchmark \
             ladder's call (ROADMAP 1(c))"
        );
        assert_eq!(inputs.len(), task.n(), "one input per process");
        let universe = task.universe();
        let mut sim = Sim::new(universe);
        let (kind, kset, fleet) = if task.is_trivially_solvable() {
            let obj = TrivialAgreement::alloc(&mut sim, task.k());
            let fleet = inputs
                .iter()
                .map(|&v| Box::new(obj.machine(v)) as Box<dyn Automaton>)
                .collect();
            (StackKind::Trivial, None, fleet)
        } else {
            let fd = KAntiOmega::alloc(
                &mut sim,
                KAntiOmegaConfig::new(task.k(), task.t()).with_policy(policy),
            );
            let kset = KSetAgreement::alloc(&mut sim, task.k());
            let fleet = inputs
                .iter()
                .map(|&v| Box::new(kset.machine(&fd, v)) as Box<dyn Automaton>)
                .collect();
            (StackKind::FdParallelPaxos, Some(kset), fleet)
        };
        AgreementStack {
            sim,
            fleet,
            task,
            inputs: inputs.to_vec(),
            kind,
            kset,
        }
    }

    /// The protocol the stack chose.
    pub fn kind(&self) -> StackKind {
        self.kind
    }

    /// The k-set agreement object, when the stack uses one.
    pub fn kset(&self) -> Option<&KSetAgreement> {
        self.kset.as_ref()
    }

    /// The task this stack solves.
    pub fn task(&self) -> AgreementTask {
        self.task
    }

    /// The proposals.
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// Shared access to the simulator (instrumentation).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Drives the stack's fleet from `src` under `cfg` — the caller's
    /// budget and stop rule — through [`Sim::run_automata`]. Can be called
    /// again to continue the same run; [`snapshot`](Self::snapshot)
    /// packages the state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] if `src` names a process
    /// outside the task universe (the steps before it have executed).
    pub fn drive<S: StepSource>(
        &mut self,
        src: &mut S,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        self.sim.run_automata(&mut self.fleet, src, cfg)
    }

    /// Drives the stack's fleet for `budget` steps, each chosen by `choose`
    /// from the register arena ([`Sim::run_adaptive`]): the adaptive
    /// adversary's drive.
    pub(crate) fn drive_adaptive<F: FnMut(&Memory) -> ProcessId>(
        &mut self,
        budget: u64,
        choose: F,
    ) -> Result<(), SimError> {
        self.sim.run_adaptive(&mut self.fleet, budget, choose)
    }

    /// Packages the current state as a [`StackRun`] without driving further
    /// (used by custom drivers such as the adaptive adversary).
    pub fn snapshot(&self, status: RunStatus, faulty: ProcSet) -> StackRun {
        let correct = faulty.complement(self.task.universe());
        let report = self.sim.report();
        let outcome = report.agreement_outcome(&self.inputs, correct);
        let violations = check_outcome(&self.task, &outcome);
        StackRun {
            status,
            report,
            outcome,
            violations,
        }
    }

    /// Drives the stack until every process outside `faulty` decides, the
    /// budget runs out, or the source ends; returns the packaged result.
    pub fn run<S: StepSource>(mut self, src: &mut S, budget: u64, faulty: ProcSet) -> StackRun {
        let correct = faulty.complement(self.task.universe());
        let status = self
            .drive(
                src,
                RunConfig::steps(budget).stop_when(StopWhen::AllDecided(correct)),
            )
            .expect("agreement schedules stay within the task universe");
        self.snapshot(status, faulty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::ProcessId;
    use st_sched::{RotatingStarvation, SeededRandom, SetTimely};

    fn inputs(n: usize) -> Vec<Value> {
        (0..n as Value).map(|v| 7 + 3 * v).collect()
    }

    #[test]
    fn picks_trivial_for_t_less_than_k() {
        let task = AgreementTask::new(1, 2, 4).unwrap();
        let stack = AgreementStack::build(task, &inputs(4));
        assert_eq!(stack.kind(), StackKind::Trivial);
        assert!(stack.kset().is_none());
    }

    #[test]
    fn picks_fd_stack_for_k_le_t() {
        let task = AgreementTask::new(2, 2, 4).unwrap();
        let stack = AgreementStack::build(task, &inputs(4));
        assert_eq!(stack.kind(), StackKind::FdParallelPaxos);
        assert!(stack.kset().is_some());
    }

    #[test]
    fn trivial_stack_terminates_on_random_schedule() {
        let task = AgreementTask::new(1, 2, 4).unwrap();
        let stack = AgreementStack::build(task, &inputs(4));
        let mut src = SeededRandom::new(task.universe(), 5);
        let run = stack.run(&mut src, 100_000, ProcSet::EMPTY);
        assert!(run.is_clean_termination(), "{:?}", run.violations);
    }

    #[test]
    fn fd_stack_terminates_on_conforming_schedule() {
        let task = AgreementTask::new(2, 1, 3).unwrap();
        let stack = AgreementStack::build(task, &inputs(3));
        let p = ProcSet::from_indices([0]);
        let q = ProcSet::from_indices([0, 1, 2]);
        let mut src = SetTimely::new(p, q, 6, SeededRandom::new(task.universe(), 8));
        let run = stack.run(&mut src, 2_000_000, ProcSet::EMPTY);
        assert!(run.is_clean_termination(), "{:?}", run.violations);
        // Consensus: a single decided value.
        let distinct: std::collections::BTreeSet<Value> =
            run.outcome.decisions.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), 1);
    }

    #[test]
    fn fd_stack_safe_under_oblivious_adversary() {
        // (1,1,3) under rotating starvation of singletons. An *oblivious*
        // schedule cannot reliably prevent decision (a transient Paxos
        // leader may sneak a ballot through — impossibility only promises
        // that SOME schedule defeats each algorithm, and that schedule must
        // be adaptive; see `adversary::AdaptiveAdversary`). What must hold
        // unconditionally is safety.
        let task = AgreementTask::new(1, 1, 3).unwrap();
        let stack = AgreementStack::build(task, &inputs(3));
        let mut src = RotatingStarvation::new(task.universe(), 1);
        let run = stack.run(&mut src, 500_000, ProcSet::EMPTY);
        assert!(run.is_safe(), "{:?}", run.violations);
        let distinct: std::collections::BTreeSet<Value> =
            run.outcome.decisions.iter().flatten().copied().collect();
        assert!(distinct.len() <= 1);
        let _ = ProcessId::new(0);
    }
}
