//! The trivial algorithm for `t < k` (asynchronously solvable regime).
//!
//! When fewer processes may crash than values may be decided, the closing
//! remark of Section 4.3 applies: `(t,k,n)`-agreement is solvable in the
//! fully asynchronous system. The folklore algorithm: the `k` lowest-indexed
//! processes decide their own values immediately and publish them; everyone
//! else keeps collecting the `k` publication registers and adopts the first
//! value seen. Since `t < k`, at least one publisher is correct, so a value
//! always appears.

use st_core::{AgreementTask, Value};
use st_sim::{Automaton, Reg, Sim, Status, StepAccess};

/// The trivial `t < k` agreement object. Clone into each process.
#[derive(Clone, Debug)]
pub struct TrivialAgreement {
    published: Vec<Reg<Option<Value>>>,
}

impl TrivialAgreement {
    /// Allocates `k` publication registers (owned by the `k` lowest-indexed
    /// processes).
    ///
    /// # Panics
    ///
    /// Panics where [`AgreementTask::check_degree`] refuses `k`.
    pub fn alloc(sim: &mut Sim, k: usize) -> Self {
        AgreementTask::check_degree(k, sim.universe().n()).unwrap_or_else(|e| panic!("{e}"));
        let published = (0..k)
            .map(|i| {
                let owner = st_core::ProcessId::new(i);
                sim.alloc_sw(format!("trivial.decide[{i}]"), owner, None)
            })
            .collect();
        TrivialAgreement { published }
    }

    /// The agreement degree `k`.
    pub fn k(&self) -> usize {
        self.published.len()
    }

    /// The per-process protocol as an explicit state machine: publishers
    /// publish and decide in one step; adopters poll the publication
    /// registers round-robin from the first and decide the first value
    /// they see.
    pub fn machine(&self, proposal: Value) -> TrivialMachine {
        TrivialMachine {
            object: self.clone(),
            proposal,
            scan: 0,
        }
    }
}

/// One process of [`TrivialAgreement`] ([`st_sim::Automaton`]).
/// Construct via [`TrivialAgreement::machine`].
#[derive(Clone, Debug)]
pub struct TrivialMachine {
    object: TrivialAgreement,
    proposal: Value,
    /// The publication register an adopter reads next.
    scan: usize,
}

impl Automaton for TrivialMachine {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        let published = &self.object.published;
        let me = mem.pid().index();
        if me < published.len() {
            mem.write(published[me], Some(self.proposal));
            mem.decide(self.proposal);
            return Status::Done;
        }
        match mem.read(published[self.scan]) {
            Some(v) => {
                mem.decide(v);
                Status::Done
            }
            None => {
                self.scan = (self.scan + 1) % published.len();
                Status::Running
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{AgreementTask, ProcSet, ProcessId, Universe};
    use st_sched::{CrashAfter, CrashPlan, SeededRandom};
    use st_sim::{RunConfig, StopWhen};

    fn run_trivial(
        n: usize,
        k: usize,
        t: usize,
        crashed: ProcSet,
        seed: u64,
    ) -> (st_sim::RunReport, Vec<Value>) {
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let obj = TrivialAgreement::alloc(&mut sim, k);
        let inputs: Vec<Value> = (0..n as Value).map(|v| 50 + v).collect();
        let mut fleet: Vec<_> = u
            .processes()
            .map(|p| obj.machine(inputs[p.index()]))
            .collect();
        let plan = CrashPlan::all_at(crashed, 0);
        let mut src = CrashAfter::new(SeededRandom::new(u, seed), plan);
        let correct = crashed.complement(u);
        sim.run_automata(
            &mut fleet,
            &mut src,
            RunConfig::steps(100_000).stop_when(StopWhen::AllDecided(correct)),
        )
        .unwrap();
        let _ = t;
        (sim.report(), inputs)
    }

    #[test]
    fn all_correct_processes_decide() {
        let (report, inputs) = run_trivial(5, 3, 2, ProcSet::EMPTY, 1);
        let u = Universe::new(5).unwrap();
        let outcome = report.agreement_outcome(&inputs, ProcSet::full(u));
        let task = AgreementTask::new(2, 3, 5).unwrap();
        assert!(st_core::check_outcome(&task, &outcome).is_empty());
    }

    #[test]
    fn tolerates_t_crashed_publishers() {
        // k = 3, t = 2: crash publishers p0, p1 from the start; p2 remains.
        let crashed = ProcSet::from_indices([0, 1]);
        let (report, inputs) = run_trivial(5, 3, 2, crashed, 2);
        let u = Universe::new(5).unwrap();
        let correct = crashed.complement(u);
        let outcome = report.agreement_outcome(&inputs, correct);
        let task = AgreementTask::new(2, 3, 5).unwrap();
        assert!(
            st_core::check_outcome(&task, &outcome).is_empty(),
            "correct processes must all decide p2's value"
        );
        // Adopters must have adopted p2's value specifically.
        for adopter in [3usize, 4] {
            assert_eq!(report.decision_value(ProcessId::new(adopter)), Some(52));
        }
    }

    #[test]
    fn at_most_k_values() {
        let (report, inputs) = run_trivial(6, 2, 1, ProcSet::EMPTY, 3);
        let u = Universe::new(6).unwrap();
        let outcome = report.agreement_outcome(&inputs, ProcSet::full(u));
        let distinct: std::collections::BTreeSet<Value> =
            outcome.decisions.iter().flatten().copied().collect();
        assert!(distinct.len() <= 2);
    }
}
