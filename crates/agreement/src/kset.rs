//! `(t,k,n)`-agreement from k-anti-Ω: the k-parallel-Paxos construction.
//!
//! The paper (Section 4.3) solves `(t,k,n)`-agreement from t-resilient
//! k-anti-Ω via Zieliński's generic result. We use the **stronger property
//! the Figure 2 algorithm actually guarantees** (Lemma 22): eventually all
//! correct processes hold the *same* winnerset `A0` of size `k`, containing
//! at least one correct process. Given that, the construction is the
//! standard one:
//!
//! - run `k` independent single-decree Paxos instances;
//! - instance `r` is led, at any moment, by the `r`-th smallest member of
//!   the *current local* winnerset;
//! - every process decides the first instance decision it observes.
//!
//! **Safety is unconditional**: each instance is Paxos (at most one chosen
//! value, always a proposed one), so at most `k` distinct decisions in *any*
//! run — even adversarial ones outside `S^k_{t+1,n}`. **Termination** needs
//! winnerset stabilization: the stable `A0` has a correct member, say its
//! `r`-th, which then leads instance `r` unopposed and decides. This
//! substitution preserves Theorem 24 end-to-end, resting on Lemma 22's
//! common winnerset rather than on the k-anti-Ω specification alone: at
//! k ≥ 2 whether it needs Lemma 22 is open (ROADMAP item 24).

use st_core::{AgreementTask, Value};
use st_fd::{KAntiOmega, KAntiOmegaMachine};
use st_sim::{Automaton, BatchAccess, Sim, Status, StepAccess};

use crate::paxos::{CoreStep, Paxos, PaxosProposerCore};

/// Probe key publishing the instance index a process decided through.
pub const DECIDED_INSTANCE_PROBE: &str = "decided-instance";

/// A k-set agreement object: `k` Paxos instances driven by a k-anti-Ω
/// winnerset. Clone into each process.
#[derive(Clone, Debug)]
pub struct KSetAgreement {
    instances: Vec<Paxos>,
}

impl KSetAgreement {
    /// Allocates `k` Paxos instances in `sim`, shared by every process's
    /// [`machine`](Self::machine).
    ///
    /// # Panics
    ///
    /// Panics where [`AgreementTask::check_degree`] refuses `k`.
    pub fn alloc(sim: &mut Sim, k: usize) -> Self {
        AgreementTask::check_degree(k, sim.universe().n()).unwrap_or_else(|e| panic!("{e}"));
        KSetAgreement {
            instances: (0..k)
                .map(|r| Paxos::alloc(sim, &format!("kset[{r}]")))
                .collect(),
        }
    }

    /// The agreement degree `k`.
    pub fn k(&self) -> usize {
        self.instances.len()
    }

    /// The underlying instances (instrumentation).
    pub fn instances(&self) -> &[Paxos] {
        &self.instances
    }

    /// The full per-process protocol as an explicit state machine
    /// ([`st_sim::Automaton`]): rounds of an FD iteration (an embedded
    /// [`KAntiOmegaMachine`]), a decision scan over the instances (adopting
    /// is always cheapest), and one ballot attempt on the instance this
    /// process currently leads — the `r`-th smallest member of its current
    /// winnerset leads instance `r` — until a decision is reached; then it
    /// publishes the [`DECIDED_INSTANCE_PROBE`], decides and halts. One
    /// register operation per scheduled step.
    ///
    /// One machine per process: drive a `Vec` of them as a fleet
    /// ([`Sim::run_automata`](st_sim::Sim::run_automata) and the replay
    /// drives).
    ///
    /// # Panics
    ///
    /// Panics with `"FD degree must match"` if `fd`'s `k` differs from this
    /// object's.
    pub fn machine<const W: usize>(
        &self,
        fd: &KAntiOmega<W>,
        proposal: Value,
    ) -> KSetAgreementMachine<W> {
        assert_eq!(fd.config().k, self.k(), "FD degree must match");
        KSetAgreementMachine {
            kset: self.clone(),
            fd: fd.machine(),
            fd_iterations_seen: 0,
            proposers: self
                .instances
                .iter()
                .map(|instance| PaxosProposerCore::new(instance.clone()))
                .collect(),
            proposal,
            phase: KsetPhase::Fd,
        }
    }
}

/// Control state of [`KSetAgreementMachine`]: which part of the protocol
/// round the next scheduled step executes.
#[derive(Clone, Copy, Debug)]
enum KsetPhase {
    /// Stepping the embedded FD machine until it closes an iteration.
    Fd,
    /// Decision scan: read instance `r`'s decision register.
    Scan(u32),
    /// Leading instance `r`: stepping its Paxos proposer core.
    Lead(u32),
}

/// The k-set agreement protocol of one process. Construct via
/// [`KSetAgreement::machine`].
#[derive(Clone)]
pub struct KSetAgreementMachine<const W: usize = 1> {
    kset: KSetAgreement,
    fd: KAntiOmegaMachine<W>,
    /// FD iterations completed at the last phase hand-off: the Fd phase
    /// ends exactly when the embedded machine's iteration counter moves.
    fd_iterations_seen: u64,
    proposers: Vec<PaxosProposerCore>,
    proposal: Value,
    phase: KsetPhase,
}

impl<const W: usize> KSetAgreementMachine<W> {
    /// The agreement degree `k`.
    pub fn k(&self) -> usize {
        self.kset.k()
    }

    /// Ballot attempts made so far on instance `r` (metrics).
    pub fn attempts(&self, r: usize) -> u64 {
        self.proposers[r].attempts()
    }

    /// Leaves the Fd phase for the decision scan once the embedded machine
    /// has closed an iteration.
    fn end_fd_iteration(&mut self) {
        if self.fd.iterations() > self.fd_iterations_seen {
            self.fd_iterations_seen = self.fd.iterations();
            self.phase = KsetPhase::Scan(0);
        }
    }
}

impl<const W: usize> Automaton for KSetAgreementMachine<W> {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        match self.phase {
            KsetPhase::Fd => {
                // One step of Figure 2; at the iteration boundary the next
                // scheduled step opens the decision scan.
                self.fd.step(mem);
                self.end_fd_iteration();
                Status::Running
            }
            KsetPhase::Scan(r) => {
                let ri = r as usize;
                if let Some(v) = mem.read(self.kset.instances[ri].decision) {
                    // Adopt: cheapest path to a decision.
                    mem.probe(DECIDED_INSTANCE_PROBE, r as u64);
                    mem.decide(v);
                    return Status::Done;
                }
                if ri + 1 < self.kset.k() {
                    self.phase = KsetPhase::Scan(r + 1);
                    return Status::Running;
                }
                // Scan complete: lead wherever the current winnerset
                // appoints us (a process is the r-th smallest member of at
                // most one r), else back to the FD.
                let winnerset = self.fd.winnerset();
                self.phase = KsetPhase::Fd;
                for lead in 0..self.kset.k() {
                    if winnerset.nth(lead) == Some(mem.pid()) {
                        self.phase = KsetPhase::Lead(lead as u32);
                        break;
                    }
                }
                Status::Running
            }
            KsetPhase::Lead(r) => {
                let ri = r as usize;
                match self.proposers[ri].step(mem, self.proposal) {
                    CoreStep::Busy => Status::Running,
                    CoreStep::Decided(v) => {
                        mem.probe(DECIDED_INSTANCE_PROBE, r as u64);
                        mem.decide(v);
                        Status::Done
                    }
                    CoreStep::Preempted => {
                        // A preempted attempt ends the round (no further
                        // instance names this process): back to the FD.
                        self.phase = KsetPhase::Fd;
                        Status::Running
                    }
                }
            }
        }
    }

    #[inline]
    fn phase_class(&self) -> u8 {
        // Offsets keep the three protocol parts (and the embedded machines'
        // own phases) in distinct groups: FD phases 0–3, the decision scan
        // 4, proposer phases 5–10.
        match self.phase {
            KsetPhase::Fd => self.fd.phase_class(),
            KsetPhase::Scan(_) => 4,
            KsetPhase::Lead(r) => 5 + self.proposers[r as usize].phase_class(),
        }
    }

    #[inline]
    fn read_run(&self) -> usize {
        match self.phase {
            // Every step of the Fd phase is a step of the embedded FD
            // machine; the hand-off to the decision scan happens at an
            // iteration boundary, which the FD's own run never crosses.
            KsetPhase::Fd => self.fd.read_run(),
            // The scan reads one decision register per remaining instance
            // (or goes no-op early by deciding — allowed by the contract).
            KsetPhase::Scan(r) => self.kset.k() - r as usize,
            KsetPhase::Lead(r) => self.proposers[r as usize].read_run(),
        }
    }

    /// The Fd phase batches through the embedded machine's span reads
    /// (Figure 2's counter and heartbeat scans); every other phase steps.
    fn step_reads(&mut self, mem: &mut BatchAccess<'_>) -> Status {
        if !matches!(self.phase, KsetPhase::Fd) {
            return mem.step_through(self);
        }
        self.fd.step_reads(mem);
        self.end_fd_iteration();
        Status::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, ProcessId, Universe};
    use st_fd::KAntiOmegaConfig;
    use st_sched::{SeededRandom, SetTimely};
    use st_sim::{RunConfig, StopWhen};

    /// Full stack under a conforming schedule: FD + k-parallel Paxos.
    #[test]
    fn decides_under_matching_synchrony() {
        let (n, k, t) = (4usize, 2usize, 2usize);
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
        let kset = KSetAgreement::alloc(&mut sim, k);
        let inputs: Vec<Value> = (0..n as Value).map(|v| 10 + v).collect();
        let mut fleet: Vec<_> = u
            .processes()
            .map(|p| kset.machine(&fd, inputs[p.index()]))
            .collect();
        let pset: ProcSet = (0..k).map(ProcessId::new).collect();
        let qset: ProcSet = (0..=t).map(ProcessId::new).collect();
        let mut src = SetTimely::new(pset, qset, 2 * (t + 1), SeededRandom::new(u, 3));
        let status = sim
            .run_automata(
                &mut fleet,
                &mut src,
                RunConfig::steps(3_000_000).stop_when(StopWhen::AllDecided(ProcSet::full(u))),
            )
            .unwrap();
        assert_eq!(status, st_sim::RunStatus::Stopped, "stack must terminate");
        let outcome = sim.report().agreement_outcome(&inputs, ProcSet::full(u));
        let task = st_core::AgreementTask::new(t, k, n).unwrap();
        let violations = st_core::check_outcome(&task, &outcome);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Safety holds under pure random (non-conforming) schedules: whatever
    /// decides, decides consistently.
    #[test]
    fn safety_under_random_schedules() {
        for seed in 0..10u64 {
            let (n, k, t) = (4usize, 2usize, 3usize);
            let u = Universe::new(n).unwrap();
            let mut sim = Sim::new(u);
            let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
            let kset = KSetAgreement::alloc(&mut sim, k);
            let inputs: Vec<Value> = (0..n as Value).collect();
            let mut fleet: Vec<_> = u
                .processes()
                .map(|p| kset.machine(&fd, inputs[p.index()]))
                .collect();
            let mut src = SeededRandom::new(u, seed);
            sim.run_automata(&mut fleet, &mut src, RunConfig::steps(300_000))
                .unwrap();
            let outcome = sim.report().agreement_outcome(&inputs, ProcSet::full(u));
            // Check only the safety clauses (termination not owed on a
            // truncated budget).
            let decided: std::collections::BTreeSet<Value> =
                outcome.decisions.iter().flatten().copied().collect();
            assert!(decided.len() <= k, "seed {seed}: {decided:?}");
            for d in &decided {
                assert!(inputs.contains(d), "seed {seed}: unproposed {d}");
            }
        }
    }

    /// An FD of a higher degree than the object is refused too.
    #[test]
    #[should_panic(expected = "FD degree must match")]
    fn mismatched_fd_rejected() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(2, 2));
        let kset = KSetAgreement::alloc(&mut sim, 1);
        let _ = kset.machine(&fd, 0);
    }

    /// The machine constructor rejects an FD of a lower degree than the
    /// object, before anything is spawned.
    #[test]
    #[should_panic(expected = "FD degree must match")]
    fn mismatched_fd_rejected_machine() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 2));
        let kset = KSetAgreement::alloc(&mut sim, 2);
        let _ = kset.machine(&fd, 0);
    }

    /// `alloc` is the constructor gate: the `k`-bounds panic fires with one
    /// message at either bound.
    #[test]
    fn k_bounds_failure_is_consistent() {
        for bad_k in [0usize, 4] {
            let msg = std::panic::catch_unwind(|| {
                let u = Universe::new(3).unwrap();
                let mut sim = Sim::new(u);
                let _ = KSetAgreement::alloc(&mut sim, bad_k);
            })
            .expect_err("k out of bounds must panic");
            let msg = msg
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| msg.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap();
            assert!(
                msg.contains("need 1 <= k <= n"),
                "k = {bad_k}: unexpected message {msg:?}"
            );
        }
    }

    /// `k == 1` edge (consensus): the stack allocates and decides a single
    /// value under a conforming schedule.
    #[test]
    fn k_equals_one_edge() {
        let (n, k, t) = (3usize, 1usize, 1usize);
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
        let kset = KSetAgreement::alloc(&mut sim, k);
        assert_eq!(kset.k(), 1);
        let mut fleet: Vec<_> = u
            .processes()
            .map(|p| kset.machine(&fd, 70 + p.index() as Value))
            .collect();
        let pset: ProcSet = (0..k).map(ProcessId::new).collect();
        let qset: ProcSet = (0..=t).map(ProcessId::new).collect();
        let mut src = SetTimely::new(pset, qset, 2 * (t + 1), SeededRandom::new(u, 5));
        let status = sim
            .run_automata(
                &mut fleet,
                &mut src,
                RunConfig::steps(3_000_000).stop_when(StopWhen::AllDecided(ProcSet::full(u))),
            )
            .unwrap();
        assert_eq!(status, st_sim::RunStatus::Stopped);
        let decided: std::collections::BTreeSet<Value> =
            sim.decisions().iter().flatten().map(|d| d.value).collect();
        assert_eq!(decided.len(), 1, "consensus: exactly one value");
    }

    /// `k == n` edge: allocation succeeds at the upper bound (the regime is trivially solvable — `t ≤ n−1 < k`
    /// — so the FD composition never arises; Figure 2 itself requires
    /// `k ≤ t ≤ n−1`).
    #[test]
    fn k_equals_n_edge_allocates() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let kset = KSetAgreement::alloc(&mut sim, 3);
        assert_eq!(kset.k(), 3);
        assert_eq!(kset.instances().len(), 3);
    }
}
