//! `LeanConsensus`: the §4.3 construction at `k = 1` — a constructor, not a
//! second protocol.
//!
//! [`KSetAgreement`] with one Paxos instance is consensus: the winnerset is
//! a singleton, its only member leads the only instance, and every process
//! adopts the first decision it sees. Composed with a
//! [`LeanOmega`] (Figure 2 at `k = 1`, width [`LEAN_WIDTH`]) that is the
//! stack the large-`n` scaling fleets (`n` up to 1024) run —
//! [`KSetAgreementMachine`] itself, with every probe and register name it
//! has at any other `k` (`kset[0].rec[i]`, `kset[0].decision`,
//! [`DECIDED_INSTANCE_PROBE`](crate::DECIDED_INSTANCE_PROBE)).
//!
//! Safety is Paxos safety, unconditional. Termination needs winnerset
//! stabilization, which Figure 2 provides on schedules where some process
//! is set-timely — at `k = 1` set timeliness degenerates to process
//! timeliness of a single process, exactly footnote 2's Ω regime.
//!
//! The constructor exists because the repo benchmark's fleet cells call it
//! by this name and signature; see ROADMAP item 1.

use st_core::Value;
use st_fd::{LeanOmega, LEAN_WIDTH};
use st_sim::Sim;

use crate::kset::{KSetAgreement, KSetAgreementMachine};

/// One process's machine of a [`LeanConsensus`] object: the k-set machine
/// at [`LEAN_WIDTH`].
pub type LeanConsensusMachine = KSetAgreementMachine<LEAN_WIDTH>;

/// A `k = 1` k-set agreement object, to be driven by a [`LeanOmega`]
/// leader. Clone into each machine via [`machine`](Self::machine).
#[derive(Clone, Debug)]
pub struct LeanConsensus(KSetAgreement);

impl LeanConsensus {
    /// Allocates the one Paxos instance in `sim`: [`KSetAgreement::alloc`]
    /// with `k = 1`.
    pub fn alloc(sim: &mut Sim) -> Self {
        LeanConsensus(KSetAgreement::alloc(sim, 1))
    }

    /// The k-set agreement object this constructor built.
    pub fn kset(&self) -> &KSetAgreement {
        &self.0
    }

    /// One process's machine, composed with its own copy of the detector.
    pub fn machine(&self, fd: &LeanOmega, proposal: Value) -> LeanConsensusMachine {
        self.0.machine(fd.detector(), proposal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{Schedule, ScheduleCursor, Universe};
    use st_fd::TimeoutPolicy;
    use st_sim::RunConfig;

    fn build(n: usize) -> (Sim, LeanOmega, LeanConsensus) {
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
        let cons = LeanConsensus::alloc(&mut sim);
        (sim, fd, cons)
    }

    #[test]
    fn round_robin_reaches_consensus() {
        let n = 5;
        let (mut sim, fd, cons) = build(n);
        let mut fleet: Vec<LeanConsensusMachine> = (0..n)
            .map(|i| cons.machine(&fd, 100 + i as Value))
            .collect();
        let steps: Vec<usize> = (0..600_000).map(|s| s % n).collect();
        let schedule = Schedule::from_indices(steps);
        sim.run_automata(
            &mut fleet,
            &mut ScheduleCursor::new(schedule),
            RunConfig::steps(600_000),
        )
        .unwrap();
        let decided: std::collections::BTreeSet<Value> =
            sim.decisions().iter().flatten().map(|d| d.value).collect();
        assert_eq!(
            decided.len(),
            1,
            "consensus: exactly one value, {decided:?}"
        );
        let v = *decided.first().unwrap();
        assert!((100..100 + n as Value).contains(&v), "validity: {v}");
        assert!(
            sim.decisions().iter().all(|d| d.is_some()),
            "all must decide under round-robin"
        );
    }

    #[test]
    fn safety_under_skewed_schedules() {
        // A schedule heavily favoring one process, then another: whatever
        // decides, decides one proposed value.
        let n = 4;
        let (mut sim, fd, cons) = build(n);
        let mut fleet: Vec<LeanConsensusMachine> = (0..n)
            .map(|i| cons.machine(&fd, 100 + i as Value))
            .collect();
        let steps: Vec<usize> = (0..200_000)
            .map(|s| if s % 7 < 5 { s % 2 } else { 2 + (s % 2) })
            .collect();
        let schedule = Schedule::from_indices(steps);
        sim.run_automata(
            &mut fleet,
            &mut ScheduleCursor::new(schedule),
            RunConfig::steps(200_000),
        )
        .unwrap();
        let decided: std::collections::BTreeSet<Value> =
            sim.decisions().iter().flatten().map(|d| d.value).collect();
        assert!(decided.len() <= 1, "agreement violated: {decided:?}");
        for v in &decided {
            assert!((100..100 + n as Value).contains(v), "validity: {v}");
        }
    }
}
