//! Ω as the `k = 1` special case, tested.
//!
//! The paper notes (footnote 2) that `(n−1)`-resilient 1-anti-Ω is
//! equivalent to the classic leader oracle Ω of Chandra–Hadzilacos–Toueg:
//! the winnerset is a singleton whose (eventually stable, eventually
//! correct) member is the leader. There is no separate type for it: the
//! oracle is [`KAntiOmegaMachine`](crate::KAntiOmegaMachine) at `k = 1`,
//! the leader the one member of its [`WINNERSET_PROBE`] set.

mod tests {
    use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
    use st_sim::{RunConfig, RunReport, Sim};

    use crate::kanti::{KAntiOmega, KAntiOmegaConfig, WINNERSET_PROBE};

    /// The leader each process trusts at the end of the run.
    fn final_leaders(report: &RunReport, n: usize) -> Vec<Option<ProcessId>> {
        (0..n)
            .map(|p| {
                let bits = report
                    .probes
                    .last_value(ProcessId::new(p), WINNERSET_PROBE)?;
                ProcSet::from_bits(bits).min()
            })
            .collect()
    }

    /// Runs Ω (`t = n − 1`) at every process over `steps`.
    fn run_omega(n: usize, steps: Vec<usize>) -> RunReport {
        let mut sim = Sim::new(Universe::new(n).unwrap());
        let omega = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, n - 1));
        let mut fleet: Vec<_> = (0..n).map(|_| omega.machine()).collect();
        let budget = steps.len() as u64;
        let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(budget))
            .unwrap();
        sim.report()
    }

    #[test]
    fn omega_elects_a_stable_leader_round_robin() {
        let n = 3;
        let report = run_omega(n, (0..30_000).map(|s| s % n).collect());
        // All processes trust the same leader at the end.
        let leaders = final_leaders(&report, n);
        assert!(leaders[0].is_some());
        assert!(leaders.iter().all(|&l| l == leaders[0]));
    }

    #[test]
    fn leader_is_correct_after_crash() {
        // p0 runs briefly, then only p1 and p2 forever: the eventual leader
        // must not be p0.
        let n = 3;
        let mut order: Vec<usize> = (0..60).map(|s| s % n).collect();
        order.extend((0..60_000).map(|s| 1 + (s % 2)));
        let report = run_omega(n, order);
        let leaders = final_leaders(&report, n);
        for survivor in [1usize, 2] {
            let leader = leaders[survivor].expect("a survivor trusts someone");
            assert_ne!(
                leader,
                ProcessId::new(0),
                "crashed p0 must not stay leader (p{survivor} trusts {leader})"
            );
        }
    }

    #[test]
    fn universe_roundtrip() {
        let mut sim = Sim::new(Universe::new(4).unwrap());
        let omega = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 2));
        assert_eq!(omega.universe().n(), 4);
        // One candidate set per process: the singletons.
        assert_eq!(omega.set_count(), 4);
    }

    #[test]
    fn local_accessors() {
        let mut sim = Sim::new(Universe::new(2).unwrap());
        let omega = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 1));
        let machine = omega.machine();
        assert_eq!(machine.iterations(), 0);
        // No leader before the first iteration.
        assert_eq!(machine.winnerset(), ProcSet::EMPTY);
    }
}
