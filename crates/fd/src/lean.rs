//! `LeanOmega`: Figure 2 at `k = 1`, at one fixed set width — a
//! constructor, not a second detector.
//!
//! For `k = 1` the candidate sets of [`KAntiOmega`] are the singletons
//! `{p_a}`: `Counter[A, q]` is an `n × n` matrix (accused × accuser), the
//! per-set timers are per-process timers, and the winnerset is a single
//! leader. [`KAntiOmegaMachine`] keeps `O(|Π^k_n| + n)` local state, which
//! at `k = 1` is `O(n)`: none before its first step, the row buffer and the
//! own column from its first counter read, the heartbeat and timer vectors
//! from the end of its first scan. It reaches
//! [`MAX_PROCESSES`](st_core::process::MAX_PROCESSES) on
//! [`WideProcSet`](st_core::WideProcSet) universes — so the large-`n`
//! scaling fleets (`n ∈ {64, 256, 1024}`) run the paper's machine itself.
//!
//! [`LeanOmega::alloc`] pins the two things a caller of
//! [`KAntiOmega::alloc_wide`] would otherwise choose: `k = 1`, and the
//! widest set ([`LEAN_WIDTH`] words, whatever `n` is — no width dispatch;
//! the unused words cost nothing measurable at `n = 64`). At that width
//! the [`WINNERSET_PROBE`](crate::WINNERSET_PROBE) payload is the winner's
//! colex rank in `Π^1_n`, which **is** the leader's index. Nothing else
//! differs from a `KAntiOmega::<LEAN_WIDTH>` allocated by hand: same
//! register names, same probes, same steps.
//!
//! The constructor exists because the repo benchmark's fleet cells call it
//! by this name and signature; see ROADMAP item 1.

use st_core::process::MAX_PROCESSES;
use st_sim::Sim;

use crate::kanti::{KAntiOmega, KAntiOmegaConfig, KAntiOmegaMachine};
use crate::timeout::TimeoutPolicy;

/// The set width of every lean fleet: enough words for
/// [`MAX_PROCESSES`] processes.
pub const LEAN_WIDTH: usize = MAX_PROCESSES / 64;

/// One process's machine of a [`LeanOmega`] instance: the Figure 2 machine
/// at [`LEAN_WIDTH`].
pub type LeanOmegaMachine = KAntiOmegaMachine<LEAN_WIDTH>;

/// A `k = 1` Figure 2 instance at [`LEAN_WIDTH`]. Clone into every machine.
#[derive(Clone, Debug)]
pub struct LeanOmega(KAntiOmega<LEAN_WIDTH>);

impl LeanOmega {
    /// Allocates `n` heartbeats and the `n × n` accusation counter matrix
    /// in `sim`: [`KAntiOmega::alloc_wide`] with `k = 1`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ t ≤ n − 1` (the `k = 1` slice of Theorem 23's
    /// range).
    pub fn alloc(sim: &mut Sim, t: usize, policy: TimeoutPolicy) -> Self {
        let config = KAntiOmegaConfig::new(1, t).with_policy(policy);
        LeanOmega(KAntiOmega::alloc_wide(sim, config))
    }

    /// The Figure 2 instance this constructor built.
    pub fn detector(&self) -> &KAntiOmega<LEAN_WIDTH> {
        &self.0
    }

    /// One process's machine: drive a `Vec` of them as a fleet
    /// ([`Sim::run_automata`](st_sim::Sim::run_automata)).
    pub fn machine(&self) -> LeanOmegaMachine {
        self.0.machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WINNERSET_PROBE;
    use st_core::{ProcessId, Schedule, ScheduleCursor, Universe};
    use st_sim::RunConfig;

    fn round_robin(n: usize, steps: usize) -> Vec<usize> {
        (0..steps).map(|s| s % n).collect()
    }

    /// The leader a `k = 1` machine currently trusts.
    fn leader(m: &LeanOmegaMachine) -> usize {
        m.winnerset().nth(0).expect("a 1-set").index()
    }

    #[test]
    fn all_alive_converges_to_lowest_index() {
        let n = 5;
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
        let mut fleet: Vec<LeanOmegaMachine> = (0..n).map(|_| fd.machine()).collect();
        let schedule = Schedule::from_indices(round_robin(n, 40_000));
        let mut src = ScheduleCursor::new(schedule);
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(40_000))
            .unwrap();
        for m in &fleet {
            assert_eq!(leader(m), 0, "synchronous run must elect p0");
            assert!(m.iterations() > 0);
        }
    }

    #[test]
    fn crashed_lowest_process_is_deposed() {
        // p0 never scheduled: rows accusing p0 grow at >= t+1 columns, so
        // the argmin moves off row 0.
        let n = 4;
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
        let mut fleet: Vec<LeanOmegaMachine> = (0..n).map(|_| fd.machine()).collect();
        let steps: Vec<usize> = (0..120_000).map(|s| 1 + (s % (n - 1))).collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(120_000))
            .unwrap();
        for m in fleet.iter().skip(1) {
            assert_ne!(leader(m), 0, "crashed p0 must be deposed");
        }
        assert!(
            fd.detector().peek_counter(&sim, 0, ProcessId::new(1)) > 0,
            "p1 must have accused {{p0}}"
        );
    }

    /// At [`LEAN_WIDTH`] the winnerset payload is a colex rank; at `k = 1`
    /// that is the leader's index.
    #[test]
    fn leader_probe_published_on_change() {
        let n = 3;
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
        let mut fleet: Vec<LeanOmegaMachine> = (0..n).map(|_| fd.machine()).collect();
        // p0 silent: p1 and p2 publish the initial leader p0, then depose it.
        let steps: Vec<usize> = (0..10_000).map(|s| 1 + s % 2).collect();
        let schedule = Schedule::from_indices(steps);
        sim.run_automata(
            &mut fleet,
            &mut ScheduleCursor::new(schedule),
            RunConfig::steps(10_000),
        )
        .unwrap();
        let rep = sim.report();
        for (i, m) in fleet.iter().enumerate().skip(1) {
            let timeline = rep.probes.timeline(ProcessId::new(i), WINNERSET_PROBE);
            assert_eq!(timeline.first().map(|&(_, v)| v), Some(0));
            assert_eq!(timeline.last().map(|&(_, v)| v), Some(leader(m) as u64));
            assert!(
                timeline.windows(2).all(|w| w[0].1 != w[1].1),
                "published only on change: {timeline:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires 1 <= k <= t <= n-1")]
    fn invalid_t_rejected() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let _ = LeanOmega::alloc(&mut sim, 3, TimeoutPolicy::Increment);
    }
}
