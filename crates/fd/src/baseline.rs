//! The process-timeliness baseline detector — what the paper improves on.
//!
//! Prior partially synchronous models (the paper's Section 1 and related
//! work [3]) build failure detectors on the timeliness of *individual*
//! processes. This module implements that approach with exactly the
//! Figure 2 machinery, but specialized to singletons: per-process timers,
//! per-process accusation counters `Counter[q, p]`, and a winnerset formed
//! of the `k` *individually* least-accused processes.
//!
//! The comparison is the paper's motivation, made measurable (experiment
//! E8): on schedules where a set is timely but none of its members is
//! (e.g. [`AlternatingRotation`](../../st_sched/struct.AlternatingRotation.html)),
//! every singleton's accusation counter grows forever, so this baseline
//! flaps forever — while the set-based Figure 2 algorithm stabilizes.
//!
//! The detector is [`ProcessTimelyMachine`], a machine of its own rather
//! than a parameter of [`KAntiOmegaMachine`](crate::KAntiOmegaMachine):
//! its winner rule (the `k` least-accused processes) is not Figure 2's
//! argmin over sets.

use st_core::{AgreementTask, ProcSet, ProcessId, Universe};
use st_sim::{Automaton, Reg, Sim, Status, StepAccess, WriteDiscipline};

use crate::timeout::TimeoutPolicy;

/// Probe key under which the baseline publishes its winnerset (as
/// `ProcSet::bits`) whenever it changes.
pub const BASELINE_WINNERSET_PROBE: &str = "pt-winnerset";

/// The per-process-timeliness detector: Figure 2 specialized to singleton
/// candidate sets, with the winnerset formed of the `k` least-accused
/// processes. Clone into every process.
#[derive(Clone, Debug)]
pub struct ProcessTimelyDetector {
    k: usize,
    t: usize,
    policy: TimeoutPolicy,
    universe: Universe,
    /// `Heartbeat[p]` is `heartbeat.at(p)`, single-writer.
    heartbeat: Reg<u64>,
    /// `Counter[q][p]` (`p`'s accusations of process `q`, written by `p`)
    /// is `counter.at(q·n + p)`.
    counter: Reg<u64>,
}

impl ProcessTimelyDetector {
    /// Allocates the detector's registers.
    ///
    /// # Panics
    ///
    /// Panics where [`AgreementTask::check_nontrivial`] refuses `(t, k)`.
    pub fn alloc(sim: &mut Sim, k: usize, t: usize, policy: TimeoutPolicy) -> Self {
        let universe = sim.universe();
        let n = universe.n();
        AgreementTask::check_nontrivial(t, k, n).unwrap_or_else(|e| panic!("{e}"));
        let heartbeat = sim.alloc_per_process("pt.Heartbeat", 0u64);
        let counter = sim.alloc_block(
            n * n,
            0u64,
            move |i| WriteDiscipline::SingleWriter(ProcessId::new(i % n)),
            move |i| {
                let (q, p) = (ProcessId::new(i / n), ProcessId::new(i % n));
                format!("pt.Counter[{q},{p}]")
            },
        );
        ProcessTimelyDetector {
            k,
            t,
            policy,
            universe,
            heartbeat,
            counter,
        }
    }

    /// The automaton of one process (iterate forever): drive a `Vec` of
    /// them as a fleet ([`Sim::run_automata`](st_sim::Sim::run_automata)).
    pub fn machine(&self) -> ProcessTimelyMachine {
        let n = self.universe.n();
        ProcessTimelyMachine {
            fd: self.clone(),
            phase: Phase::ReadCounters(0),
            my_hb: 0,
            prev_heartbeat: vec![0; n],
            timeout: vec![1; n],
            timer: vec![1; n],
            cnt: vec![0; n * n],
            winnerset: ProcSet::EMPTY,
            iterations: 0,
            expired: Vec::new(),
        }
    }
}

/// Control state of [`ProcessTimelyMachine`]: the register operation the
/// next scheduled step performs. The local code between two operations
/// runs at the end of the step that performed the first.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Read `Counter[q][p]` at flat index `q·n + p`.
    ReadCounters(u32),
    /// Write the bumped heartbeat.
    WriteHeartbeat,
    /// Read `Heartbeat[q]`, resetting `q`'s timer if it advanced.
    ReadHeartbeats(u32),
    /// Accuse the process at this index of the expired list.
    Accuse(u32),
}

/// The baseline detector of one process as an explicit state machine
/// ([`st_sim::Automaton`]). Construct via [`ProcessTimelyDetector::machine`].
pub struct ProcessTimelyMachine {
    fd: ProcessTimelyDetector,
    phase: Phase,
    my_hb: u64,
    prev_heartbeat: Vec<u64>,
    timeout: Vec<u64>,
    timer: Vec<u64>,
    /// The iteration's snapshot of `Counter[q][p]`, row-major in `q`.
    cnt: Vec<u64>,
    /// The last winnerset chosen, and published: it only changes when a
    /// publication is due.
    winnerset: ProcSet,
    iterations: u64,
    /// Processes whose timers expired this iteration, ascending: the
    /// pending accusation writes.
    expired: Vec<u32>,
}

impl ProcessTimelyMachine {
    /// The k individually least-accused processes, as of the last
    /// completed counter scan.
    pub fn winnerset(&self) -> ProcSet {
        self.winnerset
    }

    /// Completed loop iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// After the last counter read: accuse each process by the
    /// `(t+1)`-st smallest entry of its row, pick the `k` smallest
    /// `(accusation, q)` pairs, and bump the local heartbeat. Returns the
    /// winnerset when it changed, for the caller to publish.
    fn choose_winners(&mut self) -> Option<ProcSet> {
        let n = self.fd.universe.n();
        let mut row = vec![0u64; n];
        let accusation: Vec<u64> = self
            .cnt
            .chunks_exact(n)
            .map(|counts| {
                row.copy_from_slice(counts);
                row.sort_unstable();
                row[self.fd.t]
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&q| (accusation[q], q));
        let winners: ProcSet = order[..self.fd.k]
            .iter()
            .map(|&q| ProcessId::new(q))
            .collect();
        self.my_hb += 1;
        self.phase = Phase::WriteHeartbeat;
        // The first choice always publishes: it has k ≥ 1 members.
        let changed = winners != self.winnerset;
        self.winnerset = winners;
        changed.then_some(winners)
    }

    /// After the last heartbeat read: decrement every timer, grow the
    /// timeout of the expired ones and queue their accusations — or, with
    /// none expired, close the iteration.
    fn expire_timers(&mut self) {
        self.expired.clear();
        for q in 0..self.timer.len() {
            self.timer[q] -= 1;
            if self.timer[q] == 0 {
                self.timeout[q] = self.fd.policy.grow(self.timeout[q]);
                self.timer[q] = self.timeout[q];
                self.expired.push(q as u32);
            }
        }
        if self.expired.is_empty() {
            self.next_iteration();
        } else {
            self.phase = Phase::Accuse(0);
        }
    }

    fn next_iteration(&mut self) {
        self.iterations += 1;
        self.phase = Phase::ReadCounters(0);
    }
}

impl Automaton for ProcessTimelyMachine {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        let n = self.fd.universe.n();
        let me = mem.pid().index();
        match self.phase {
            Phase::ReadCounters(i) => {
                let i = i as usize;
                self.cnt[i] = mem.read_word_array(self.fd.counter, i);
                if i + 1 < n * n {
                    self.phase = Phase::ReadCounters(i as u32 + 1);
                } else if let Some(ws) = self.choose_winners() {
                    mem.probe_set(BASELINE_WINNERSET_PROBE, ws);
                }
            }
            Phase::WriteHeartbeat => {
                mem.write_word_array(self.fd.heartbeat, me, self.my_hb);
                self.phase = Phase::ReadHeartbeats(0);
            }
            Phase::ReadHeartbeats(q) => {
                let q = q as usize;
                let hbq = mem.read_word_array(self.fd.heartbeat, q);
                if hbq > self.prev_heartbeat[q] {
                    self.timer[q] = self.timeout[q];
                    self.prev_heartbeat[q] = hbq;
                }
                if q + 1 < n {
                    self.phase = Phase::ReadHeartbeats(q as u32 + 1);
                } else {
                    self.expire_timers();
                }
            }
            Phase::Accuse(idx) => {
                let q = self.expired[idx as usize] as usize;
                let slot = q * n + me;
                mem.write_word_array(self.fd.counter, slot, self.cnt[slot] + 1);
                if idx as usize + 1 < self.expired.len() {
                    self.phase = Phase::Accuse(idx + 1);
                } else {
                    self.next_iteration();
                }
            }
        }
        Status::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, StepSource};
    use st_sched::{RoundRobin, SeededRandom, SetTimely};
    use st_sim::RunConfig;

    fn run_baseline<S: StepSource>(
        n: usize,
        k: usize,
        t: usize,
        src: &mut S,
        budget: u64,
    ) -> st_sim::RunReport {
        let universe = Universe::new(n).unwrap();
        let mut sim = Sim::new(universe);
        let fd = ProcessTimelyDetector::alloc(&mut sim, k, t, TimeoutPolicy::Increment);
        let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
        sim.run_automata(&mut fleet, src, RunConfig::steps(budget))
            .unwrap();
        sim.report()
    }

    fn stabilization(report: &st_sim::RunReport, n: usize) -> Option<(ProcSet, u64)> {
        let correct = ProcSet::full(Universe::new(n).unwrap());
        let mut common: Option<ProcSet> = None;
        let mut step = 0;
        for p in correct.iter() {
            let last = report.probes.last_value(p, BASELINE_WINNERSET_PROBE)?;
            let set = ProcSet::from_bits(last);
            match common {
                None => common = Some(set),
                Some(c) if c != set => return None,
                _ => {}
            }
            step = step.max(
                report
                    .probes
                    .stabilization_step(p, BASELINE_WINNERSET_PROBE)?,
            );
        }
        common.map(|c| (c, step))
    }

    #[test]
    fn stabilizes_under_round_robin() {
        let mut src = RoundRobin::new(Universe::new(4).unwrap());
        let report = run_baseline(4, 2, 2, &mut src, 300_000);
        let (ws, _) = stabilization(&report, 4).expect("round robin is process-timely");
        assert_eq!(ws.len(), 2);
    }

    #[test]
    fn stabilizes_when_an_individual_is_timely() {
        let u = Universe::new(4).unwrap();
        let p = ProcSet::from_indices([0]);
        let q = ProcSet::from_indices([0, 1, 2]);
        let mut src = SetTimely::new(p, q, 4, SeededRandom::new(u, 5));
        let report = run_baseline(4, 1, 2, &mut src, 600_000);
        let (ws, _) = stabilization(&report, 4).expect("p0 is individually timely");
        assert!(ws.contains(ProcessId::new(0)));
    }

    #[test]
    fn flaps_when_only_sets_are_timely() {
        // The E8 workload: groups {p0,p1}, {p2,p3} are timely, nobody
        // individually is. The baseline must keep flapping late in the run.
        let groups = [ProcSet::from_indices([0, 1]), ProcSet::from_indices([2, 3])];
        let mut src = st_sched::AlternatingRotation::new(&groups);
        let budget = 600_000u64;
        let report = run_baseline(4, 2, 2, &mut src, budget);
        let late_changes: usize = (0..4)
            .map(|i| {
                report
                    .probes
                    .timeline(ProcessId::new(i), BASELINE_WINNERSET_PROBE)
                    .iter()
                    .filter(|&&(s, _)| s > budget * 3 / 4)
                    .count()
            })
            .sum();
        assert!(
            late_changes > 0,
            "baseline unexpectedly stabilized on a set-timely-only schedule"
        );
    }

    #[test]
    fn step_cost_formula() {
        let mut sim = Sim::new(Universe::new(3).unwrap());
        let fd = ProcessTimelyDetector::alloc(&mut sim, 1, 1, TimeoutPolicy::Increment);
        // One iteration is n² counter reads + 1 heartbeat write + n
        // heartbeat reads + one counter write per expiry, and the first
        // iteration expires every timer (all start at 1).
        let mut fleet: Vec<_> = (0..3).map(|_| fd.machine()).collect();
        let steps = 9 + 1 + 3 + 3;
        let schedule = st_core::Schedule::from_indices(vec![0usize; steps as usize]);
        sim.run_automata(
            &mut fleet,
            &mut st_core::ScheduleCursor::new(schedule),
            RunConfig::steps(steps),
        )
        .unwrap();
        assert_eq!(fleet[0].iterations(), 1);
        assert_eq!(fleet[0].winnerset(), ProcSet::from_indices([0]));
    }

    #[test]
    #[should_panic(expected = "requires 1 <= k <= t")]
    fn invalid_parameters_rejected() {
        let mut sim = Sim::new(Universe::new(3).unwrap());
        let _ = ProcessTimelyDetector::alloc(&mut sim, 2, 1, TimeoutPolicy::Increment);
    }
}
