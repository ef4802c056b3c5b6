//! The Theorem 26 reduction, packaged as a runnable experiment.
//!
//! > If algorithm `A` solved `(k,k,n)`-agreement in `S^{k+1}_{n,n}`, then
//! > `k+1` processes could solve `(k,k,k+1)`-agreement in the asynchronous
//! > system by BG-simulating `A` — contradicting the asynchronous
//! > impossibility of `(k,k,k+1)`-agreement.
//!
//! [`run_reduction`] executes the simulation machinery end-to-end: `k+1`
//! simulators (under any host schedule, crashes included) simulate `n_sim`
//! machines, and the report exposes everything the proof talks about —
//! Property (i): at most as many stalled simulated processes as crashed
//! simulators; Property (ii): the simulated schedule keeps every
//! `(crashes+1)`-set timely (checkable with the `st-core` analyzer); and
//! the simulators' adopted decisions.

use st_core::{ProcSet, ProcessId, Schedule, StepSource, Universe, Value, PROCSET_CAPACITY};
use st_sim::{RunConfig, RunStatus, Sim, StopWhen};

use crate::machine::StepMachine;
use crate::simulate::BgSimulation;

/// Everything observable about one reduction run.
#[derive(Clone, Debug)]
pub struct ReductionReport {
    /// Why the host run ended.
    pub status: RunStatus,
    /// Decisions adopted by the simulators (indexed by simulator).
    pub simulator_decisions: Vec<Option<Value>>,
    /// Decisions reached inside the simulated run (indexed by simulated
    /// process).
    pub simulated_decisions: Vec<Option<Value>>,
    /// Each live simulator's linearization of the simulated schedule.
    pub simulated_schedules: Vec<Schedule>,
    /// Host steps executed.
    pub host_steps: u64,
}

impl ReductionReport {
    /// Simulated processes that never decided (stalled or still running).
    pub fn stalled_simulated(&self) -> ProcSet {
        self.simulated_decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(u, _)| ProcessId::new(u))
            .collect()
    }

    /// Distinct values among simulator decisions.
    pub fn distinct_simulator_values(&self) -> usize {
        let set: std::collections::BTreeSet<Value> =
            self.simulator_decisions.iter().flatten().copied().collect();
        set.len()
    }
}

/// What [`run_reduction`] needs of its sizes: a simulator, and 1 to
/// [`PROCSET_CAPACITY`] simulated processes (the stalled ones are a
/// [`ProcSet`]). `Ok` allocates nothing.
pub fn check_reduction(simulators: usize, n_sim: usize) -> Result<(), String> {
    if simulators == 0 {
        return Err("field \"n\": need at least one simulator".into());
    }
    if n_sim == 0 || n_sim > PROCSET_CAPACITY {
        return Err(format!(
            "field \"n_sim\": the BG reduction simulates 1 to {PROCSET_CAPACITY} processes, \
             got n_sim = {n_sim}"
        ));
    }
    Ok(())
}

/// Runs `simulators` BG-simulators over the given machines under the host
/// schedule `src` for at most `budget` steps.
///
/// # Panics
///
/// Panics where [`check_reduction`] refuses `simulators` and
/// `machines.len()`.
pub fn run_reduction<M, S>(
    simulators: usize,
    machines: Vec<M>,
    max_reads: usize,
    src: &mut S,
    budget: u64,
) -> ReductionReport
where
    M: StepMachine + Clone,
    S: StepSource,
{
    check_reduction(simulators, machines.len()).unwrap_or_else(|e| panic!("{e}"));
    let universe = Universe::new(simulators).expect("valid simulator count");
    let mut sim = Sim::new(universe);
    let bg = BgSimulation::alloc(&mut sim, machines, max_reads);
    let mut fleet: Vec<_> = universe.processes().map(|_| bg.simulator()).collect();
    let status = sim
        .run_automata(
            &mut fleet,
            src,
            RunConfig::steps(budget).stop_when(StopWhen::AllFinished(ProcSet::full(universe))),
        )
        .expect("reduction schedule within the simulator universe");
    let report = sim.report();
    ReductionReport {
        status,
        simulator_decisions: universe
            .processes()
            .map(|s| report.decision_value(s))
            .collect(),
        simulated_decisions: bg.peek_simulated_decisions(&sim),
        simulated_schedules: universe
            .processes()
            .map(|s| bg.simulated_schedule(&report, s))
            .collect(),
        host_steps: report.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{FloodMin, TrivialKDecide};
    use st_core::timeliness::empirical_bound;
    use st_core::ScheduleCursor;
    use st_sched::{CrashAfter, CrashPlan, RoundRobin, SeededRandom};

    /// Fault-free simulation of the trivial algorithm: everything decides,
    /// k-agreement and validity hold at both levels.
    #[test]
    fn fault_free_trivial_simulation() {
        let k = 2;
        let n_sim = 5;
        let machines: Vec<TrivialKDecide> = (0..n_sim)
            .map(|u| TrivialKDecide::new(u, k, 100 + u as Value))
            .collect();
        let mut src = RoundRobin::new(Universe::new(k + 1).unwrap());
        let report = run_reduction(k + 1, machines, 64, &mut src, 2_000_000);

        assert!(report.stalled_simulated().is_empty(), "{report:?}");
        assert!(report.simulator_decisions.iter().all(|d| d.is_some()));
        assert!(report.distinct_simulator_values() <= k);
        for d in report.simulated_decisions.iter().flatten() {
            assert!((100..100 + n_sim as Value).contains(d));
        }
    }

    /// Property (i): crashing one of the k+1 simulators stalls at most one
    /// simulated process; the other simulators still decide.
    #[test]
    fn one_simulator_crash_stalls_at_most_one() {
        for crash_step in [5u64, 17, 40, 99] {
            let k = 2;
            let n_sim = 5;
            let machines: Vec<TrivialKDecide> = (0..n_sim)
                .map(|u| TrivialKDecide::new(u, k, 100 + u as Value))
                .collect();
            let plan = CrashPlan::new().crash(ProcessId::new(0), crash_step);
            let mut src = CrashAfter::new(
                SeededRandom::new(Universe::new(k + 1).unwrap(), crash_step),
                plan,
            );
            let report = run_reduction(k + 1, machines, 64, &mut src, 2_000_000);

            assert!(
                report.stalled_simulated().len() <= 1,
                "crash@{crash_step}: stalled {}",
                report.stalled_simulated()
            );
            for s in 1..=k {
                assert!(
                    report.simulator_decisions[s].is_some(),
                    "crash@{crash_step}: live simulator {s} undecided"
                );
            }
            assert!(report.distinct_simulator_values() <= k);
        }
    }

    /// Property (ii): in the fault-free simulated schedule, every
    /// (k+1)-subset of simulated processes is timely with respect to all of
    /// them, with a small bound.
    #[test]
    fn simulated_schedule_is_k_plus_1_timely() {
        let k = 1;
        let n_sim = 4;
        // FloodMin keeps all machines reading for a while, giving a long
        // simulated schedule.
        let machines: Vec<FloodMin> = (0..n_sim)
            .map(|u| FloodMin::new(n_sim, 10 + u as Value))
            .collect();
        let mut src = RoundRobin::new(Universe::new(k + 1).unwrap());
        let report = run_reduction(k + 1, machines, 64, &mut src, 2_000_000);

        let sched = &report.simulated_schedules[0];
        assert!(
            sched.len() >= n_sim * 3,
            "schedule too short: {}",
            sched.len()
        );
        let universe = Universe::new(n_sim).unwrap();
        let full = ProcSet::full(universe);
        for pair in st_core::subsets::KSubsets::new(universe, k + 1) {
            let bound = empirical_bound(sched, pair, full);
            assert!(
                bound <= 2 * n_sim,
                "{pair} not timely in simulated schedule (bound {bound})"
            );
        }
    }

    /// Simulators agree with the simulated decisions (adoption).
    #[test]
    fn adoption_takes_simulated_values() {
        let k = 1;
        let n_sim = 3;
        let machines: Vec<TrivialKDecide> = (0..n_sim)
            .map(|u| TrivialKDecide::new(u, k, 70 + u as Value))
            .collect();
        let mut src = RoundRobin::new(Universe::new(k + 1).unwrap());
        let report = run_reduction(k + 1, machines, 32, &mut src, 1_000_000);
        let simulated: Vec<Value> = report
            .simulated_decisions
            .iter()
            .flatten()
            .copied()
            .collect();
        for d in report.simulator_decisions.iter().flatten() {
            assert!(simulated.contains(d), "adopted {d} not simulated");
        }
    }

    /// Deterministic host schedules give deterministic reductions.
    #[test]
    fn reduction_is_deterministic() {
        let run = || {
            let machines: Vec<TrivialKDecide> = (0..4)
                .map(|u| TrivialKDecide::new(u, 2, u as Value))
                .collect();
            let sched: Vec<usize> = (0..40_000).map(|i| (i * 7 + i / 11) % 3).collect();
            let mut src = ScheduleCursor::new(st_core::Schedule::from_indices(sched));
            let r = run_reduction(3, machines, 64, &mut src, 60_000);
            (r.simulator_decisions, r.simulated_decisions, r.host_steps)
        };
        assert_eq!(run(), run());
    }
}
