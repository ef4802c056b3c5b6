//! Property tests for the BG substrate: safe agreement's defining
//! properties and the simulation's lockstep/validity invariants under
//! arbitrary host schedules and crash plans.

use proptest::prelude::*;
use st_bgsim::{
    run_reduction, CallStep, FloodMin, Resolution, SafeAgreement, SafeAgreementCall, TrivialKDecide,
};
use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe, Value};
use st_sched::{CrashAfter, CrashPlan, SeededRandom};
use st_sim::{Automaton, RunConfig, Sim, Status, StepAccess, StopWhen};

/// Proposes, then — with `resolve` — scans until the object resolves to a
/// value and decides it; without, decides 0 once the proposal completed.
struct Proposer {
    object: SafeAgreement,
    call: SafeAgreementCall,
    resolve: bool,
}

impl Automaton for Proposer {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        match self.call.step(&self.object, mem) {
            CallStep::Busy => Status::Running,
            CallStep::Proposed if !self.resolve => {
                mem.decide(0);
                Status::Done
            }
            CallStep::Resolved(Resolution::Agreed(w)) => {
                mem.decide(w);
                Status::Done
            }
            CallStep::Proposed | CallStep::Resolved(_) => {
                self.call = SafeAgreementCall::resolve();
                Status::Running
            }
        }
    }
}

prop_compose! {
    fn arb_schedule(n: usize)(steps in prop::collection::vec(0..n, 100..2_000)) -> Schedule {
        Schedule::from_indices(steps)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Safe agreement: all deciders agree on a proposed value, under any
    /// interleaving.
    #[test]
    fn safe_agreement_agreement_validity(sched in arb_schedule(3)) {
        let width = 3;
        let u = Universe::new(width).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", width);
        let mut fleet: Vec<_> = u.processes().map(|p| {
            let call = SafeAgreementCall::propose(10 + p.index() as Value);
            Proposer { object: sa.clone(), call, resolve: true }
        }).collect();
        let len = sched.len() as u64;
        let mut src = ScheduleCursor::new(sched);
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(len).stop_when(StopWhen::AllDecided(ProcSet::full(u)))).unwrap();
        let decided: Vec<Value> = sim.report().decisions.iter().flatten().map(|d| d.value).collect();
        if let Some(&first) = decided.first() {
            prop_assert!(decided.iter().all(|&v| v == first));
            prop_assert!((10..13).contains(&first));
        }
    }

    /// Reduction with crashes: Property (i) — stalled simulated processes
    /// never exceed crashed simulators; simulator adoptions stay within the
    /// simulated decision set.
    #[test]
    fn reduction_property_i(seed in 0u64..5_000, k in 1usize..=2, crash_step in 0u64..5_000) {
        let n_sim = 4;
        let machines: Vec<TrivialKDecide> =
            (0..n_sim).map(|u| TrivialKDecide::new(u, k, 200 + u as Value)).collect();
        let host = Universe::new(k + 1).unwrap();
        let plan = CrashPlan::new().crash(ProcessId::new(0), crash_step);
        let mut src = CrashAfter::new(SeededRandom::new(host, seed), plan);
        let report = run_reduction(k + 1, machines, 64, &mut src, 400_000);
        prop_assert!(report.stalled_simulated().len() <= 1,
            "stalled {} with 1 crash", report.stalled_simulated());
        let simulated: Vec<Value> = report.simulated_decisions.iter().flatten().copied().collect();
        for d in report.simulator_decisions.iter().flatten() {
            prop_assert!(simulated.contains(d));
        }
        prop_assert!(report.distinct_simulator_values() <= k);
    }

    /// Lockstep: every simulator's linearization of one simulated process's
    /// steps is a prefix of the longest one (copies never diverge).
    #[test]
    fn simulators_stay_in_lockstep(seed in 0u64..5_000) {
        let k = 1;
        let n_sim = 3;
        let machines: Vec<FloodMin> =
            (0..n_sim).map(|u| FloodMin::new(n_sim, 30 + u as Value)).collect();
        let host = Universe::new(k + 1).unwrap();
        let mut src = SeededRandom::new(host, seed);
        let report = run_reduction(k + 1, machines, 64, &mut src, 400_000);
        // Per simulated process, both simulators' step sequences (restricted
        // to that process) have lengths within the machine's program length
        // and the shorter is a prefix count-wise.
        for u in 0..n_sim {
            let counts: Vec<usize> = report.simulated_schedules.iter()
                .map(|s| s.occurrences(ProcessId::new(u)))
                .collect();
            // FloodMin: 1 update + n reads + 1 decide = n + 2 steps max.
            for &c in &counts {
                prop_assert!(c <= n_sim + 2);
            }
        }
        // Validity of FloodMin at the simulated level: decisions are minima
        // of proposals, hence proposals themselves.
        for d in report.simulated_decisions.iter().flatten() {
            prop_assert!((30..30 + n_sim as Value).contains(d));
        }
    }

    /// Safe agreement blocks only while someone sits at level 1: if all
    /// proposers run to completion, resolution always succeeds.
    #[test]
    fn completed_proposers_always_resolve(order in prop::collection::vec(0..2usize, 30..200)) {
        let width = 2;
        let u = Universe::new(width).unwrap();
        let mut sim = Sim::new(u);
        let sa = SafeAgreement::alloc(&mut sim, "sa", width);
        let mut fleet: Vec<_> = u.processes().map(|p| {
            // Deciding marks the completion of the unsafe zone.
            let call = SafeAgreementCall::propose(p.index() as Value);
            Proposer { object: sa.clone(), call, resolve: false }
        }).collect();
        // Random interleaving first, then a fair drain so both proposers
        // complete their (constant-length) unsafe zones.
        let mut src = ScheduleCursor::new(Schedule::from_indices(order));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(10_000)
            .stop_when(StopWhen::AllFinished(ProcSet::full(u)))).unwrap();
        let drain: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let mut src2 = ScheduleCursor::new(Schedule::from_indices(drain));
        sim.run_automata(&mut fleet, &mut src2, RunConfig::steps(40)).unwrap();
        prop_assert!(!sa.peek_unsafe(&sim), "no one may remain at level 1");
    }
}
