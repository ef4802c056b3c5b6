//! Property tests: agreement safety under arbitrary schedules, crash plans,
//! and adversarial drivers — the unconditional half of the paper's claims.

use proptest::prelude::*;
use st_agreement::{drive_adversarially, AgreementStack, Paxos};
use st_core::{AgreementTask, ProcSet, Schedule, ScheduleCursor, Universe, Value};
use st_sched::{CrashAfter, CrashPlan, SeededRandom};
use st_sim::{RunConfig, Sim, StopWhen};

prop_compose! {
    /// A random schedule over n processes.
    fn arb_schedule(n: usize, max_len: usize)(steps in prop::collection::vec(0..n, 64..max_len)) -> Schedule {
        Schedule::from_indices(steps)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Paxos never chooses two values, never chooses an unproposed value,
    /// under arbitrary schedules.
    #[test]
    fn paxos_agreement_validity(sched in arb_schedule(3, 1500)) {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let px = Paxos::alloc(&mut sim, "px");
        let mut fleet: Vec<_> = u.processes().map(|p| px.machine(100 + p.index() as Value)).collect();
        let mut src = ScheduleCursor::new(sched);
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(2000).stop_when(StopWhen::AllDecided(ProcSet::full(u)))).unwrap();
        let rep = sim.report();
        let decided: Vec<Value> = rep.decisions.iter().flatten().map(|d| d.value).collect();
        if let Some(&first) = decided.first() {
            prop_assert!(decided.iter().all(|&v| v == first), "split: {decided:?}");
            prop_assert!((100..103).contains(&first));
        }
        // The decision register can never contradict process decisions.
        if let Some(v) = px.peek_decision(&sim) {
            prop_assert!(decided.iter().all(|&d| d == v));
        }
    }

    /// The full FD + k-parallel-Paxos stack keeps k-agreement and validity
    /// under random schedules and random crash plans, for random (t,k,n).
    #[test]
    fn stack_safety_under_random_runs(
        seed in 0u64..10_000,
        n in 3usize..=5,
        raw_k in 1usize..=3,
        crash_bits in 0u64..8,
        crash_step in 0u64..50_000,
    ) {
        let t = n - 1;
        let k = raw_k.min(t);
        let task = AgreementTask::new(t, k, n).unwrap();
        let inputs: Vec<Value> = (0..n as Value).map(|v| 70 + v).collect();
        let stack = AgreementStack::build(task, &inputs);
        let crashed = ProcSet::from_bits(crash_bits & ((1 << n) - 1));
        let plan = CrashPlan::all_at(crashed, crash_step);
        let mut src = CrashAfter::new(SeededRandom::new(task.universe(), seed), plan);
        let run = stack.run(&mut src, 120_000, crashed);
        prop_assert!(run.is_safe(), "violations: {:?}", run.violations);
        let distinct: std::collections::BTreeSet<Value> =
            run.outcome.decisions.iter().flatten().copied().collect();
        prop_assert!(distinct.len() <= k);
        for v in distinct {
            prop_assert!(inputs.contains(&v));
        }
    }

    /// The adaptive adversary never breaks safety, never freezes more than
    /// k processes, and never lets a decision slip through.
    #[test]
    fn adversary_blocks_and_stays_safe(n in 3usize..=4, k in 1usize..=2) {
        prop_assume!(k < n - 1);
        let task = AgreementTask::new(k, k, n).unwrap();
        let inputs: Vec<Value> = (0..n as Value).collect();
        let stack = AgreementStack::build(task, &inputs);
        let adv = drive_adversarially(stack, 120_000, ProcSet::EMPTY, None);
        prop_assert!(adv.run.is_safe());
        prop_assert!(adv.max_frozen <= k);
        prop_assert!(adv.run.outcome.decisions.iter().all(|d| d.is_none()));
    }

    /// The trivial stack terminates on every fair random schedule and any
    /// crash plan within budget (t < k guarantees a live publisher).
    #[test]
    fn trivial_stack_lives(seed in 0u64..10_000, crash_one in 0usize..4) {
        let task = AgreementTask::new(1, 2, 4).unwrap();
        let inputs: Vec<Value> = vec![3, 5, 7, 9];
        let stack = AgreementStack::build(task, &inputs);
        let crashed = ProcSet::from_indices([crash_one]);
        let plan = CrashPlan::all_at(crashed, 0);
        let mut src = CrashAfter::new(SeededRandom::new(task.universe(), seed), plan);
        let run = stack.run(&mut src, 200_000, crashed);
        prop_assert!(run.is_clean_termination(), "{:?}", run.violations);
    }
}
