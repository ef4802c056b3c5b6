//! Cross-crate integration: the composed system exercised through the
//! public umbrella API, at parameters beyond the unit tests.

use set_timeliness::agreement::{AgreementStack, StackKind};
use set_timeliness::core::stepsource::FromFn;
use set_timeliness::core::timeliness::empirical_bound;
use set_timeliness::core::{check_outcome, AgreementTask, ProcSet, ProcessId, StepSource, Value};
use set_timeliness::fd::convergence::winnerset_stabilization;
use set_timeliness::fd::{KAntiOmega, KAntiOmegaConfig};
use set_timeliness::sched::{CrashAfter, CrashPlan, Eventually, SeededRandom, SetTimely};
use set_timeliness::sim::{Automaton, RunConfig, Sim, Status, StepAccess, StopWhen};

fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|v| 100 + v * v).collect()
}

/// A 6-process, k = 3, t = 4 run: bigger Π^k_n (C(6,3) = 20 candidate
/// sets), crashes up to t − 1, eventual (not immediate) synchrony.
#[test]
fn large_parameters_with_eventual_synchrony() {
    let (n, k, t) = (6usize, 3usize, 4usize);
    let task = AgreementTask::new(t, k, n).unwrap();
    let universe = task.universe();

    let p: ProcSet = (0..k).map(ProcessId::new).collect();
    let q: ProcSet = (0..=t).map(ProcessId::new).collect();
    let crashed: ProcSet = ProcSet::from_indices([5]);
    let plan = CrashPlan::all_at(crashed, 10_000);

    // Chaotic prefix (random, no enforced pair), then conforming body.
    let chaos = SeededRandom::new(universe, 77);
    let body_filler = CrashAfter::new(SeededRandom::new(universe, 78), plan.clone());
    let body = SetTimely::new(p, q, 2 * (t + 1), body_filler).with_crashes(plan);
    let mut src = Eventually::new(chaos, 20_000, body);

    let stack = AgreementStack::build(task, &inputs(n));
    assert_eq!(stack.kind(), StackKind::FdParallelPaxos);
    let run = stack.run(&mut src, 30_000_000, crashed);
    assert!(run.is_clean_termination(), "{:?}", run.violations);

    let distinct: std::collections::BTreeSet<Value> =
        run.outcome.decisions.iter().flatten().copied().collect();
    assert!(distinct.len() <= k);
}

/// The FD and agreement layers compose: the stabilized winnerset is the set
/// whose members actually decided the winning instances.
#[test]
fn fd_winnerset_drives_decisions() {
    let (n, k, t) = (4usize, 1usize, 2usize);
    let task = AgreementTask::new(t, k, n).unwrap();
    let universe = task.universe();
    let p = ProcSet::from_indices([1]); // make p1 the timely process
    let q: ProcSet = (0..=t).map(ProcessId::new).collect();
    let stack = AgreementStack::build(task, &inputs(n));
    let mut src = SetTimely::new(p, q, 4, SeededRandom::new(universe, 13));
    let run = stack.run(&mut src, 6_000_000, ProcSet::EMPTY);
    assert!(run.is_clean_termination(), "{:?}", run.violations);
    // k = 1: consensus. All processes decided one value.
    let distinct: std::collections::BTreeSet<Value> =
        run.outcome.decisions.iter().flatten().copied().collect();
    assert_eq!(distinct.len(), 1);
}

/// Running the FD standalone at scale and feeding its trace through the
/// core checker utilities.
#[test]
fn standalone_fd_at_n8() {
    let (n, k, t) = (8usize, 2usize, 3usize);
    let universe = set_timeliness::core::Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
    assert_eq!(fd.set_count(), 28); // C(8,2)
    let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
    let p: ProcSet = (0..k).map(ProcessId::new).collect();
    let q: ProcSet = (0..=t).map(ProcessId::new).collect();
    let mut src = SetTimely::new(p, q, 8, SeededRandom::new(universe, 21));
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(3_000_000))
        .unwrap();
    let stab = winnerset_stabilization(&sim.report(), ProcSet::full(universe))
        .expect("n=8 FD must converge");
    assert_eq!(stab.winnerset.len(), k);
}

/// The executed schedule of a real run feeds the analyzer: the simulator
/// executes exactly the steps it pulls, so a fresh build of the generator,
/// cut at the steps executed, is the executed schedule — and it keeps the
/// generator's promise.
#[test]
fn executed_schedule_matches_generator_promise() {
    /// Pauses forever.
    struct Idler;
    impl Automaton for Idler {
        fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
            mem.pause();
            Status::Running
        }
    }
    let universe = set_timeliness::core::Universe::new(4).unwrap();
    let mut sim = Sim::new(universe);
    let mut fleet: Vec<_> = universe.processes().map(|_| Idler).collect();
    let p = ProcSet::from_indices([2]);
    let q = ProcSet::from_indices([0, 1, 3]);
    let generator = || SetTimely::new(p, q, 5, SeededRandom::new(universe, 31));
    let (mut gen, mut pulled) = (generator(), Vec::new());
    let mut src = FromFn(|| {
        let step = gen.next_step()?;
        pulled.push(step);
        Some(step)
    });
    sim.run_automata(
        &mut fleet,
        &mut src,
        RunConfig::steps(50_000).stop_when(StopWhen::Never),
    )
    .unwrap();
    let steps = sim.steps_executed() as usize;
    assert_eq!(steps, 50_000);
    let executed = generator().take_schedule(steps);
    assert_eq!(executed.as_slice(), pulled.as_slice());
    assert!(empirical_bound(&executed, p, q) <= 5);
}

/// Outcome checking composes with the task descriptors across the API
/// boundary.
#[test]
fn checker_round_trip() {
    let task = AgreementTask::new(1, 2, 4).unwrap();
    let stack = AgreementStack::build(task, &inputs(4));
    let mut src = SeededRandom::new(task.universe(), 17);
    let run = stack.run(&mut src, 200_000, ProcSet::EMPTY);
    // Trivial algorithm: terminates fast on any fair schedule.
    assert!(run.is_clean_termination());
    let violations = check_outcome(&task, &run.outcome);
    assert!(violations.is_empty());
}

/// Generators compose: Eventually(chaos, SetTimely(crash-decorated)) is
/// itself a StepSource usable everywhere.
#[test]
fn source_combinators_compose() {
    let universe = set_timeliness::core::Universe::new(3).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([1, 2]);
    let plan = CrashPlan::new().crash(ProcessId::new(2), 700);
    let inner = CrashAfter::new(SeededRandom::new(universe, 3), plan.clone());
    let body = SetTimely::new(p, q, 3, inner).with_crashes(plan);
    let mut src = Eventually::new(SeededRandom::new(universe, 4), 500, body);
    let sched = src.take_schedule(5_000);
    assert_eq!(sched.len(), 5_000);
    // After the prefix and the crash point, p2 is silent. (The crash step
    // counts the *inner* source's emissions; SetTimely's injections shift
    // global positions later, so allow generous slack.)
    assert_eq!(sched.suffix(2_500).occurrences(ProcessId::new(2)), 0);
    // The suffix honors the timeliness bound.
    assert!(empirical_bound(&sched.suffix(500), p, q) <= 3);
}
