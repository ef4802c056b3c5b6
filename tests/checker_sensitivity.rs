//! Negative-control tests of the measurement harness itself: deliberately
//! broken protocols must be *caught* by the checkers. A reproduction whose
//! instruments cannot fail is not measuring anything.

use set_timeliness::core::{
    check_outcome, AgreementTask, AgreementViolation, ProcSet, ProcessId, Schedule, ScheduleCursor,
    Universe, Value,
};
use set_timeliness::sim::{Automaton, RunConfig, Sim, Status, StepAccess, StopWhen};

/// A broken protocol whose every step is a pause followed by `then`.
struct Pausing<F>(F);

impl<F: FnMut(&mut StepAccess<'_>) -> Status> Automaton for Pausing<F> {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        mem.pause();
        (self.0)(mem)
    }
}

/// A "protocol" in which everybody just decides its own input: with more
/// than k distinct inputs this must violate k-agreement.
#[test]
fn checker_catches_k_agreement_violation() {
    let n = 4;
    let task = AgreementTask::new(2, 2, n).unwrap();
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let inputs: Vec<Value> = (0..n as Value).collect(); // 4 distinct values
    let mut fleet: Vec<_> = inputs
        .iter()
        .map(|&v| {
            Pausing(move |mem: &mut StepAccess<'_>| {
                mem.decide(v);
                Status::Done
            })
        })
        .collect();
    let steps: Vec<usize> = (0..2 * n).map(|i| i % n).collect();
    let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
    sim.run_automata(
        &mut fleet,
        &mut src,
        RunConfig::steps(100).stop_when(StopWhen::AllDecided(ProcSet::full(universe))),
    )
    .unwrap();
    let outcome = sim
        .report()
        .agreement_outcome(&inputs, ProcSet::full(universe));
    let violations = check_outcome(&task, &outcome);
    assert!(
        violations.iter().any(
            |v| matches!(v, AgreementViolation::KAgreement { values, .. } if values.len() == 4)
        ),
        "decide-own with 4 distinct inputs must violate 2-agreement: {violations:?}"
    );
}

/// A protocol that invents a value must be caught by validity.
#[test]
fn checker_catches_validity_violation() {
    let n = 3;
    let task = AgreementTask::new(1, 3, n).unwrap(); // k = n: agreement is lax
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let inputs: Vec<Value> = vec![1, 2, 3];
    let mut fleet: Vec<_> = universe
        .processes()
        .map(|_| {
            Pausing(|mem: &mut StepAccess<'_>| {
                mem.decide(777); // never proposed
                Status::Done
            })
        })
        .collect();
    let mut src = ScheduleCursor::new(Schedule::from_indices([0, 1, 2]));
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(10))
        .unwrap();
    let outcome = sim
        .report()
        .agreement_outcome(&inputs, ProcSet::full(universe));
    let violations = check_outcome(&task, &outcome);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, AgreementViolation::Validity { value: 777, .. })),
        "inventing 777 must violate validity: {violations:?}"
    );
}

/// A protocol that never decides must be caught by termination — but only
/// within the fault budget.
#[test]
fn checker_catches_termination_violation_within_budget_only() {
    let n = 3;
    let task = AgreementTask::new(1, 1, n).unwrap();
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let inputs: Vec<Value> = vec![5, 5, 5];
    let mut fleet: Vec<_> = universe
        .processes()
        .map(|_| Pausing(|_: &mut StepAccess<'_>| Status::Running))
        .collect();
    let steps: Vec<usize> = (0..300).map(|i| i % n).collect();
    let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(300))
        .unwrap();

    // Zero crashes (≤ t = 1): termination owed and violated.
    let outcome = sim
        .report()
        .agreement_outcome(&inputs, ProcSet::full(universe));
    let violations = check_outcome(&task, &outcome);
    assert!(violations
        .iter()
        .any(|v| matches!(v, AgreementViolation::Termination { .. })));

    // Two "crashes" (> t = 1): termination not owed.
    let outcome = sim
        .report()
        .agreement_outcome(&inputs, ProcSet::from_indices([0]));
    assert!(check_outcome(&task, &outcome).is_empty());
}

/// The FD convergence analyzer must NOT report stabilization for a detector
/// that flaps until the very end.
#[test]
fn convergence_analyzer_rejects_flapping() {
    use set_timeliness::fd::convergence::winnerset_stabilization;
    use set_timeliness::fd::WINNERSET_PROBE;

    let universe = Universe::new(2).unwrap();
    let mut sim = Sim::new(universe);
    let mut fleet: Vec<_> = universe
        .processes()
        .map(|_| {
            let mut flip = 0u64;
            Pausing(move |mem: &mut StepAccess<'_>| {
                // Publish alternating winnersets forever.
                mem.probe(WINNERSET_PROBE, 1 + (flip % 2));
                flip += 1;
                Status::Running
            })
        })
        .collect();
    let steps: Vec<usize> = (0..500).map(|i| i % 2).collect();
    let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(500))
        .unwrap();
    // Final values may coincide across processes, but each process's own
    // timeline never stabilizes before its last publication; the detected
    // "stabilization step" must be at the very end of the trace, never
    // earlier.
    if let Some(stab) = winnerset_stabilization(&sim.report(), ProcSet::full(universe)) {
        assert!(
            stab.step >= 498,
            "flapping mistaken for early stabilization"
        );
    }
    let _ = ProcessId::new(0);
}
