//! The paper's headline, end to end: `S^k_{t+1,n}` is synchronous enough
//! for `(t,k,n)`-agreement but not for `(t+1,k,n)`- or
//! `(t,k−1,n)`-agreement — the first partially synchronous system
//! separating these sub-consensus problems.

use set_timeliness::agreement::{drive_adversarially, AgreementStack};
use set_timeliness::core::{
    matching_system, solvability, AgreementTask, ProcSet, ProcessId, SystemSpec, Value,
};
use set_timeliness::sched::{SeededRandom, SetTimely};

fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|v| 40 + v).collect()
}

/// The canonical matching system solves its task (possibility side, run).
#[test]
fn matching_system_solves_its_task() {
    let (t, k, n) = (2usize, 2usize, 5usize);
    let task = AgreementTask::new(t, k, n).unwrap();
    let sys = matching_system(&task).unwrap();
    assert_eq!(sys, SystemSpec::new(k, t + 1, n).unwrap());

    let p: ProcSet = (0..k).map(ProcessId::new).collect();
    let q: ProcSet = (0..=t).map(ProcessId::new).collect();
    let stack = AgreementStack::build(task, &inputs(n));
    let mut src = SetTimely::new(p, q, 2 * (t + 1), SeededRandom::new(task.universe(), 3));
    let run = stack.run(&mut src, 6_000_000, ProcSet::EMPTY);
    assert!(run.is_clean_termination(), "{:?}", run.violations);
}

/// Predicate-level separation for every valid parameterization.
#[test]
fn predicate_separates_neighbours() {
    for n in 3..=10 {
        for t in 1..n - 1 {
            for k in 1..=t {
                let task = AgreementTask::new(t, k, n).unwrap();
                let sys = matching_system(&task).unwrap();
                assert!(solvability(&task, &sys).unwrap().is_solvable());

                let stronger_t = AgreementTask::new(t + 1, k, n).unwrap();
                assert!(!solvability(&stronger_t, &sys).unwrap().is_solvable());

                if k >= 2 {
                    let stronger_k = AgreementTask::new(t, k - 1, n).unwrap();
                    assert!(!solvability(&stronger_k, &sys).unwrap().is_solvable());
                }
            }
        }
    }
}

/// Run-level separation at (t,k,n) = (1,1,3): the matching system S^1_{2,3}
/// solves 1-resilient consensus; the adaptive adversary shows S^1_{2,3} is
/// not enough for (2,1,3) (stronger resilience) by blocking within the
/// fictitious-crash construction.
#[test]
fn run_level_separation_stronger_resilience() {
    let n = 3;
    // Possibility: (1,1,3) in S^1_{2,3}.
    let task = AgreementTask::new(1, 1, n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1]);
    let stack = AgreementStack::build(task, &inputs(n));
    let mut src = SetTimely::new(p, q, 4, SeededRandom::new(task.universe(), 5));
    let run = stack.run(&mut src, 4_000_000, ProcSet::EMPTY);
    assert!(run.is_clean_termination(), "{:?}", run.violations);

    // Impossibility: (2,1,3) in S^1_{2,3} — j − i = 1 < t + 1 − k = 2.
    let harder = AgreementTask::new(2, 1, n).unwrap();
    let stack = AgreementStack::build(harder, &inputs(n));
    let crashed = ProcSet::from_indices([2]); // j − i = 1 fictitious crash
    let p_i = ProcSet::from_indices([0]);
    let adv = drive_adversarially(stack, 800_000, crashed, Some((p_i, p_i.union(crashed))));
    assert!(adv.run.is_safe());
    assert!(
        adv.run.outcome.decisions.iter().all(|d| d.is_none()),
        "{:?}",
        adv.run.outcome.decisions
    );
    assert_eq!(
        adv.certificate.unwrap().bound,
        1,
        "S^1_{{2,3}} membership witness"
    );
}

/// Run-level separation at stronger agreement: S^2_{3,4} solves (2,2,4) but
/// the adaptive adversary blocks (2,1,4) there (i = 2 > k = 1).
#[test]
fn run_level_separation_stronger_agreement() {
    let n = 4;
    let task = AgreementTask::new(2, 2, n).unwrap();
    let p = ProcSet::from_indices([0, 1]);
    let q = ProcSet::from_indices([0, 1, 2]);
    let stack = AgreementStack::build(task, &inputs(n));
    let mut src = SetTimely::new(p, q, 6, SeededRandom::new(task.universe(), 8));
    let run = stack.run(&mut src, 6_000_000, ProcSet::EMPTY);
    assert!(run.is_clean_termination(), "{:?}", run.violations);

    // (2,1,4) in S^2_{3,4}: i = 2 > k = 1 → freezer adversary, no
    // pre-crashes; certificate: the 2-set {p0,p1} stays timely.
    let harder = AgreementTask::new(2, 1, n).unwrap();
    let stack = AgreementStack::build(harder, &inputs(n));
    let witness = ProcSet::from_indices([0, 1]);
    let full = ProcSet::full(harder.universe());
    let adv = drive_adversarially(stack, 800_000, ProcSet::EMPTY, Some((witness, full)));
    assert!(adv.run.is_safe());
    assert!(adv.run.outcome.decisions.iter().all(|d| d.is_none()));
    assert!(adv.max_frozen <= 1);
    assert!(adv.certificate.unwrap().bound <= 4 * n);
}
