//! `drive_adversarially` held to the loop it replaced: per step, peek every
//! instance's decision and records through the `Sim`, rebuild the frozen
//! set, rotate, and take the chosen step through a one-step drive. The production adversary sits inside the step
//! kernel, rebuilds the frozen set only when the arena's write counter has
//! moved, and certifies its witness online; everything observable must come
//! out the same. The reference records the schedule it chooses on its own
//! side and certifies offline, with `empirical_bound` over that recording,
//! so the production certificate is held to the offline definition on
//! every witness shape the grid names.

use st_agreement::{drive_adversarially, AdversarialRun, AgreementStack};
use st_core::timeliness::empirical_bound;
use st_core::{AgreementTask, ProcSet, ProcessId, Schedule, ScheduleCursor, TimelyPair, Value};
use st_sim::{RunConfig, RunStatus};

/// The loop `drive_adversarially` replaced, asserts and all, without a
/// certificate; it returns the schedule it chose, for the certificate to be
/// measured offline, and how many of its steps the all-frozen fallback
/// took.
fn reference_drive(
    mut stack: AgreementStack,
    budget: u64,
    precrashed: ProcSet,
) -> (AdversarialRun, Schedule, u64) {
    let universe = stack.task().universe();
    let runnable: Vec<ProcessId> = universe
        .processes()
        .filter(|p| !precrashed.contains(*p))
        .collect();
    assert!(!runnable.is_empty(), "someone must run");
    let kset = stack.kset().expect("FD stack has a kset").clone();

    let mut rotation = 0usize;
    let mut freeze_events = 0u64;
    let mut max_frozen = 0usize;
    let mut fallbacks = 0u64;
    let mut executed = Schedule::new();

    for _ in 0..budget {
        let mut frozen = ProcSet::EMPTY;
        for instance in kset.instances() {
            if instance.peek_decision(stack.sim()).is_some() {
                continue;
            }
            let records = instance.peek_records(stack.sim());
            let max_mbal = records.iter().map(|r| r.mbal).max().unwrap_or(0);
            if max_mbal == 0 {
                continue;
            }
            for (idx, rec) in records.iter().enumerate() {
                if rec.mbal == max_mbal && rec.bal == rec.mbal && rec.val.is_some() {
                    frozen.insert(ProcessId::new(idx));
                }
            }
        }
        max_frozen = max_frozen.max(frozen.len());

        let mut chosen = None;
        for _ in 0..runnable.len() {
            let candidate = runnable[rotation % runnable.len()];
            rotation += 1;
            if frozen.contains(candidate) {
                freeze_events += 1;
                continue;
            }
            chosen = Some(candidate);
            break;
        }
        fallbacks += chosen.is_none() as u64;
        let p = chosen.unwrap_or(runnable[rotation % runnable.len()]);
        let mut one = ScheduleCursor::new(Schedule::from_steps(vec![p]));
        stack
            .drive(&mut one, RunConfig::steps(1))
            .expect("the adversary schedules processes of the task");
        executed.push(p);
    }

    let run = AdversarialRun {
        run: stack.snapshot(RunStatus::MaxSteps, precrashed),
        freeze_events,
        max_frozen,
        certificate: None,
    };
    (run, executed, fallbacks)
}

/// Everything an adversarial run reports but its certificate.
fn observable(adv: &AdversarialRun) -> impl PartialEq + std::fmt::Debug {
    let report = &adv.run.report;
    (
        (adv.freeze_events, adv.max_frozen),
        (adv.run.status, report.steps, report.finished.clone()),
        (report.decisions.clone(), adv.run.outcome.clone()),
        report.probes.events().to_vec(),
        report.op_counts.clone(),
        adv.run.violations.clone(),
    )
}

/// The witness shapes the certificate is held on at `n` with `precrashed`
/// never stepping: none, `P ⊂ Q`, `P ∩ Q = ∅`, `Q = Π`, `P` a precrashed
/// process, and `P` the whole precrashed set (members that never step;
/// the empty set when nothing is crashed).
fn witnesses(n: usize, precrashed: ProcSet) -> Vec<Option<(ProcSet, ProcSet)>> {
    let set = |ix: &[usize]| ProcSet::from_indices(ix.iter().copied());
    let full = ProcSet::from_indices(0..n);
    let mut shapes = vec![
        None,
        Some((set(&[1]), set(&[0, 1, 2]))),
        Some((set(&[1]), set(&[0, 2]))),
        Some((set(&[0, 1]), full)),
        Some((precrashed, full)),
    ];
    if let Some(victim) = precrashed.iter().next() {
        shapes.push(Some((ProcSet::singleton(victim), full)));
    }
    shapes
}

#[test]
fn the_kernel_adversary_reproduces_the_per_step_loop() {
    let (mut froze, mut fell_back) = (0u64, 0u64);
    let mut certified = Vec::new();
    for (t, k, n) in [(1, 1, 3), (2, 2, 4), (2, 1, 4), (3, 2, 5), (4, 4, 5)] {
        let task = AgreementTask::new(t, k, n).unwrap();
        let inputs: Vec<Value> = (0..n as Value).map(|v| 11 * (v + 1)).collect();
        // No crash, one crash (the rotation's head), and the largest
        // fictitious-crash set Theorem 27's case 2b allows, j − i = t − k
        // (the highest processes).
        let crash_sets = [
            ProcSet::EMPTY,
            ProcSet::from_indices([0]),
            ProcSet::from_indices(n - (t - k)..n),
        ];
        for precrashed in crash_sets {
            for budget in [0, 1, 997, 60_000] {
                let build = || AgreementStack::build(task, &inputs);
                let (old, executed, fallbacks) = reference_drive(build(), budget, precrashed);
                assert_eq!(executed.len() as u64, budget);
                for certify in witnesses(n, precrashed) {
                    let what = format!("{task}, crashed {precrashed}, budget {budget}");
                    let new = drive_adversarially(build(), budget, precrashed, certify);
                    assert_eq!(observable(&new), observable(&old), "{what}");
                    let offline = certify.map(|(p, q)| TimelyPair {
                        p,
                        q,
                        bound: empirical_bound(&executed, p, q),
                    });
                    assert_eq!(new.certificate, offline, "{what}");
                    froze += new.freeze_events;
                    certified.extend(new.certificate.map(|c| c.bound));
                }
                fell_back += fallbacks;
            }
        }
    }
    assert!(froze > 0, "the grid must reach the freezer");
    assert!(fell_back > 0, "the grid must reach the all-frozen fallback");
    // Certificates at 1 (`Q ⊆ P` or an idle `Q`) and past it, and one that
    // grew with the budget (a `P` that never steps).
    assert!(certified.contains(&1) && certified.iter().any(|&b| b > 1));
    assert!(certified.contains(&60_001));
}
