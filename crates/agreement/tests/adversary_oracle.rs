//! `drive_adversarially` held to the loop it replaced: per step, peek every
//! instance's decision and records through the `Sim`, rebuild the frozen
//! set, rotate, `step_with`. The production adversary sits inside the step
//! kernel and rebuilds the frozen set only when the arena's write counter
//! has moved; everything observable must come out the same.

use st_agreement::{drive_adversarially, AdversarialRun, AgreementStack};
use st_core::timeliness::empirical_bound;
use st_core::{AgreementTask, ProcSet, ProcessId, TimelyPair, Value};
use st_fd::TimeoutPolicy;
use st_sim::RunStatus;

/// The parent commit's `drive_adversarially`, asserts and all.
fn reference_drive(
    mut stack: AgreementStack,
    budget: u64,
    precrashed: ProcSet,
    certify: Option<(ProcSet, ProcSet)>,
) -> AdversarialRun {
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
        let p = chosen.unwrap_or(runnable[rotation % runnable.len()]);
        stack.sim_mut().step_with(p);
    }

    let certificate = certify.map(|(p, q)| {
        let executed = stack.sim().report().executed.expect("recording is on");
        TimelyPair {
            p,
            q,
            bound: empirical_bound(&executed, p, q),
        }
    });
    AdversarialRun {
        run: stack.snapshot(RunStatus::MaxSteps, precrashed),
        freeze_events,
        max_frozen,
        certificate,
    }
}

/// Everything an adversarial run reports.
fn observable(adv: &AdversarialRun) -> impl PartialEq + std::fmt::Debug {
    let report = &adv.run.report;
    (
        (adv.freeze_events, adv.max_frozen, adv.certificate),
        (adv.run.status, report.steps, report.finished.clone()),
        report.executed.clone(),
        (report.decisions.clone(), adv.run.outcome.clone()),
        report.probes.events().to_vec(),
        report.op_counts.clone(),
        adv.run.violations.clone(),
    )
}

#[test]
fn the_kernel_adversary_reproduces_the_per_step_loop() {
    let mut froze = 0u64;
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
            let witness = ProcSet::from_indices([1]);
            let certify = (witness, witness.union(precrashed));
            for budget in [0, 1, 997, 60_000] {
                for recording in [false, true] {
                    let build = || {
                        let policy = TimeoutPolicy::Increment;
                        AgreementStack::build_full(task, &inputs, policy, recording)
                    };
                    let certify = recording.then_some(certify);
                    let new = drive_adversarially(build(), budget, precrashed, certify);
                    let old = reference_drive(build(), budget, precrashed, certify);
                    assert_eq!(
                        observable(&new),
                        observable(&old),
                        "{task}, crashed {precrashed}, budget {budget}, recording {recording}"
                    );
                    assert_eq!(new.run.report.steps, budget);
                    assert_eq!(new.run.report.executed.is_some(), recording);
                    froze += new.freeze_events;
                }
            }
        }
    }
    assert!(froze > 0, "the grid must reach the freezer");
}
