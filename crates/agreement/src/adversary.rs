//! The adaptive adversary: the operational content of the impossibility
//! side of Theorems 26 and 27.
//!
//! An *oblivious* schedule cannot reliably defeat the protocol stack — a
//! transient Paxos leader can always sneak an uncontended ballot through.
//! The impossibility proofs are about an **adaptive** adversary that watches
//! the protocol state and schedules against it. For the FD + k-parallel-
//! Paxos stack, the decisive observation mirrors the BG argument: *with
//! only `k` simultaneous "blocking points" one can block all `k` Paxos
//! instances forever, while every set of `k + 1` processes keeps running —
//! so the schedule stays inside the system the theorem names, yet no
//! decision is ever reached.*
//!
//! Concretely, the adversary is the chooser of [`Sim::run_adaptive`]: it
//! sits inside the simulator's step kernel, is shown the register arena
//! before every step, and names the process that takes it. It **freezes**
//! any process that is in the *danger window* of an instance `r`: it has
//! written its phase-2 record with the currently maximal ballot of `r`, the
//! instance is undecided — its next few steps would publish a decision.
//! Frozen processes are simply not scheduled; the rest round-robin. The
//! frozen set is a function of the arena's contents, so it is recomputed
//! only when [`Memory::version`] has moved — after a write, which in this
//! stack is one step in hundreds — straight from the records, with no
//! allocation per step. There is at most one danger process per instance,
//! so at most `k` are frozen at any time:
//!
//! - **`i > k` branch (Theorem 26):** every size-`(k+1)` set always has a
//!   running member, so it stays timely with respect to `Π_n` — the
//!   executed schedule is in `S^{k+1}_{n,n}` (certified online: the
//!   adversary measures a witness pair's bound on its own choices).
//!   Freezing is always temporary (the FD running at the live processes
//!   eventually re-elects, a new leader out-ballots the frozen maximum, and
//!   the victim is released — preempted, not decided), so every process is
//!   correct; `0 ≤ t` faults, termination owed, never delivered.
//! - **`j − i < t + 1 − k` branch (Theorem 27, case 2b):** additionally
//!   crash `j − i` processes from the start. Membership in `S^i_{j,n}` is
//!   then free: any `i` live processes are timely with bound 1 with respect
//!   to themselves plus the crashed set. The fault count `j − i ≤ t − k`
//!   stays within budget, so termination is still owed — and still denied.
//!
//! [`Sim::run_adaptive`]: st_sim::Sim::run_adaptive

use st_core::timeliness::PairBound;
use st_core::{ProcSet, ProcessId};
use st_sim::{Memory, RunStatus};

use crate::harness::{AgreementStack, StackKind, StackRun};
use crate::kset::KSetAgreement;

pub use st_core::TimelyPair;

/// Outcome of an adversarial drive, with the membership certificate.
#[derive(Debug)]
pub struct AdversarialRun {
    /// The packaged stack run (safety must hold; termination must not).
    pub run: StackRun,
    /// Number of freeze events (a process denied a step while in danger).
    pub freeze_events: u64,
    /// Largest number of simultaneously frozen processes observed (≤ k).
    pub max_frozen: usize,
    /// Certified timeliness witness of the executed schedule, when
    /// requested: the pair and its measured empirical bound.
    pub certificate: Option<TimelyPair>,
}

/// The processes to freeze given the arena's contents: per undecided
/// instance, the holder of the maximal ballot if it has accepted at it.
fn danger_set(kset: &KSetAgreement, memory: &Memory) -> ProcSet {
    let mut frozen = ProcSet::EMPTY;
    for instance in kset.instances() {
        if instance.decision_in(memory).is_some() {
            continue;
        }
        let max_mbal = instance.records_in(memory).map(|r| r.mbal).max();
        let max_mbal = max_mbal.unwrap_or(0);
        if max_mbal == 0 {
            continue;
        }
        for (idx, rec) in instance.records_in(memory).enumerate() {
            if rec.mbal == max_mbal && rec.bal == rec.mbal && rec.val.is_some() {
                frozen.insert(ProcessId::new(idx));
            }
        }
    }
    frozen
}

/// Drives `stack` adversarially for `budget` steps.
///
/// `precrashed` processes never take a step (the fictitious-crash set of the
/// Theorem 27 case-2b construction; pass `ProcSet::EMPTY` for the
/// Theorem 26 branch). `certify` optionally names a pair whose empirical
/// bound on the executed schedule is returned. The adversary chooses every
/// step, so it measures the bound online, a [`PairBound`] fed each choice;
/// the schedule is never held.
///
/// # Panics
///
/// Panics if the stack is not the FD + k-parallel-Paxos stack (the trivial
/// algorithm is asynchronously live; no schedule defeats it) or if every
/// process is precrashed. A decoded `AdversarialAgreement` spec is checked
/// for both before it gets here (`st_campaign::Workload::validate`).
pub fn drive_adversarially(
    mut stack: AgreementStack,
    budget: u64,
    precrashed: ProcSet,
    certify: Option<(ProcSet, ProcSet)>,
) -> AdversarialRun {
    assert_eq!(
        stack.kind(),
        StackKind::FdParallelPaxos,
        "the trivial t<k stack cannot be blocked by any schedule"
    );
    let universe = stack.task().universe();
    let runnable: Vec<ProcessId> = universe
        .processes()
        .filter(|p| !precrashed.contains(*p))
        .collect();
    assert!(!runnable.is_empty(), "someone must run");
    let kset = stack.kset().expect("FD stack has a kset").clone();

    // Position in `runnable` of the next candidate.
    let mut rotation = 0usize;
    let mut freeze_events = 0u64;
    let mut max_frozen = 0usize;
    // The frozen set, and the arena version it was computed at.
    let mut frozen = ProcSet::EMPTY;
    let mut frozen_at = None;
    let mut witness = certify.map(|(p, q)| PairBound::new(p, q));

    stack
        .drive_adaptive(budget, |memory| {
            if frozen_at != Some(memory.version()) {
                frozen = danger_set(&kset, memory);
                frozen_at = Some(memory.version());
                max_frozen = max_frozen.max(frozen.len());
            }
            // Schedule the next runnable, unfrozen process in rotation.
            let chosen = 'rotate: {
                for _ in 0..runnable.len() {
                    let candidate = runnable[rotation];
                    rotation += 1;
                    if rotation == runnable.len() {
                        rotation = 0;
                    }
                    if !frozen.contains(candidate) {
                        break 'rotate candidate;
                    }
                    freeze_events += 1;
                }
                // All runnables frozen cannot happen (≤ k frozen, > k
                // runnable); defend anyway by releasing the rotation head.
                runnable[rotation]
            };
            if let Some(witness) = &mut witness {
                witness.observe_step(chosen);
            }
            chosen
        })
        .expect("the adversary schedules runnable processes of the task universe");

    let run = stack.snapshot(RunStatus::MaxSteps, precrashed);
    AdversarialRun {
        run,
        freeze_events,
        max_frozen,
        certificate: witness.map(|w| w.pair()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{AgreementTask, Value};

    fn inputs(n: usize) -> Vec<Value> {
        (0..n as Value).map(|v| 11 * (v + 1)).collect()
    }

    /// Theorem 26 branch: (1,1,3) has no decision under the adaptive
    /// adversary, while every 2-set stays timely (certified).
    #[test]
    fn blocks_consensus_while_two_sets_stay_timely() {
        let task = AgreementTask::new(1, 1, 3).unwrap();
        let stack = AgreementStack::build(task, &inputs(3));
        let pair = ProcSet::from_indices([0, 1]);
        let full = ProcSet::full(task.universe());
        let adv = drive_adversarially(stack, 600_000, ProcSet::EMPTY, Some((pair, full)));

        assert!(adv.run.is_safe(), "{:?}", adv.run.violations);
        assert!(
            adv.run.outcome.decisions.iter().all(|d| d.is_none()),
            "adaptive adversary must block: {:?}",
            adv.run.outcome.decisions
        );
        assert!(adv.freeze_events > 0, "the freezer must have fired");
        assert!(adv.max_frozen <= task.k());
        // Certified: {p0,p1} timely wrt Π_3 with a small bound.
        let cert = adv.certificate.unwrap();
        assert!(
            cert.bound <= 4 * 3,
            "2-set must stay timely, bound {}",
            cert.bound
        );
    }

    /// Theorem 26 branch at k = 2: (2,2,4) blocked, ≤ 2 frozen at a time.
    #[test]
    fn blocks_two_set_agreement() {
        let task = AgreementTask::new(2, 2, 4).unwrap();
        let stack = AgreementStack::build(task, &inputs(4));
        let trio = ProcSet::from_indices([0, 1, 2]);
        let full = ProcSet::full(task.universe());
        let adv = drive_adversarially(stack, 900_000, ProcSet::EMPTY, Some((trio, full)));
        assert!(adv.run.is_safe());
        assert!(adv.run.outcome.decisions.iter().all(|d| d.is_none()));
        assert!(adv.max_frozen <= 2);
        let cert = adv.certificate.unwrap();
        assert!(cert.bound <= 4 * 4, "3-set bound {}", cert.bound);
    }

    /// Theorem 27 case-2b branch: S^1_{2,4} vs (2,1,4) — one fictitious
    /// crash, membership witness at bound 1, no decision.
    #[test]
    fn blocks_with_fictitious_crash() {
        let task = AgreementTask::new(2, 1, 4).unwrap();
        let stack = AgreementStack::build(task, &inputs(4));
        // C = {p3} crashed from the start (j − i = 1 ≤ t − k = 1).
        let crashed = ProcSet::from_indices([3]);
        let p_i = ProcSet::from_indices([0]);
        let witness_q = p_i.union(crashed); // size j = 2
        let adv = drive_adversarially(stack, 600_000, crashed, Some((p_i, witness_q)));
        assert!(adv.run.is_safe());
        assert!(
            adv.run.outcome.decisions.iter().all(|d| d.is_none()),
            "{:?}",
            adv.run.outcome.decisions
        );
        // The S^1_{2,4} witness is exact: bound 1.
        assert_eq!(adv.certificate.unwrap().bound, 1);
    }

    #[test]
    #[should_panic(expected = "cannot be blocked")]
    fn refuses_trivial_stack() {
        let task = AgreementTask::new(1, 2, 4).unwrap();
        let stack = AgreementStack::build(task, &inputs(4));
        let _ = drive_adversarially(stack, 10, ProcSet::EMPTY, None);
    }
}
