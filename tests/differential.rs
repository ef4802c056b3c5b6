//! Figure 2, the Paxos proposer and the k-set agreement stack against the
//! loop transcriptions they were ported from, on the four schedule families
//! the experiments use: round-robin, seeded-random, the Figure 1
//! starvation schedule, and crash schedules (a prefix that stops
//! scheduling a process).
//!
//! A machine port is only admissible as "the same algorithm" if it is
//! observationally identical step for step: the same probe sequences at
//! the same step indices, the same decisions at the same steps, the same
//! completion flags and per-process operation counts, the same per-register
//! access statistics and final contents. The transcriptions' side of that
//! comparison is `tests/fixtures/transcription.json`; each test here holds
//! its machine to its cases on the streamed fleet drive and on replay (see
//! `common`).

mod common;

use std::collections::BTreeSet;

use common::{check, inputs, run, Drive};
use set_timeliness::core::Value;

#[test]
fn round_robin_schedules_are_identical() {
    check(common::kanti_round_robin());
}

#[test]
fn seeded_random_schedules_are_identical() {
    check(common::kanti_seeded_random());
}

/// The Figure 1 schedule starves each of p0, p1 for unboundedly long
/// stretches: the detector's timers expire heavily, exercising the
/// accusation-write phase.
#[test]
fn figure1_schedule_is_identical() {
    check(common::kanti_figure1());
}

/// The schedule-slice fast loop of `run_automata_replay` (no stop
/// condition) on schedules and a `(k, t)` the other tests do not use.
#[test]
fn unrecorded_fast_loops_match_recorded_runs() {
    check(common::kanti_fast_loop());
}

/// p2 stops being scheduled mid-run (the model's crash): the survivors'
/// observable behaviour must stay identical.
#[test]
fn crash_mid_iteration_keeps_survivors_identical() {
    check(common::kanti_crash());
}

/// Fine-grained alternation, where dueling proposers may preempt each other
/// forever, and bursty round-robin, where each process gets 2n + 2
/// consecutive steps and everyone decides.
#[test]
fn paxos_round_robin_identical() {
    check(common::paxos_round_robin());
}

#[test]
fn paxos_seeded_random_identical() {
    check(common::paxos_seeded_random());
}

#[test]
fn paxos_figure1_identical() {
    check(common::paxos_figure1());
}

/// p0 crashes mid-ballot, after its phase-2 write.
#[test]
fn paxos_crash_identical() {
    check(common::paxos_crash());
}

#[test]
fn kset_round_robin_identical() {
    check(common::kset_round_robin());
}

#[test]
fn kset_seeded_random_identical() {
    check(common::kset_seeded_random());
}

#[test]
fn kset_figure1_identical() {
    check(common::kset_figure1());
}

#[test]
fn kset_crash_identical() {
    check(common::kset_crash());
}

/// The machine stack actually decides (the comparison above is not
/// vacuous): on a round-robin schedule long enough for the FD to converge,
/// every process decides, with at most k distinct proposed values.
#[test]
fn kset_machine_decides_on_round_robin() {
    let k = 2;
    let case = common::kset_round_robin()
        .into_iter()
        .find(|c| c.label == "kset/rr/n4/k2/t2")
        .expect("the n = 4 round-robin case");
    let (sim, _) = run(&case, Drive::Fleet);
    let decisions = sim.report().decisions;
    assert!(
        decisions.iter().all(|d| d.is_some()),
        "all must decide: {decisions:?}"
    );
    let decided: BTreeSet<Value> = decisions.iter().flatten().map(|d| d.value).collect();
    assert!(!decided.is_empty() && decided.len() <= k);
    for v in &decided {
        assert!(inputs(case.n).contains(v), "unproposed value {v}");
    }
}
