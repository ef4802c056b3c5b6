//! The always-on invariant checker, exercised end to end: a scenario whose
//! generator owes termination but whose budget forbids it must record a
//! typed violation plus a replayable counterexample schedule, the store
//! codec must round-trip every violation kind byte-identically, and the
//! unchecked fast path must stay violation-free by construction.

use st_campaign::store::{encode_outcome, read_outcome};
use st_campaign::{
    Campaign, FleetReplayDrive, InvariantChecker, InvariantViolation, Scenario, Workload,
};
use st_core::{ProcSet, Schedule, Universe, Value};
use st_fd::TimeoutPolicy;
use st_sched::GeneratorSpec;
use st_sim::RunStatus;

// One list for the two tests that must see every generator family: this
// file's fleet run and `st-sched`'s stream oracle.
#[path = "../../sched/tests/families/mod.rs"]
mod families;
use families::one_spec_per_family;

/// An agreement scenario whose root `SetTimely` generator guarantees
/// solvability (so termination is owed) but whose step budget is far too
/// small for the stack to decide: the checker must fire.
fn starved_scenario() -> Scenario {
    let n = 4;
    let universe = Universe::new(n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1, 2]);
    Scenario::new(
        "fixture/starved",
        universe,
        GeneratorSpec::set_timely(p, q, 6, GeneratorSpec::seeded_random(0)),
        Workload::Agreement {
            t: 2,
            k: 1,
            inputs: (0..n as Value).map(|v| 100 + v).collect(),
            policy: TimeoutPolicy::Increment,
            certify: None,
        },
        40, // far below any decision point
        7,
    )
}

#[test]
fn starved_guarantee_records_termination_violation_and_counterexample() {
    let out = starved_scenario().run();
    assert!(
        out.violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::Termination { .. })),
        "expected a Termination violation, got {:?}",
        out.violations
    );
    let counterexample = out
        .counterexample
        .as_ref()
        .expect("violations must pin the executed schedule");
    // The counterexample is the replayable executed schedule: within the
    // universe and exactly as long as the run.
    assert!(counterexample.is_within(Universe::new(4).unwrap()));
    assert!(!counterexample.is_empty() && counterexample.len() as u64 <= 40);
}

#[test]
fn unchecked_fast_path_never_reports() {
    let checked = starved_scenario().run();
    let unchecked = starved_scenario().run_unchecked();
    assert!(unchecked.violations.is_empty());
    assert!(unchecked.counterexample.is_none());
    // Outcome data itself is identical — the checker observes, never steers.
    assert_eq!(checked.data, unchecked.data);
}

#[test]
fn generous_budget_clears_the_same_scenario() {
    let mut scenario = starved_scenario();
    scenario.budget = 200_000;
    let out = scenario.run();
    assert!(
        out.violations.is_empty(),
        "conforming run should be clean: {:?}",
        out.violations
    );
    assert!(out.counterexample.is_none());
}

#[test]
fn campaign_outcomes_carry_violations() {
    // The same fixture through the parallel engine: violations survive the
    // rank-ordered merge.
    let mut campaign = Campaign::new();
    campaign.push(starved_scenario());
    let outcomes = campaign.run_parallel(4);
    assert_eq!(outcomes.len(), 1);
    assert!(!outcomes[0].violations.is_empty());
    assert!(outcomes[0].counterexample.is_some());
}

#[test]
fn every_violation_kind_round_trips_through_the_store_codec() {
    // Start from a real outcome, then splice in one violation of each kind
    // and a counterexample schedule; the codec must reproduce all of them.
    let mut out = starved_scenario().run();
    out.violations = vec![
        InvariantViolation::KAgreement {
            values: vec![1, 2, 3],
            k: 2,
        },
        InvariantViolation::Validity {
            process: 1,
            value: 99,
        },
        InvariantViolation::Termination {
            undecided: vec![0, 2],
        },
        InvariantViolation::BallotOwnership {
            instance: 1,
            process: 2,
            mbal: 7,
            bal: 11,
        },
        InvariantViolation::AccusedTimelyWinnerset {
            winnerset: ProcSet::from_indices([1, 3]),
        },
        InvariantViolation::GuaranteeBroken {
            p: ProcSet::from_indices([0]),
            q: ProcSet::from_indices([0, 1]),
            bound: 4,
            observed: 9,
        },
        InvariantViolation::CrashWindowResurrection {
            process: 3,
            position: 1_234,
        },
    ];
    out.counterexample = Some(Schedule::from_indices([0, 1, 2, 3, 0, 1]));
    let text = encode_outcome(&out).to_string();
    let decoded = read_outcome(&mut st_core::json::Cursor::new(&text))
        .unwrap()
        .expect("decode");
    assert_eq!(out, decoded);
    // And byte-identically: re-encoding the decoded outcome is a fixpoint.
    assert_eq!(
        encode_outcome(&out).to_string(),
        encode_outcome(&decoded).to_string()
    );
}

/// A lean n = 128 scenario whose generator carries a `SetTimely` root
/// guarantee: the first fleet shape with an armed claim, and a universe
/// whose steps a `ProcSet` cannot all name.
fn lean_n128(generator: GeneratorSpec, budget: u64) -> Scenario {
    Scenario::new(
        "lean-n128/set-timely",
        Universe::new(128).unwrap(),
        generator,
        Workload::LeanConvergence {
            t: 8,
            policy: TimeoutPolicy::Increment,
            drive: FleetReplayDrive::Plain,
        },
        budget,
        3,
    )
}

fn timely_over_round_robin(bound: usize) -> GeneratorSpec {
    GeneratorSpec::set_timely(
        ProcSet::from_indices([0]),
        ProcSet::from_indices([0, 1, 2]),
        bound,
        GeneratorSpec::round_robin(),
    )
}

#[test]
fn a_set_timely_root_runs_and_is_certified_past_the_procset_capacity() {
    // The filler schedules p64..p127, which neither P nor Q can name: they
    // are in neither set — for the generator's injection rule and for the
    // watch certifying it alike (an unguarded `ProcSet::contains` panics).
    let scenario = lean_n128(timely_over_round_robin(4), 200_000);
    assert!(InvariantChecker::for_scenario(&scenario)
        .guarantee()
        .is_some());
    let out = scenario.run();
    let lean = out.data.as_lean().expect("a lean workload");
    assert_eq!((lean.status, lean.steps), (RunStatus::MaxSteps, 200_000));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(out.counterexample.is_none());
}

#[test]
fn a_replay_naming_a_large_index_is_checked_not_a_panic() {
    // What the shrinker builds and a submitted job can carry: a replay that
    // inherits the guarantee and steps a process past the capacity.
    let replayed = Schedule::from_indices([0, 1, 100, 2, 0]);
    let spec = GeneratorSpec::replay(timely_over_round_robin(4), replayed);
    let out = lean_n128(spec, 5).run();
    assert!(out.violations.is_empty(), "{:?}", out.violations);

    // p100 does not reset the run: three Q-steps in a row break bound 3.
    let tight = timely_over_round_robin(3);
    let broken = Schedule::from_indices([0, 1, 100, 2, 1, 0]);
    let out = lean_n128(GeneratorSpec::replay(tight, broken.clone()), 64).run();
    assert_eq!(
        out.violations,
        vec![InvariantViolation::GuaranteeBroken {
            p: ProcSet::from_indices([0]),
            q: ProcSet::from_indices([0, 1, 2]),
            bound: 3,
            observed: 4,
        }]
    );
    assert_eq!(out.counterexample, Some(broken));
    assert_eq!(
        out.data.as_lean().unwrap().status,
        RunStatus::SourceEnded,
        "the replay is shorter than the budget"
    );
}

/// Every generator family drives a fleet whose universe a `ProcSet` cannot
/// hold: the run completes and every claim the spec carries is certified.
/// A process past the capacity is in no set — for the generators' own
/// membership tests as for the checker's.
#[test]
fn every_generator_family_runs_on_a_fleet_past_the_procset_capacity() {
    // The families, from the wire table every variant must be listed in: a
    // new variant fails here until it has a representative in `families`.
    let reference = st_campaign::store::encoding_reference();
    let families: Vec<&str> = reference
        .split("- **")
        .find_map(|section| section.strip_prefix("generator**"))
        .expect("the reference has a generator section")
        .lines()
        .filter_map(|line| line.split("\"kind\": \"").nth(1)?.split('"').next())
        .collect();
    let specs = one_spec_per_family();
    let covered: Vec<&str> = specs.iter().map(GeneratorSpec::family).collect();
    assert_eq!(covered, families);

    for spec in specs {
        for drive in [
            FleetReplayDrive::Plain,
            FleetReplayDrive::Soa { slice_len: 64 },
        ] {
            let what = format!("{} on {drive:?}", spec.family());
            let out = Scenario::new(
                what.clone(),
                Universe::new(130).unwrap(),
                spec.clone(),
                Workload::LeanConvergence {
                    t: 8,
                    policy: TimeoutPolicy::Increment,
                    drive,
                },
                5_000,
                3,
            )
            .run();
            let lean = out.data.as_lean().expect("a lean workload");
            let ended = match spec {
                GeneratorSpec::Replay { .. } => (RunStatus::SourceEnded, 5),
                _ => (RunStatus::MaxSteps, 5_000),
            };
            assert_eq!((lean.status, lean.steps), ended, "{what}");
            assert!(out.violations.is_empty(), "{what}: {:?}", out.violations);
        }
    }
}
