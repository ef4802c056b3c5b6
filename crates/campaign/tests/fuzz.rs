//! End-to-end fuzzer + shrinker acceptance tests.
//!
//! The shape mirrors the `stlab` scenario catalog (n = 5, Π = ({0,1},
//! {0,1,2}), bound 6): the fuzzer starts from *clean* conforming seeds and
//! must rediscover the starved-fixture class of violation — a set-timely
//! guarantee whose schedule starves a correct process — purely by
//! mutation, then the shrinker must grind the counterexample down to a
//! pinned size while preserving the violation kind.

use proptest::prelude::*;
use st_campaign::{
    Counterexample, FdAbi, FdDetector, FuzzConfig, FuzzInput, FuzzSession, Scenario, Shrinker,
    Workload,
};
use st_core::{ProcSet, Schedule, Universe};
use st_fd::TimeoutPolicy;
use st_sched::{GeneratorSpec, SpecMutator, SpecRng};

const N: usize = 5;
const BOUND: usize = 6;

/// Pinned by the seed-scan below: with this master seed the session finds
/// a violation within the 64-scenario budget.
const MASTER_SEED: u64 = 3;

fn universe() -> Universe {
    Universe::new(N).unwrap()
}

fn p() -> ProcSet {
    ProcSet::from_indices([0, 1])
}

fn q() -> ProcSet {
    ProcSet::from_indices([0, 1, 2])
}

fn conforming() -> GeneratorSpec {
    GeneratorSpec::set_timely(p(), q(), BOUND, GeneratorSpec::seeded_random(0))
}

fn agreement_workload() -> Workload {
    Workload::Agreement {
        t: 2,
        k: 2,
        inputs: (0..N as st_core::Value).map(|v| 1000 + 7 * v).collect(),
        policy: TimeoutPolicy::Increment,
        certify: None,
    }
}

fn fd_workload() -> Workload {
    Workload::FdConvergence {
        k: 2,
        t: 2,
        policy: TimeoutPolicy::Increment,
        abi: FdAbi::MachineSlot,
        detector: FdDetector::SetBased,
        certify_membership: false,
    }
}

fn catalog_config(master_seed: u64) -> FuzzConfig {
    FuzzConfig {
        key: "fuzz-e2e".into(),
        universe: universe(),
        workloads: vec![agreement_workload(), fd_workload()],
        seeds: vec![
            FuzzInput {
                spec: conforming(),
                workload: 0,
                seed: 0xE1AC_5EED,
            },
            FuzzInput {
                spec: conforming(),
                workload: 1,
                seed: 0xE1AC_5EED,
            },
        ],
        master_seed,
        budget: 64,
        batch: 8,
        step_budget: 8_000,
        threads: 2,
        stop_on_finding: true,
    }
}

/// The starved fixture from the `stlab` catalog: termination owed, a
/// 40-step budget forbids it.
fn starved_fixture() -> Scenario {
    Scenario::new(
        "starved-fixture/agreement",
        universe(),
        conforming(),
        agreement_workload(),
        40,
        0xE1AC_5EED,
    )
}

/// Seed-scan helper (run with `--ignored --nocapture` to re-pin
/// [`MASTER_SEED`] after changing the mutator or the feature map).
#[test]
#[ignore = "seed-scan helper, not a regression test"]
fn scan_master_seeds() {
    for seed in 0..32u64 {
        let report = FuzzSession::new(catalog_config(seed)).run(None, None);
        let kinds: Vec<_> = report
            .findings
            .iter()
            .flat_map(|f| f.outcome.violations.iter().map(|v| v.kind()))
            .collect();
        println!(
            "master_seed {seed}: executed {}, rounds {}, findings {:?}",
            report.executed, report.rounds, kinds
        );
    }
}

/// Acceptance: from clean seeds, the fuzzer finds a violation of the
/// starved-fixture class (termination owed, schedule starves a correct
/// process) within a bounded budget — without it being in the corpus.
#[test]
fn fuzzer_finds_starvation_from_clean_seeds() {
    let cfg = catalog_config(MASTER_SEED);
    // The seeds really are clean: run them standalone first.
    let session = FuzzSession::new(cfg.clone());
    let report = session.run(None, None);
    let seed_ranks: Vec<usize> = (0..cfg.seeds.len()).collect();
    for f in &report.findings {
        assert!(
            !seed_ranks.contains(&f.rank),
            "a seed input itself violated — the finding was not found, it was given"
        );
    }
    assert!(
        report.findings.iter().any(|f| f
            .outcome
            .violations
            .iter()
            .any(|v| v.kind() == "Termination")),
        "expected a Termination finding within budget {}; got {:?}",
        cfg.budget,
        report
            .findings
            .iter()
            .flat_map(|f| f.outcome.violations.iter().map(|v| v.kind()))
            .collect::<Vec<_>>()
    );
}

/// Acceptance: the shrinker reduces the starved fixture's 40-step
/// counterexample by at least 5× (pinned: ≤ 8 steps) while preserving the
/// Termination kind.
#[test]
fn shrinker_minimizes_the_starved_fixture() {
    let scenario = starved_fixture();
    let outcome = scenario.run();
    assert!(
        outcome.violations.iter().any(|v| v.kind() == "Termination"),
        "fixture must violate Termination"
    );
    let report = Shrinker::new().shrink(&scenario, &outcome).unwrap();
    assert_eq!(report.kind, "Termination");
    assert_eq!(report.original_len, 40);
    assert!(
        report.shrunk_len <= 8,
        "pinned shrink target missed: {} steps",
        report.shrunk_len
    );
    assert!(report.original_len >= 5 * report.shrunk_len.max(1) || report.shrunk_len == 0);
    assert!(report
        .outcome
        .violations
        .iter()
        .any(|v| v.kind() == "Termination"));
}

/// Schedule-level ddmin: a replayed schedule that breaks the Π = (p, q)
/// bound shrinks to the minimal witness — exactly `bound` q-steps in a
/// p-free run — and every accepted intermediate still violates the same
/// kind.
#[test]
fn ddmin_reduces_guarantee_broken_to_minimal_witness() {
    // 20 consecutive steps of process 2 (in q, not in p): observed bound
    // 21 > 6.
    let bad = Schedule::from_indices(std::iter::repeat_n(2usize, 20));
    let scenario = Scenario::new(
        "guarantee-broken/replay",
        universe(),
        GeneratorSpec::replay(conforming(), bad),
        fd_workload(),
        20,
        0,
    );
    let outcome = scenario.run();
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.kind() == "GuaranteeBroken"),
        "replayed schedule must break the guarantee; got {:?}",
        outcome.violations
    );
    let report = Shrinker::new().shrink(&scenario, &outcome).unwrap();
    assert_eq!(report.kind, "GuaranteeBroken");
    assert_eq!(
        report.shrunk_len, BOUND,
        "minimal witness is exactly `bound` p-free q-steps"
    );
    assert!(report.schedule_steps > 0, "the schedule phase must engage");
    for accepted in &report.accepted {
        assert!(
            accepted
                .run()
                .violations
                .iter()
                .any(|v| v.kind() == "GuaranteeBroken"),
            "accepted candidate lost the violation: {}",
            accepted.label
        );
    }
}

/// A found counterexample survives the full persistence loop: save to
/// canonical JSON, reload, replay under the checker, reproduce the kind.
#[test]
fn counterexample_round_trips_and_reproduces() {
    let scenario = starved_fixture();
    let outcome = scenario.run();
    let ce = Counterexample::new(scenario, outcome).unwrap();
    let text = ce.to_json_string();
    let reloaded = Counterexample::from_json_str(&text).unwrap();
    assert_eq!(reloaded.to_json_string(), text, "canonical round trip");
    let (_, reproduced) = reloaded.replay();
    assert!(reproduced, "replay must reproduce the violation kinds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite: the outcome-store codec round-trips *arbitrary*
    /// fault-decorator spec trees — the mutator's generator doubling as
    /// the proptest strategy.
    #[test]
    fn codec_round_trips_arbitrary_spec_trees(seed in any::<u64>()) {
        let mutator = SpecMutator::new(universe());
        let mut rng = SpecRng::new(seed);
        let spec = mutator.arbitrary(&mut rng, 3);
        let scenario = Scenario::new(
            "roundtrip",
            universe(),
            spec,
            agreement_workload(),
            1_000,
            seed,
        );
        let mut encoded = String::new();
        st_campaign::store::write_scenario(&scenario, &mut encoded);
        let mut cur = st_core::json::Cursor::new(&encoded);
        let decoded = st_campaign::store::read_scenario(&mut cur).unwrap().unwrap();
        let mut re_encoded = String::new();
        st_campaign::store::write_scenario(&decoded, &mut re_encoded);
        prop_assert_eq!(encoded, re_encoded);
    }

    /// Satellite: every shrinker-accepted candidate still violates the
    /// original kind — over *random* starved scenarios (arbitrary filler
    /// under a set-timely root, budget too small to decide).
    #[test]
    fn shrink_acceptance_preserves_the_violation_kind(seed in any::<u64>()) {
        let mutator = SpecMutator::new(universe());
        let mut rng = SpecRng::new(seed);
        let filler = mutator.arbitrary(&mut rng, 1);
        let spec = GeneratorSpec::set_timely(p(), q(), BOUND, filler);
        let scenario = Scenario::new(
            "prop-starved",
            universe(),
            spec,
            agreement_workload(),
            30 + (seed % 30),
            seed,
        );
        let outcome = scenario.run();
        // Not every random filler starves within the budget; only shrink
        // the ones that violate.
        if let Some(report) = Shrinker::with_max_runs(256).shrink(&scenario, &outcome) {
            let kind = report.kind;
            prop_assert!(report.shrunk_len <= report.original_len);
            for accepted in &report.accepted {
                prop_assert!(
                    accepted.run().violations.iter().any(|v| v.kind() == kind),
                    "accepted candidate lost kind {}", kind
                );
            }
        }
    }
}
