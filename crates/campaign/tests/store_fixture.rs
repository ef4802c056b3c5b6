//! The outcome-store wire format, pinned byte for byte.
//!
//! `tests/golden/store_v2.json` is a committed store document holding every
//! shape the codec can write: every `GeneratorSpec` variant, `Workload` kind,
//! `OutcomeData` kind, violation kind and optional member in both states.
//! Round-trip tests alone cannot see the encoder and the decoder drifting
//! *together*; this file can. The entries are built from hand-written
//! values (nothing is executed), so the fixture depends on the codec only.
//!
//! To regenerate after a deliberate format change (and a schema bump):
//! `STORE_FIXTURE_BLESS=1 cargo test -p st-campaign --test store_fixture`.

use st_agreement::StackKind;
use st_campaign::store::{read_scenario, write_scenario, SCHEMA};
use st_campaign::{
    AdversarialOutcome, AgreementScenarioOutcome, BgOutcome, CertifyTimely, FdAbi, FdDetector,
    FdOutcome, FleetReplayDrive, InvariantViolation, LeanOutcome, LeanStabilization, OutcomeData,
    OutcomeStore, Scenario, ScenarioOutcome, StopRule, WideFdOutcome, WideFdStabilization,
    Workload,
};
use st_core::{AgreementViolation, Json, ProcSet, ProcessId, Schedule, TimelyPair, Universe};
use st_fd::convergence::{KAntiOmegaWitness, Stabilization};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, GeneratorSpec};
use st_sim::RunStatus;

const GOLDEN: &str = include_str!("golden/store_v2.json");

fn set(ix: &[usize]) -> ProcSet {
    ProcSet::from_indices(ix.iter().copied())
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// One `(scenario, outcome payload, violations, counterexample)` row per
/// fixture entry; ranks are the row indices.
type Row = (
    Scenario,
    OutcomeData,
    Vec<InvariantViolation>,
    Option<Schedule>,
);

fn rows() -> Vec<Row> {
    let u = |n| Universe::new(n).unwrap();
    let fd = |abi, detector, certify_membership| Workload::FdConvergence {
        k: 2,
        t: 2,
        policy: TimeoutPolicy::Increment,
        abi,
        detector,
        certify_membership,
    };
    let plan = CrashPlan::new().crash(pid(1), 40).crash(pid(4), 4_096);
    let adversarial = |witness| Workload::AdversarialAgreement {
        t: 2,
        k: 1,
        inputs: vec![1, 2, 3, 4, 5],
        policy: TimeoutPolicy::Increment,
        precrashed: set(&[4]),
        witness,
    };
    let mut lean_agreement = Scenario::new(
        "lean/agreement",
        u(8),
        GeneratorSpec::Cycle {
            period: Schedule::from_indices([0, 1, 1, 7]),
        },
        Workload::LeanAgreement {
            t: 1,
            policy: TimeoutPolicy::Double,
            drive: FleetReplayDrive::Soa { slice_len: 256 },
        },
        60_000,
        8,
    );
    lean_agreement.stop = StopRule::BudgetOnly;
    let mut wide = Scenario::new(
        "wide/soa",
        u(128),
        GeneratorSpec::AlternatingRotation {
            groups: vec![set(&[0, 1]), set(&[2, 3]), set(&[63])],
            base: 8,
        },
        Workload::WideFdConvergence {
            k: 1,
            t: 1,
            policy: TimeoutPolicy::Increment,
            drive: FleetReplayDrive::Soa { slice_len: 0 },
        },
        500_000,
        9,
    );
    wide.stop = StopRule::AllCorrectDecided;
    vec![
        // 0: the plainest entry — every optional member absent.
        (
            Scenario::new(
                "fd/plain",
                u(5),
                GeneratorSpec::round_robin(),
                fd(FdAbi::MachineSlot, FdDetector::SetBased, false),
                2_000,
                7,
            ),
            OutcomeData::Fd(FdOutcome {
                status: RunStatus::MaxSteps,
                steps: 2_000,
                membership: None,
                stabilization: None,
                witness: None,
                late_flaps: 0,
            }),
            vec![],
            None,
        ),
        // 1: every optional FD member present; crashed SetTimely over a weighted
        // random filler; FD-side violations and a counterexample.
        (
            Scenario::new(
                "fd/full",
                u(5),
                GeneratorSpec::set_timely(
                    set(&[0, 1]),
                    set(&[0, 1, 2]),
                    6,
                    GeneratorSpec::SeededRandom {
                        over: Some(set(&[0, 2, 4])),
                        seed_offset: 3,
                        weights: Some(vec![1, 0, u32::MAX]),
                    },
                )
                .crashed(plan.clone()),
                fd(FdAbi::Async, FdDetector::ProcessBased, true),
                50_000,
                u64::MAX,
            ),
            OutcomeData::Fd(FdOutcome {
                status: RunStatus::Stopped,
                steps: 31_337,
                membership: Some(TimelyPair {
                    p: set(&[0, 1]),
                    q: set(&[0, 1, 2]),
                    bound: 6,
                }),
                stabilization: Some(Stabilization {
                    winnerset: set(&[0, 3]),
                    step: 12_345,
                }),
                witness: Some(KAntiOmegaWitness {
                    trusted: pid(3),
                    from_step: 12_000,
                }),
                late_flaps: 2,
            }),
            vec![
                InvariantViolation::AccusedTimelyWinnerset {
                    winnerset: set(&[1, 4]),
                },
                InvariantViolation::GuaranteeBroken {
                    p: set(&[0, 1]),
                    q: set(&[0, 1, 2]),
                    bound: 6,
                    observed: 19,
                },
                InvariantViolation::CrashWindowResurrection {
                    process: 1,
                    position: 41,
                },
            ],
            Some(Schedule::from_indices([0, 1, 2, 3, 4, 0, 0, 2])),
        ),
        // 2: agreement without certification; Eventually over Flapping; every
        // agreement-side violation kind, checker-side and payload-side.
        (
            Scenario::new(
                "agreement/violating \"quoted\" label",
                u(4),
                GeneratorSpec::Eventually {
                    prefix: Box::new(GeneratorSpec::RoundRobin {
                        over: Some(set(&[1, 3])),
                    }),
                    prefix_len: 100,
                    body: Box::new(GeneratorSpec::Flapping {
                        p: set(&[0]),
                        q: set(&[1, 2]),
                        bound: 3,
                        filler: Box::new(GeneratorSpec::SeededRandom {
                            over: Some(set(&[0, 1, 2])),
                            seed_offset: 0,
                            weights: None,
                        }),
                        timely_dwell: (100, 300),
                        untimely_dwell: (50, 50),
                        seed_offset: 5,
                    }),
                },
                Workload::Agreement {
                    t: 2,
                    k: 2,
                    inputs: vec![100, 101, 102, 103],
                    policy: TimeoutPolicy::Double,
                    certify: None,
                },
                9_000,
                1,
            ),
            OutcomeData::Agreement(AgreementScenarioOutcome {
                kind: StackKind::FdParallelPaxos,
                status: RunStatus::Stopped,
                decided_at: Some(8_765),
                decisions: vec![Some(100), None, Some(102), Some(999)],
                correct: set(&[0, 1, 2, 3]),
                violations: vec![
                    AgreementViolation::KAgreement {
                        values: vec![100, 102, 999],
                        k: 2,
                    },
                    AgreementViolation::Validity {
                        process: 3,
                        value: 999,
                    },
                    AgreementViolation::Termination { undecided: vec![1] },
                ],
                clean: false,
                safe: false,
                certified: None,
            }),
            vec![
                InvariantViolation::KAgreement {
                    values: vec![100, 102, 999],
                    k: 2,
                },
                InvariantViolation::Validity {
                    process: 3,
                    value: 999,
                },
                InvariantViolation::Termination {
                    undecided: vec![1, 2],
                },
                InvariantViolation::BallotOwnership {
                    instance: 1,
                    process: 2,
                    mbal: 7,
                    bal: 11,
                },
            ],
            Some(Schedule::new()),
        ),
        // 3: certified agreement on the trivial stack; decorators three deep;
        // a stuck run.
        (
            Scenario::new(
                "agreement/certified",
                u(5),
                GeneratorSpec::gray_failure(
                    GeneratorSpec::burst_clog(
                        GeneratorSpec::crash_recovery(
                            GeneratorSpec::seeded_random(9),
                            pid(3),
                            200,
                            900,
                        ),
                        pid(2),
                        16,
                        (30, 90),
                    ),
                    set(&[1, 4]),
                    4,
                ),
                Workload::Agreement {
                    t: 1,
                    k: 3,
                    inputs: vec![0, 0, 5, 5, 9],
                    policy: TimeoutPolicy::Increment,
                    certify: Some(CertifyTimely {
                        i: 2,
                        j: 3,
                        cap: 12,
                        prefix_len: 4_000,
                    }),
                },
                20_000,
                42,
            ),
            OutcomeData::Agreement(AgreementScenarioOutcome {
                kind: StackKind::Trivial,
                status: RunStatus::Stuck(pid(2)),
                decided_at: None,
                decisions: vec![],
                correct: set(&[0, 1, 3, 4]),
                violations: vec![],
                clean: true,
                safe: true,
                certified: Some(true),
            }),
            vec![],
            None,
        ),
        // 4, 5: the adaptive adversary, witness and certificate absent / present.
        (
            Scenario::new(
                "adversarial/blind",
                u(5),
                GeneratorSpec::Figure1 {
                    p1: pid(0),
                    p2: pid(1),
                    q: pid(2),
                },
                adversarial(None),
                30_000,
                3,
            ),
            OutcomeData::Adversarial(AdversarialOutcome {
                status: RunStatus::MaxSteps,
                decided: 0,
                blocked: true,
                safe: true,
                freeze_events: 17,
                max_frozen: 2,
                certificate: None,
            }),
            vec![],
            None,
        ),
        (
            Scenario::new(
                "adversarial/witnessed",
                u(5),
                GeneratorSpec::GeneralizedFigure1 {
                    p: set(&[0, 1]),
                    q: set(&[2, 3]),
                },
                adversarial(Some((set(&[0, 1]), set(&[2, 3])))),
                30_000,
                4,
            )
            .with_faulty(set(&[4])),
            OutcomeData::Adversarial(AdversarialOutcome {
                status: RunStatus::Stopped,
                decided: 4,
                blocked: false,
                safe: false,
                freeze_events: 0,
                max_frozen: 0,
                certificate: Some(TimelyPair {
                    p: set(&[0, 1]),
                    q: set(&[2, 3]),
                    bound: 2,
                }),
            }),
            vec![],
            None,
        ),
        // 6: the BG reduction.
        (
            Scenario::new(
                "bg",
                u(4),
                GeneratorSpec::RotatingStarvation { k: 2, base: 8 },
                Workload::BgReduction {
                    n_sim: 3,
                    k: 2,
                    max_reads: 64,
                },
                100_000,
                5,
            ),
            OutcomeData::Bg(BgOutcome {
                status: RunStatus::SourceEnded,
                stalled: set(&[2]),
                distinct_simulator_values: 2,
                simulator_decisions: vec![Some(7), None, Some(8)],
                simulated_decisions: vec![None, Some(7), Some(7), Some(8)],
                host_steps: 99_999,
                live_sched_len: 1_234,
                max_live_bound: 56,
            }),
            vec![],
            None,
        ),
        // 7, 8: the lean stack on both replay drives.
        (
            Scenario::new(
                "lean/convergence",
                u(64),
                GeneratorSpec::bursty(4_096),
                Workload::LeanConvergence {
                    t: 3,
                    policy: TimeoutPolicy::Increment,
                    drive: FleetReplayDrive::Plain,
                },
                1_000_000,
                6,
            ),
            OutcomeData::Lean(LeanOutcome {
                status: RunStatus::MaxSteps,
                steps: 1_000_000,
                stabilization: Some(LeanStabilization {
                    leader: 63,
                    step: 777_777,
                }),
                publications: 4_242,
                late_flaps: 1,
                decided: 0,
                distinct_values: vec![],
            }),
            vec![InvariantViolation::FaultyLeaderElected { leader: 63 }],
            None,
        ),
        (
            lean_agreement,
            OutcomeData::Lean(LeanOutcome {
                status: RunStatus::Stopped,
                steps: 59_001,
                stabilization: None,
                publications: 0,
                late_flaps: 0,
                decided: 8,
                distinct_values: vec![11, 12],
            }),
            vec![],
            None,
        ),
        // 9, 10: the width-generic Figure 2 detector on both replay drives.
        (
            wide,
            OutcomeData::WideFd(WideFdOutcome {
                status: RunStatus::MaxSteps,
                steps: 500_000,
                stabilization: Some(WideFdStabilization {
                    winnerset_code: 127,
                    members: vec![127],
                    step: 250_000,
                }),
                publications: 128,
                late_flaps: 0,
            }),
            vec![],
            None,
        ),
        (
            Scenario::new(
                "wide/plain",
                u(6),
                GeneratorSpec::FictitiousCrash {
                    i: 1,
                    j: 3,
                    t: 4,
                    k: 2,
                    base: 8,
                },
                Workload::WideFdConvergence {
                    k: 2,
                    t: 4,
                    policy: TimeoutPolicy::Double,
                    drive: FleetReplayDrive::Plain,
                },
                10_000,
                10,
            ),
            OutcomeData::WideFd(WideFdOutcome {
                status: RunStatus::SourceEnded,
                steps: 9_999,
                stabilization: None,
                publications: 3,
                late_flaps: 3,
            }),
            vec![],
            None,
        ),
        // 11: a replay carrying a crash-wrapped spec, on the fleet ABI.
        (
            Scenario::new(
                "replay",
                u(3),
                GeneratorSpec::replay(
                    GeneratorSpec::round_robin().crashed(CrashPlan::new().crash(pid(2), 10)),
                    Schedule::from_indices([0, 1, 0, 1, 2]),
                ),
                fd(FdAbi::MachineFleet, FdDetector::SetBased, false),
                5,
                0,
            ),
            OutcomeData::Fd(FdOutcome {
                status: RunStatus::SourceEnded,
                steps: 5,
                membership: None,
                stabilization: None,
                witness: None,
                late_flaps: 0,
            }),
            vec![],
            None,
        ),
    ]
}

/// The fixture store: two campaign keys, so the `(campaign, rank)` order is
/// part of the pinned bytes.
fn fixture_store() -> OutcomeStore {
    let mut store = OutcomeStore::new();
    for (rank, (scenario, data, violations, counterexample)) in rows().into_iter().enumerate() {
        let outcome = ScenarioOutcome {
            rank,
            label: scenario.label.clone(),
            data,
            violations,
            counterexample,
        };
        let key = if rank % 2 == 0 {
            "fixture/even"
        } else {
            "fixture/odd"
        };
        store.record(key, &scenario, &outcome);
    }
    store
}

#[test]
fn encoder_reproduces_the_committed_fixture() {
    let text = fixture_store().to_json_string();
    if std::env::var_os("STORE_FIXTURE_BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/store_v2.json");
        std::fs::write(path, &text).unwrap();
    }
    assert!(
        text == GOLDEN,
        "the encoder no longer writes tests/golden/store_v2.json byte for byte"
    );
}

#[test]
fn fixture_loads_and_rewrites_byte_identically() {
    let store = OutcomeStore::from_json_str(GOLDEN).expect("the fixture loads");
    assert_eq!(store.entries(), fixture_store().entries());
    assert!(
        store.to_json_string() == GOLDEN,
        "load -> to_json_string() changed the fixture's bytes"
    );
}

#[test]
fn every_stored_spec_round_trips_through_the_scenario_codec() {
    let doc = Json::parse(GOLDEN).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    let scenarios: Vec<Scenario> = rows().into_iter().map(|row| row.0).collect();
    assert_eq!(entries.len(), scenarios.len());
    let mut refused = Vec::new();
    for entry in entries {
        let rank = entry.get("rank").and_then(Json::as_u64).unwrap() as usize;
        let spec = entry.get("scenario").unwrap();
        let mut written = String::new();
        write_scenario(&scenarios[rank], &mut written);
        let spec = spec.to_string();
        assert_eq!(written, spec, "rank {rank}");
        match read_scenario(&mut st_core::json::Cursor::new(&spec)).unwrap() {
            Ok(decoded) => assert_eq!(decoded, scenarios[rank], "rank {rank}"),
            // A stored spec that breaks a precondition of what it runs
            // still loads with its store, but is refused when decoded to
            // run, by the same field path `validate` names.
            Err(e) => {
                assert_eq!(Err(e), scenarios[rank].validate(), "rank {rank}");
                refused.push(rank);
            }
        }
    }
    // Only the SoA drive with a zero slice length, which would panic the
    // worker that ran it.
    let wide = scenarios.iter().position(|s| s.label == "wide/soa");
    assert_eq!(refused, Vec::from_iter(wide));
}
