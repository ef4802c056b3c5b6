//! The campaign engine's determinism guarantee, differentially tested:
//! `run_parallel(1)`, `run_parallel(4)`, and an oversubscribed worker pool
//! must produce **byte-identical ordered outcome lists** on a mixed grid —
//! four generator families × crash/no-crash × four seeds × two workloads.

use st_campaign::{Campaign, FdAbi, FdDetector, Scenario, ScenarioOutcome, Workload};
use st_core::{ProcSet, ProcessId, Universe};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, GeneratorSpec};

fn mixed_campaign() -> Campaign {
    let n = 4;
    let universe = Universe::new(n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1, 2]);
    // Four distinct generator families, conforming and adversarial.
    let generators = [
        GeneratorSpec::set_timely(p, q, 6, GeneratorSpec::seeded_random(0)),
        GeneratorSpec::GeneralizedFigure1 {
            p: ProcSet::from_indices([0, 1]),
            q: ProcSet::from_indices([2, 3]),
        },
        GeneratorSpec::AlternatingRotation {
            groups: vec![ProcSet::from_indices([0, 1]), ProcSet::from_indices([2, 3])],
            base: 8,
        },
        GeneratorSpec::RotatingStarvation { k: 1, base: 8 },
    ];
    // Crash axis: no crash, and p3 crashing mid-run (keeps the SetTimely
    // witness set alive).
    let crash_axis = [
        CrashPlan::new(),
        CrashPlan::new().crash(ProcessId::new(3), 2_000),
    ];
    let workloads = [
        Workload::FdConvergence {
            k: 1,
            t: 2,
            policy: TimeoutPolicy::Increment,
            abi: FdAbi::MachineSlot,
            detector: FdDetector::SetBased,
            certify_membership: true,
        },
        Workload::Agreement {
            t: 2,
            k: 1,
            inputs: (0..n as st_core::Value).map(|v| 100 + v).collect(),
            policy: TimeoutPolicy::Increment,
            certify: None,
        },
    ];
    let mut campaign = Campaign::new();
    for (w, workload) in workloads.iter().enumerate() {
        for generator in &generators {
            for (c, plan) in crash_axis.iter().enumerate() {
                let spec = generator.clone().crashed(plan.clone());
                for seed in [11, 12, 13, 14] {
                    campaign.push(Scenario::new(
                        format!("w{w}/{}/crash{c}/seed{seed}", spec.family()),
                        universe,
                        spec.clone(),
                        workload.clone(),
                        20_000,
                        seed,
                    ));
                }
            }
        }
    }
    campaign
}

fn as_bytes(outcomes: &[ScenarioOutcome]) -> Vec<u8> {
    // Byte identity, not just `Eq`: the debug rendering covers every field.
    format!("{outcomes:#?}").into_bytes()
}

#[test]
fn thread_count_never_changes_outcomes() {
    let campaign = mixed_campaign();
    assert_eq!(campaign.len(), 4 * 2 * 4 * 2, "the mixed grid shape");

    let sequential = campaign.run_parallel(1);
    assert_eq!(sequential.len(), campaign.len());
    for (rank, out) in sequential.iter().enumerate() {
        assert_eq!(out.rank, rank, "outcomes sorted by rank");
    }

    let four = campaign.run_parallel(4);
    // Far more workers than scenarios per core: the stealing tail path.
    let oversubscribed = campaign.run_parallel(33);

    assert_eq!(sequential, four, "4 workers diverged from sequential");
    assert_eq!(sequential, oversubscribed, "oversubscription diverged");
    assert_eq!(as_bytes(&sequential), as_bytes(&four));
    assert_eq!(as_bytes(&sequential), as_bytes(&oversubscribed));

    // And the explicit sequential reference is the same list again.
    assert_eq!(campaign.run_sequential(), sequential);
}

#[test]
fn repeated_runs_are_reproducible() {
    let campaign = mixed_campaign();
    let a = campaign.run_parallel(4);
    let b = campaign.run_parallel(4);
    assert_eq!(as_bytes(&a), as_bytes(&b));
}

/// The fault-injection decorators ride the same guarantee: a grid over all
/// four decorator families must be byte-identical at 1, 4, and an
/// oversubscribed worker count, and violation-free on conforming scenarios.
fn fault_campaign() -> Campaign {
    let n = 4;
    let universe = Universe::new(n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1, 2]);
    let base = || GeneratorSpec::set_timely(p, q, 6, GeneratorSpec::seeded_random(0));
    let generators = [
        GeneratorSpec::flapping(p, q, 6, GeneratorSpec::seeded_random(0), (40, 80), (20, 40)),
        GeneratorSpec::gray_failure(base(), ProcSet::from_indices([3]), 4),
        GeneratorSpec::burst_clog(base(), ProcessId::new(3), 25, (60, 120)),
        GeneratorSpec::crash_recovery(base(), ProcessId::new(3), 1_000, 3_000),
    ];
    let workloads = [
        Workload::FdConvergence {
            k: 1,
            t: 2,
            policy: TimeoutPolicy::Increment,
            abi: FdAbi::MachineSlot,
            detector: FdDetector::SetBased,
            certify_membership: false,
        },
        Workload::Agreement {
            t: 2,
            k: 1,
            inputs: (0..n as st_core::Value).map(|v| 100 + v).collect(),
            policy: TimeoutPolicy::Increment,
            certify: None,
        },
    ];
    let mut campaign = Campaign::new();
    for (w, workload) in workloads.iter().enumerate() {
        for generator in &generators {
            for seed in [21, 22, 23] {
                campaign.push(Scenario::new(
                    format!("w{w}/{}/crash0/seed{seed}", generator.family()),
                    universe,
                    generator.clone(),
                    workload.clone(),
                    20_000,
                    seed,
                ));
            }
        }
    }
    campaign
}

#[test]
fn fault_decorators_are_worker_count_independent() {
    let campaign = fault_campaign();
    assert_eq!(campaign.len(), 4 * 3 * 2, "the fault grid shape");

    let sequential = campaign.run_parallel(1);
    let four = campaign.run_parallel(4);
    let oversubscribed = campaign.run_parallel(33);

    assert_eq!(as_bytes(&sequential), as_bytes(&four));
    assert_eq!(as_bytes(&sequential), as_bytes(&oversubscribed));

    // The decorators stress schedules but never forge evidence: no scenario
    // in this grid trips the always-on checker.
    for out in &sequential {
        assert!(
            out.violations.is_empty(),
            "unexpected violation in {}: {:?}",
            out.label,
            out.violations
        );
        assert!(out.counterexample.is_none());
    }
}

/// Large-n grids ride the same guarantee: lean workloads at n = 256 —
/// beyond `PROCSET_CAPACITY`, so the O(n)-state detector/consensus stack —
/// across both fleet-replay drives must be byte-identical at 1, 4, and an
/// oversubscribed worker count. Budgets are far below stabilization scale
/// (determinism needs no convergence), so this stays test-suite cheap.
fn large_n_campaign() -> Campaign {
    use st_campaign::FleetReplayDrive;
    let n = 256;
    let universe = Universe::new(n).unwrap();
    let burst = (n * n + n + 2) as u64;
    let mut campaign = Campaign::new();
    for seed in [31, 32] {
        for drive in [
            FleetReplayDrive::Plain,
            FleetReplayDrive::Soa { slice_len: 64 },
        ] {
            for (tag, workload) in [
                (
                    "convergence",
                    Workload::LeanConvergence {
                        t: 8,
                        policy: TimeoutPolicy::Increment,
                        drive,
                    },
                ),
                (
                    "agreement",
                    Workload::LeanAgreement {
                        t: 8,
                        policy: TimeoutPolicy::Increment,
                        drive,
                    },
                ),
            ] {
                campaign.push(Scenario::new(
                    format!("n256/{tag}/{drive:?}/seed{seed}"),
                    universe,
                    GeneratorSpec::Bursty { burst },
                    workload,
                    400_000,
                    seed,
                ));
            }
        }
    }
    campaign
}

/// The *paper's* detector at large n rides the same guarantee: wide-FD
/// workloads at n = 128 (two-word `WideProcSet` universes) across both
/// fleet-replay drives must be byte-identical at 1, 4, and an
/// oversubscribed worker count, and must round-trip through the outcome
/// store byte-identically. Budgets stay below stabilization scale.
fn wide_fd_campaign() -> Campaign {
    use st_campaign::FleetReplayDrive;
    let n = 128;
    let universe = Universe::new(n).unwrap();
    let burst = (n * n + n + 2) as u64;
    let mut campaign = Campaign::new();
    for seed in [41, 42] {
        for drive in [
            FleetReplayDrive::Plain,
            FleetReplayDrive::Soa { slice_len: 64 },
        ] {
            campaign.push(Scenario::new(
                format!("n128/wide-fd/{drive:?}/seed{seed}"),
                universe,
                GeneratorSpec::Bursty { burst },
                Workload::WideFdConvergence {
                    k: 1,
                    t: 8,
                    policy: TimeoutPolicy::Increment,
                    drive,
                },
                60_000,
                seed,
            ));
        }
    }
    campaign
}

#[test]
fn wide_fd_grid_is_worker_count_independent() {
    let campaign = wide_fd_campaign();
    assert_eq!(campaign.len(), 2 * 2, "the wide-fd grid shape");

    let sequential = campaign.run_parallel(1);
    let four = campaign.run_parallel(4);
    let oversubscribed = campaign.run_parallel(33);

    assert_eq!(as_bytes(&sequential), as_bytes(&four));
    assert_eq!(as_bytes(&sequential), as_bytes(&oversubscribed));

    for out in &sequential {
        assert!(
            out.violations.is_empty(),
            "unexpected violation in {}: {:?}",
            out.label,
            out.violations
        );
    }

    // Store round-trip: the WideFd codec arms reproduce the outcomes
    // byte-for-byte.
    let dir = std::env::temp_dir().join("st-campaign-wide-fd-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("outcomes.json");
    let key = "wide-fd-determinism";
    let mut store = st_campaign::OutcomeStore::new();
    for (scenario, out) in campaign.scenarios().iter().zip(&sequential) {
        store.record(key, scenario, out);
    }
    store.save(&path).unwrap();
    let loaded = st_campaign::OutcomeStore::load(&path).unwrap();
    let reloaded: Vec<ScenarioOutcome> = campaign
        .scenarios()
        .iter()
        .zip(&sequential)
        .map(|(scenario, out)| loaded.lookup(key, out.rank, scenario).unwrap())
        .collect();
    assert_eq!(as_bytes(&sequential), as_bytes(&reloaded));
    std::fs::remove_file(&path).ok();
}

#[test]
fn large_n_lean_grid_is_worker_count_independent() {
    let campaign = large_n_campaign();
    assert_eq!(campaign.len(), 2 * 2 * 2, "the large-n grid shape");

    let sequential = campaign.run_parallel(1);
    let four = campaign.run_parallel(4);
    let oversubscribed = campaign.run_parallel(33);

    assert_eq!(as_bytes(&sequential), as_bytes(&four));
    assert_eq!(as_bytes(&sequential), as_bytes(&oversubscribed));

    for out in &sequential {
        assert!(
            out.violations.is_empty(),
            "unexpected violation in {}: {:?}",
            out.label,
            out.violations
        );
    }
}
