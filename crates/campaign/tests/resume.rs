//! The persistence/resume guarantee, differentially and property-tested:
//! a sweep that is interrupted (store truncated at any point), filtered
//! ([`Campaign::retain`]), or partitioned arbitrarily and then resumed
//! must reassemble **byte-identical** outcome lists — and byte-identical
//! re-recorded store files — compared to an uninterrupted run, at 1 / 4 /
//! oversubscribed workers.

use std::sync::OnceLock;

use proptest::prelude::*;
use st_campaign::{
    merge_outcomes, Campaign, FdAbi, FdDetector, OutcomeStore, Scenario, ScenarioOutcome, Workload,
};
use st_core::{ProcSet, ProcessId, Universe};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, GeneratorSpec};

const KEY: &str = "grid";

/// The same mixed 64-scenario grid as `tests/determinism.rs`: four
/// generator families × crash/no-crash × four seeds × two workloads.
fn mixed_campaign() -> Campaign {
    let n = 4;
    let universe = Universe::new(n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1, 2]);
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

/// The uninterrupted reference: campaign, its outcomes, and the store an
/// uninterrupted recording run writes. Computed once for all tests.
fn reference() -> &'static (Campaign, Vec<ScenarioOutcome>, OutcomeStore) {
    static REF: OnceLock<(Campaign, Vec<ScenarioOutcome>, OutcomeStore)> = OnceLock::new();
    REF.get_or_init(|| {
        let campaign = mixed_campaign();
        assert_eq!(campaign.len(), 64, "the mixed grid shape");
        let mut store = OutcomeStore::new();
        let outcomes = campaign.run_resumed(4, KEY, None, Some(&mut store));
        assert_eq!(store.len(), 64);
        (campaign, outcomes, store)
    })
}

fn as_bytes(outcomes: &[ScenarioOutcome]) -> Vec<u8> {
    // Byte identity, not just `Eq`: the debug rendering covers every field.
    format!("{outcomes:#?}").into_bytes()
}

/// An interrupted sweep — the store truncated after `cut` outcomes — then
/// resumed at several worker counts: outcome list and rewritten store are
/// byte-identical to the uninterrupted run's.
#[test]
fn interrupted_then_resumed_is_byte_identical() {
    let (campaign, full_outcomes, full_store) = reference();
    for cut in [0usize, 1, 17, 32, 63, 64] {
        let mut truncated = full_store.clone();
        truncated.retain(|idx, _| idx < cut);
        for workers in [1usize, 4, 33] {
            let mut rerecorded = OutcomeStore::new();
            let resumed =
                campaign.run_resumed(workers, KEY, Some(&truncated), Some(&mut rerecorded));
            assert_eq!(
                as_bytes(&resumed),
                as_bytes(full_outcomes),
                "outcomes diverged at cut={cut} workers={workers}"
            );
            assert_eq!(
                rerecorded.to_json_string(),
                full_store.to_json_string(),
                "store bytes diverged at cut={cut} workers={workers}"
            );
        }
    }
}

/// A store round trip through disk bytes resumes exactly like the
/// in-memory store it was written from.
#[test]
fn resuming_from_reparsed_bytes_matches() {
    let (campaign, full_outcomes, full_store) = reference();
    let reloaded = OutcomeStore::from_json_str(&full_store.to_json_string()).unwrap();
    let resumed = campaign.run_resumed(4, KEY, Some(&reloaded), None);
    assert_eq!(as_bytes(&resumed), as_bytes(full_outcomes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `retain` + `skip_completed` over a *random* partition of the grid
    /// (bit `r` of the mask decides rank `r`'s side) reassemble the exact
    /// full-run outcome list, at 1/4/oversubscribed workers.
    #[test]
    fn random_partitions_reassemble_the_full_run(mask in any::<u64>()) {
        let (campaign, full_outcomes, full_store) = reference();
        let full_bytes = as_bytes(full_outcomes);

        // Half A resumed from the store, half B run fresh, every worker mix.
        let mut partial = full_store.clone();
        partial.retain(|_, e| (mask >> e.rank) & 1 == 1);
        for workers in [1usize, 4, 33] {
            let mut pending = campaign.clone();
            let reused = pending.skip_completed(&partial, KEY);
            prop_assert_eq!(reused.len(), mask.count_ones() as usize);
            prop_assert_eq!(pending.len(), 64 - reused.len());
            let fresh = pending.run_parallel(workers);
            let merged = merge_outcomes(reused, fresh);
            prop_assert_eq!(&as_bytes(&merged), &full_bytes, "workers = {}", workers);
        }

        // Both halves executed as retained sub-campaigns (no store at all),
        // at different worker counts, merged by rank.
        let mut half_a = campaign.clone();
        half_a.retain(|rank, _| (mask >> rank) & 1 == 1);
        let mut half_b = campaign.clone();
        half_b.retain(|rank, _| (mask >> rank) & 1 == 0);
        prop_assert_eq!(half_a.len() + half_b.len(), 64);
        let merged = merge_outcomes(half_a.run_parallel(4), half_b.run_parallel(33));
        prop_assert_eq!(&as_bytes(&merged), &full_bytes);
    }
}
