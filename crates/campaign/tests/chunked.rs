//! The incremental (`st-serve`) drive holds the same bar as the batch
//! drives: `run_chunked` must record a store byte-identical to
//! `run_resumed`'s for every chunk size and worker count, an early-stopped
//! run resumed from its own checkpoint must complete to the same bytes,
//! and `from_ranked` must reconstruct a campaign exactly from its wire
//! representation.

use std::sync::OnceLock;

use st_campaign::{
    Campaign, ChunkControl, FdAbi, FdDetector, OutcomeStore, ScenarioOutcome, StoreEntry, Workload,
};
use st_core::{ProcSet, ProcessId, Universe};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, GeneratorSpec};

const KEY: &str = "served";

/// A 12-scenario mixed grid: two generator families × crash/no-crash ×
/// three seeds, FD workload.
fn grid() -> Campaign {
    let universe = Universe::new(4).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1, 2]);
    Campaign::grid(universe)
        .generators([
            GeneratorSpec::set_timely(p, q, 6, GeneratorSpec::seeded_random(0)),
            GeneratorSpec::RotatingStarvation { k: 1, base: 8 },
        ])
        .crash_plans([
            CrashPlan::new(),
            CrashPlan::new().crash(ProcessId::new(3), 2_000),
        ])
        .seeds([21, 22, 23])
        .workload(Workload::FdConvergence {
            k: 1,
            t: 2,
            policy: TimeoutPolicy::Increment,
            abi: FdAbi::MachineSlot,
            detector: FdDetector::SetBased,
            certify_membership: false,
        })
        .budget(8_000)
        .build()
}

/// Campaign, uninterrupted outcomes, and the store `run_resumed` records —
/// the reference every chunked variant must reproduce byte-for-byte.
fn reference() -> &'static (Campaign, Vec<ScenarioOutcome>, OutcomeStore) {
    static REF: OnceLock<(Campaign, Vec<ScenarioOutcome>, OutcomeStore)> = OnceLock::new();
    REF.get_or_init(|| {
        let campaign = grid();
        assert_eq!(campaign.len(), 12, "the grid shape");
        let mut store = OutcomeStore::new();
        let outcomes = campaign.run_resumed(4, KEY, None, Some(&mut store));
        (campaign, outcomes, store)
    })
}

fn as_bytes(outcomes: &[ScenarioOutcome]) -> Vec<u8> {
    format!("{outcomes:#?}").into_bytes()
}

#[test]
fn chunked_store_is_byte_identical_for_every_chunk_size_and_worker_count() {
    let (campaign, full_outcomes, full_store) = reference();
    for chunk in [1usize, 3, 5, 12, 100] {
        for workers in [1usize, 4] {
            let mut record = OutcomeStore::new();
            let mut calls = 0usize;
            let (outcomes, finished) = campaign.run_chunked(
                workers,
                KEY,
                None,
                &mut record,
                chunk,
                |store, completed, total| {
                    calls += 1;
                    // Every checkpoint is a complete store of the work so
                    // far — a valid resume point.
                    assert_eq!(store.len(), completed);
                    assert_eq!(total, campaign.len());
                    ChunkControl::Continue
                },
            );
            assert!(finished, "chunk={chunk} workers={workers}");
            assert_eq!(calls, campaign.len().div_ceil(chunk));
            assert_eq!(as_bytes(&outcomes), as_bytes(full_outcomes));
            assert_eq!(
                record.to_json_string(),
                full_store.to_json_string(),
                "store bytes diverged at chunk={chunk} workers={workers}"
            );
        }
    }
}

#[test]
fn stopped_then_resumed_completes_to_identical_bytes() {
    let (campaign, full_outcomes, full_store) = reference();
    for stop_after in [1usize, 2, 3] {
        // Phase 1: the "daemon" is killed after `stop_after` chunks of 4.
        let mut checkpoint = OutcomeStore::new();
        let mut calls = 0usize;
        let (_, finished) = campaign.run_chunked(2, KEY, None, &mut checkpoint, 4, |_, _, _| {
            calls += 1;
            if calls >= stop_after {
                ChunkControl::Stop
            } else {
                ChunkControl::Continue
            }
        });
        assert_eq!(finished, stop_after >= 3, "12 scenarios / chunks of 4");
        assert_eq!(checkpoint.len(), stop_after * 4);

        // The checkpoint round-trips through its disk bytes, like a real
        // restart.
        let reloaded = OutcomeStore::from_json_str(&checkpoint.to_json_string()).unwrap();

        // Phase 2: a fresh run (different workers, different chunk size)
        // resumes from the checkpoint and completes.
        let mut record = OutcomeStore::new();
        let (outcomes, finished) =
            campaign.run_chunked(1, KEY, Some(&reloaded), &mut record, 5, |_, _, _| {
                ChunkControl::Continue
            });
        assert!(finished);
        assert_eq!(as_bytes(&outcomes), as_bytes(full_outcomes));
        assert_eq!(
            record.to_json_string(),
            full_store.to_json_string(),
            "kill-after-{stop_after}-chunks + resume diverged from the uninterrupted run"
        );
    }
}

/// The store a log-keeping caller rebuilds: `base`'s entries plus the
/// logged entry lines, through the one entry decoder.
fn replayed(base: &OutcomeStore, log: &[String]) -> OutcomeStore {
    let logged = log.iter().map(|line| {
        StoreEntry::from_json_line(line)
            .expect("entry lines are JSON")
            .expect("entry lines are entries")
    });
    let entries = base.entries().iter().cloned().chain(logged).collect();
    OutcomeStore::from_entries(entries).expect("base + fresh entries never collide")
}

#[test]
fn fresh_entries_logged_per_chunk_replay_to_the_checkpoint_from_any_resume_subset() {
    let (campaign, _, full_store) = reference();
    // Resume stores holding non-prefix rank subsets (and the empty one).
    let subsets: [&dyn Fn(usize) -> bool; 3] = [&|_| false, &|rank| rank % 3 == 1, &|rank| {
        [0, 5, 6, 11].contains(&rank)
    }];
    for keep in subsets {
        let mut resume = full_store.clone();
        resume.retain(|_, e| keep(e.rank));
        let pending: Vec<usize> = (0..campaign.len()).filter(|&r| !keep(r)).collect();
        for chunk in [1usize, 2, 3, 8] {
            for stop_after in 1..=pending.len().div_ceil(chunk) {
                let case = format!(
                    "resume={} chunk={chunk} stop_after={stop_after}",
                    resume.len()
                );
                // Phase 1: log each chunk's fresh entries, stop at the
                // interrupt point.
                let mut log: Vec<String> = Vec::new();
                let mut calls = 0usize;
                let mut checkpoint = OutcomeStore::new();
                campaign.run_chunked_fresh(
                    2,
                    KEY,
                    Some(&resume),
                    &mut checkpoint,
                    chunk,
                    |report| {
                        let ranks: Vec<usize> = report.fresh.iter().map(|e| e.rank).collect();
                        let from = calls * chunk;
                        let to = (from + chunk).min(pending.len());
                        assert_eq!(
                            ranks,
                            pending[from..to],
                            "{case}: fresh = what this chunk ran"
                        );
                        assert_eq!(report.store.len(), report.completed, "{case}");
                        assert_eq!(report.completed, resume.len() + to, "{case}");
                        for entry in report.fresh {
                            let mut line = String::new();
                            entry.write_json_line(&mut line);
                            log.push(line);
                        }
                        calls += 1;
                        if calls >= stop_after {
                            ChunkControl::Stop
                        } else {
                            ChunkControl::Continue
                        }
                    },
                );
                // Replay: resume store + log = the in-memory checkpoint.
                let recovered = replayed(&resume, &log);
                assert_eq!(recovered.entries(), checkpoint.entries(), "{case}");

                // Phase 2: finish from the replayed state; compaction (the
                // final store's bytes) matches the uninterrupted batch run.
                let mut record = OutcomeStore::new();
                let (_, finished) =
                    campaign.run_chunked(1, KEY, Some(&recovered), &mut record, 5, |_, _, _| {
                        ChunkControl::Continue
                    });
                assert!(finished, "{case}");
                assert_eq!(
                    record.to_json_string(),
                    full_store.to_json_string(),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn fully_reused_campaign_still_checkpoints_once() {
    let (campaign, full_outcomes, full_store) = reference();
    let mut record = OutcomeStore::new();
    let mut calls = 0usize;
    let (outcomes, finished) = campaign.run_chunked(
        4,
        KEY,
        Some(full_store),
        &mut record,
        3,
        |store, completed, total| {
            calls += 1;
            assert_eq!((completed, total), (campaign.len(), campaign.len()));
            assert_eq!(store.len(), campaign.len());
            ChunkControl::Continue
        },
    );
    assert!(finished);
    assert_eq!(
        calls, 1,
        "one observer call so the caller persists the store"
    );
    assert_eq!(as_bytes(&outcomes), as_bytes(full_outcomes));
    assert_eq!(record.to_json_string(), full_store.to_json_string());
}

#[test]
fn from_ranked_reconstructs_a_campaign_exactly() {
    let (campaign, _, _) = reference();
    let mut pruned = campaign.clone();
    pruned.retain(|rank, _| rank % 3 != 1); // gaps in the rank sequence
    let rebuilt = Campaign::from_ranked(
        pruned
            .ranks()
            .iter()
            .copied()
            .zip(pruned.scenarios().iter().cloned()),
    )
    .unwrap();
    assert_eq!(rebuilt.ranks(), pruned.ranks());
    assert_eq!(
        as_bytes(&rebuilt.run_parallel(2)),
        as_bytes(&pruned.run_parallel(2)),
        "a wire-reconstructed campaign runs identically"
    );
}

#[test]
fn from_ranked_rejects_non_increasing_ranks() {
    let (campaign, _, _) = reference();
    let s = campaign.scenarios()[0].clone();
    let err = Campaign::from_ranked([(3, s.clone()), (3, s)]).unwrap_err();
    assert!(err.contains("strictly increasing"), "{err}");
}
