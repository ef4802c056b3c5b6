//! Campaigns: ordered scenario lists executed by a work-stealing worker
//! pool with a deterministic rank-ordered merge, filterable and resumable
//! without changing what any scenario computes.

use st_core::parallel::{resolve_workers, steal_chunks};

use crate::scenario::{Scenario, ScenarioOutcome};
use crate::store::{OutcomeStore, StoreEntry};

/// An ordered list of scenarios, executed together.
///
/// The order is the identity of the campaign: every scenario has a *rank*
/// (its position at creation), outcomes always come back sorted by rank,
/// and [`run_parallel`](Campaign::run_parallel) guarantees the outcome list
/// is identical for every thread count.
///
/// Ranks are **permanent**: [`retain`](Campaign::retain) and
/// [`skip_completed`](Campaign::skip_completed) drop scenarios without
/// renumbering the survivors, so outcomes of a filtered campaign slot back
/// into the full run's rank order — [`merge_outcomes`] of a resumed sweep
/// is byte-identical to the uninterrupted run.
#[derive(Clone, Default, Debug)]
pub struct Campaign {
    scenarios: Vec<Scenario>,
    /// Rank of `scenarios[idx]`; strictly increasing (push only grows
    /// `next_rank`, filters preserve order).
    ranks: Vec<usize>,
    next_rank: usize,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Appends a scenario; returns its rank.
    pub fn push(&mut self, scenario: Scenario) -> usize {
        let rank = self.next_rank;
        self.next_rank += 1;
        self.scenarios.push(scenario);
        self.ranks.push(rank);
        rank
    }

    /// Appends every scenario of `other`, re-ranking them to continue this
    /// campaign's rank sequence (campaigns built separately can be chained
    /// into one).
    pub fn append(&mut self, other: Campaign) {
        for scenario in other.scenarios {
            self.push(scenario);
        }
    }

    /// The scenarios, in rank order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The rank of each scenario, parallel to
    /// [`scenarios`](Self::scenarios); strictly increasing.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` if there is nothing to run.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Keeps only the scenarios for which `pred(rank, scenario)` holds,
    /// **without renumbering** the survivors: a retained scenario keeps the
    /// rank it had in the full campaign, so its outcome merges back into
    /// full-run order.
    pub fn retain(&mut self, mut pred: impl FnMut(usize, &Scenario) -> bool) {
        // One precomputed mask drives both vectors so they stay zipped.
        let mask: Vec<bool> = self
            .ranks
            .iter()
            .zip(self.scenarios.iter())
            .map(|(&rank, s)| pred(rank, s))
            .collect();
        let mut it = mask.iter().copied();
        self.scenarios
            .retain(|_| it.next().expect("mask covers all"));
        let mut it = mask.iter().copied();
        self.ranks.retain(|_| it.next().expect("mask covers all"));
    }

    /// Removes every scenario that `store` already holds a matching outcome
    /// for (same campaign `key`, same rank, byte-identical serialized spec)
    /// and returns those stored outcomes, in rank order.
    ///
    /// The spec comparison is what makes resumption safe: an outcome is
    /// only reused if the stored scenario is *exactly* the one this
    /// campaign would run — a store written by an older grid silently
    /// mismatches and the scenario reruns.
    pub fn skip_completed(&mut self, store: &OutcomeStore, key: &str) -> Vec<ScenarioOutcome> {
        let scenarios = std::mem::take(&mut self.scenarios);
        let ranks = std::mem::take(&mut self.ranks);
        let mut reused = Vec::new();
        for (scenario, rank) in scenarios.into_iter().zip(ranks) {
            match store.lookup(key, rank, &scenario) {
                Some(outcome) => reused.push(outcome),
                None => {
                    self.scenarios.push(scenario);
                    self.ranks.push(rank);
                }
            }
        }
        reused
    }

    /// Runs every scenario sequentially, in rank order. Equivalent to
    /// `run_parallel(1)`; kept as the obvious reference implementation the
    /// differential tests compare against.
    pub fn run_sequential(&self) -> Vec<ScenarioOutcome> {
        self.scenarios
            .iter()
            .zip(self.ranks.iter())
            .map(|(s, &rank)| {
                let mut out = s.run();
                out.rank = rank;
                out
            })
            .collect()
    }

    /// Runs the campaign on `threads` OS worker threads (pass `1` to force
    /// the sequential path, `usize::MAX` for one worker per hardware
    /// thread) and returns outcomes **in rank order**.
    ///
    /// Workers steal scenario indexes off a shared atomic counter — the
    /// proven `sweep_matrix` pattern, via [`st_core::parallel`] — so a
    /// worker that drew cheap scenarios (small budgets, early deciders)
    /// loops back for more while a slow one is still grinding. Each
    /// scenario builds its own simulator, generator, and protocol stack
    /// inside the worker; nothing is shared, and the parts are merged in
    /// ascending rank order. **The returned list is therefore identical for
    /// every thread count**, oversubscription included (differential-tested
    /// in `tests/determinism.rs`).
    pub fn run_parallel(&self, threads: usize) -> Vec<ScenarioOutcome> {
        let workers = resolve_workers(threads);
        if workers == 1 || self.scenarios.len() <= 1 {
            return self.run_sequential();
        }
        let parts = steal_chunks(
            self.scenarios.len() as u64,
            workers,
            1,
            || (),
            |_, first, last| {
                debug_assert_eq!(last, first + 1, "scenario chunks are single indexes");
                let idx = first as usize;
                let mut out = self.scenarios[idx].run();
                out.rank = self.ranks[idx];
                out
            },
        );
        parts.into_iter().map(|(_, out)| out).collect()
    }

    /// The resumable drive: reuses every outcome `resume` already holds for
    /// this campaign (under `key`), runs only the remainder on `threads`
    /// workers, and returns the merged outcome list — **byte-identical to
    /// an uninterrupted [`run_parallel`](Self::run_parallel)**, because reused and fresh
    /// outcomes carry their permanent ranks and merge in rank order.
    ///
    /// When `record` is given, every returned outcome (reused and fresh
    /// alike) is recorded into it together with its serialized scenario
    /// spec, in rank order — so the store written by a resumed sweep is
    /// byte-identical to the store an uninterrupted sweep writes.
    pub fn run_resumed(
        &self,
        threads: usize,
        key: &str,
        resume: Option<&OutcomeStore>,
        record: Option<&mut OutcomeStore>,
    ) -> Vec<ScenarioOutcome> {
        let mut pending = self.clone();
        let reused = match resume {
            Some(store) => pending.skip_completed(store, key),
            None => Vec::new(),
        };
        let fresh = pending.run_parallel(threads);
        let merged = merge_outcomes(reused, fresh);
        if let Some(store) = record {
            for out in &merged {
                let idx = self
                    .ranks
                    .binary_search(&out.rank)
                    .expect("merged ranks come from this campaign");
                store.record(key, &self.scenarios[idx], out);
            }
        }
        merged
    }
}

/// What a [`Campaign::run_chunked`] observer tells the drive after each
/// checkpointed chunk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChunkControl {
    /// Keep executing the remaining scenarios.
    Continue,
    /// Stop after this chunk (cancellation, shutdown). Everything recorded
    /// so far stays recorded; a later run resumes from the store.
    Stop,
}

/// What a [`Campaign::run_chunked_fresh`] observer sees after each chunk.
pub struct ChunkReport<'a> {
    /// Everything recorded so far: reused outcomes plus every chunk up to
    /// and including this one.
    pub store: &'a OutcomeStore,
    /// The entries this chunk *executed*, in rank order. A resumed campaign
    /// may have reused any subset of ranks, so these are not "the entries
    /// past the previous count" — they sit wherever their ranks fall in
    /// `store`.
    pub fresh: &'a [&'a StoreEntry],
    /// Scenarios with an outcome so far (reused + executed).
    pub completed: usize,
    /// Scenarios in the campaign.
    pub total: usize,
}

impl Campaign {
    /// Rebuilds a campaign from explicit `(rank, scenario)` pairs — the
    /// inverse of reading [`ranks`](Self::ranks) ×
    /// [`scenarios`](Self::scenarios), used by `st-serve` to reconstruct a
    /// submitted campaign from its wire/persisted spec. Ranks must be
    /// strictly increasing (the invariant every campaign maintains); a
    /// violation is a typed error, never a silently reordered campaign.
    pub fn from_ranked(
        entries: impl IntoIterator<Item = (usize, Scenario)>,
    ) -> Result<Campaign, String> {
        let mut campaign = Campaign::new();
        for (rank, scenario) in entries {
            if let Some(&prev) = campaign.ranks.last() {
                if prev >= rank {
                    return Err(format!(
                        "campaign ranks must be strictly increasing, got {prev} then {rank}"
                    ));
                }
            }
            campaign.scenarios.push(scenario);
            campaign.ranks.push(rank);
            campaign.next_rank = rank + 1;
        }
        Ok(campaign)
    }

    /// The incremental drive behind `st-serve`: like
    /// [`run_resumed`](Self::run_resumed), but executes the pending
    /// scenarios in rank-order chunks of `chunk`, recording into `record`
    /// as it goes and calling `observer` with a [`ChunkReport`] after every
    /// chunk — the daemon's checkpoint-and-cancellation hook.
    ///
    /// Returns the rank-ordered outcomes produced so far and whether the
    /// campaign *finished* (`false` iff the observer returned
    /// [`ChunkControl::Stop`] with scenarios still pending).
    ///
    /// Three properties make this the same sweep as the batch drives:
    ///
    /// - outcomes reused from `resume` are recorded **before** the first
    ///   chunk, so after every observer call `record` holds exactly the
    ///   outcomes completed so far, and the reports' `fresh` entries taken
    ///   together are exactly what `record` holds beyond `resume` — a
    ///   caller that persists `fresh` chunk by chunk always has a valid
    ///   resume point on disk;
    /// - the store inserts in canonical `(campaign, rank)` order, so the
    ///   bytes of `record` after the final chunk are **identical** to what
    ///   [`run_resumed`](Self::run_resumed) records — chunk size, thread
    ///   count, and interrupt history never show in the artifact
    ///   (differential-tested in `tests/chunked.rs`);
    /// - a stopped run resumed from its own checkpoint completes to the
    ///   same bytes as an uninterrupted one.
    ///
    /// When every scenario is already in `resume`, the observer is still
    /// called once (with `completed == total` and nothing fresh) so a
    /// caller that finalizes from the observer always does.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn run_chunked_fresh(
        &self,
        threads: usize,
        key: &str,
        resume: Option<&OutcomeStore>,
        record: &mut OutcomeStore,
        chunk: usize,
        mut observer: impl FnMut(&ChunkReport<'_>) -> ChunkControl,
    ) -> (Vec<ScenarioOutcome>, bool) {
        assert!(chunk > 0, "chunk size must be ≥ 1");
        let total = self.len();
        let mut pending = self.clone();
        let reused = match resume {
            Some(store) => pending.skip_completed(store, key),
            None => Vec::new(),
        };
        let record_one = |record: &mut OutcomeStore, out: &ScenarioOutcome| {
            let idx = self
                .ranks
                .binary_search(&out.rank)
                .expect("chunked ranks come from this campaign");
            record.record(key, &self.scenarios[idx], out);
        };
        for out in &reused {
            record_one(record, out);
        }
        let mut outcomes = reused;
        let mut start = 0usize;
        loop {
            let end = (start + chunk).min(pending.len());
            let part = Campaign {
                scenarios: pending.scenarios[start..end].to_vec(),
                ranks: pending.ranks[start..end].to_vec(),
                next_rank: pending.next_rank,
            };
            let executed = part.run_parallel(threads);
            for out in &executed {
                record_one(record, out);
            }
            let fresh: Vec<&StoreEntry> = executed
                .iter()
                .map(|out| record.entry(key, out.rank).expect("recorded just above"))
                .collect();
            let control = observer(&ChunkReport {
                store: record,
                fresh: &fresh,
                completed: total - (pending.len() - end),
                total,
            });
            outcomes.extend(executed);
            start = end;
            if start >= pending.len() || control == ChunkControl::Stop {
                break;
            }
        }
        outcomes.sort_by_key(|o| o.rank);
        (outcomes, start >= pending.len())
    }

    /// [`run_chunked_fresh`](Self::run_chunked_fresh) for observers that
    /// only look at the store so far: `observer(record, completed, total)`.
    pub fn run_chunked(
        &self,
        threads: usize,
        key: &str,
        resume: Option<&OutcomeStore>,
        record: &mut OutcomeStore,
        chunk: usize,
        mut observer: impl FnMut(&OutcomeStore, usize, usize) -> ChunkControl,
    ) -> (Vec<ScenarioOutcome>, bool) {
        self.run_chunked_fresh(threads, key, resume, record, chunk, |report| {
            observer(report.store, report.completed, report.total)
        })
    }
}

/// Merges two rank-sorted outcome lists into one rank-sorted list (the
/// reassembly step of a resumed or partitioned sweep). Ranks are expected
/// to be disjoint — a campaign never yields the same rank twice.
pub fn merge_outcomes(
    mut reused: Vec<ScenarioOutcome>,
    fresh: Vec<ScenarioOutcome>,
) -> Vec<ScenarioOutcome> {
    reused.extend(fresh);
    reused.sort_by_key(|o| o.rank);
    reused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FdAbi, FdDetector, OutcomeData, StopRule, Workload};
    use st_core::Universe;
    use st_fd::TimeoutPolicy;
    use st_sched::GeneratorSpec;

    fn fd_workload() -> Workload {
        Workload::FdConvergence {
            k: 1,
            t: 1,
            policy: TimeoutPolicy::Increment,
            abi: FdAbi::MachineSlot,
            detector: FdDetector::SetBased,
            certify_membership: false,
        }
    }

    /// Round-robin FD scenarios over `Π_3` at seeds 0–4, ranked 0–4.
    fn seeded_fd_campaign(budget: u64) -> Campaign {
        let u = Universe::new(3).unwrap();
        let mut campaign = Campaign::new();
        for seed in 0..5 {
            campaign.push(Scenario::new(
                format!("w0/RoundRobin/crash0/seed{seed}"),
                u,
                GeneratorSpec::round_robin(),
                fd_workload(),
                budget,
                seed,
            ));
        }
        campaign
    }

    /// One `t = 1` consensus scenario on a 6-timely schedule, with its stop
    /// rule overridden when `stop` is given.
    fn consensus_scenario(stop: Option<StopRule>) -> Scenario {
        let p = st_core::ProcSet::from_indices([0]);
        let q = st_core::ProcSet::from_indices([0, 1, 2]);
        let mut scenario = Scenario::new(
            "w0/SetTimely/crash0/seed8",
            Universe::new(3).unwrap(),
            GeneratorSpec::set_timely(p, q, 6, GeneratorSpec::seeded_random(0)),
            Workload::Agreement {
                t: 1,
                k: 1,
                inputs: vec![10, 20, 30],
                policy: TimeoutPolicy::Increment,
                certify: None,
            },
            400_000,
            8,
        );
        if let Some(stop) = stop {
            scenario.stop = stop;
        }
        scenario
    }

    #[test]
    fn outcomes_come_back_in_rank_order() {
        let campaign = seeded_fd_campaign(2_000);
        let out = campaign.run_parallel(3);
        assert_eq!(out.len(), 5);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.rank, i);
            assert!(matches!(o.data, OutcomeData::Fd(_)));
        }
    }

    #[test]
    fn retain_preserves_ranks_and_push_continues_them() {
        let mut campaign = seeded_fd_campaign(500);
        campaign.retain(|rank, _| rank % 2 == 0);
        assert_eq!(campaign.ranks(), [0, 2, 4]);
        let out = campaign.run_parallel(2);
        let got: Vec<usize> = out.iter().map(|o| o.rank).collect();
        assert_eq!(got, [0, 2, 4], "retained scenarios keep their ranks");
        // A later push continues the original sequence, not the filtered
        // length.
        let rank = campaign.push(campaign.scenarios()[0].clone());
        assert_eq!(rank, 5);
    }

    #[test]
    fn budget_only_override_outlives_the_decision() {
        use st_sim::RunStatus;
        // Default: stops at all-decided.
        let decided = consensus_scenario(None).run();
        let decided = decided.data.as_agreement().unwrap();
        assert_eq!(decided.status, RunStatus::Stopped);
        assert!(decided.clean);
        // BudgetOnly override: same decisions, but the run burns the whole
        // budget past the decision point.
        let full = consensus_scenario(Some(StopRule::BudgetOnly)).run();
        let full = full.data.as_agreement().unwrap();
        assert_eq!(full.status, RunStatus::MaxSteps);
        assert_eq!(full.decisions, decided.decisions);
    }

    #[test]
    fn failed_certification_skips_the_drive() {
        use crate::scenario::CertifyTimely;
        use st_sim::RunStatus;
        let u = Universe::new(3).unwrap();
        let workload = Workload::Agreement {
            t: 1,
            k: 1,
            inputs: vec![1, 2, 3],
            policy: TimeoutPolicy::Increment,
            // cap = 1 on a random schedule: no singleton is 1-timely wrt
            // the whole universe, so certification must fail.
            certify: Some(CertifyTimely {
                i: 1,
                j: 3,
                cap: 1,
                prefix_len: 2_000,
            }),
        };
        let scenario = Scenario::new(
            "uncertified",
            u,
            GeneratorSpec::seeded_random(0),
            workload,
            500_000,
            5,
        );
        let run = scenario.run();
        let run = run.data.as_agreement().unwrap();
        assert_eq!(run.certified, Some(false));
        // Zero-budget drive: the mismatch verdict is known, so the budget
        // is not burned — no process ever stepped.
        assert_eq!(run.status, RunStatus::MaxSteps);
        assert!(run.decisions.iter().all(|d| d.is_none()));
    }
}
