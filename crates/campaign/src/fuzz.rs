//! `st-campaign::fuzz`: a deterministic, resumable, coverage-guided fuzzer
//! over [`GeneratorSpec`] space whose oracle is the always-on
//! [`InvariantChecker`].
//!
//! # How a session works
//!
//! The session grows one [`Campaign`] round by round. Round 0 is the
//! configured seed inputs; every later round is derived *only* from
//! `(corpus so far, master seed, round index)`: an energy scheduler picks
//! parents from the corpus proportional to the novelty they contributed,
//! and a [`SpecMutator`] perturbs the parent's spec (or splices its seed,
//! or flips its workload). Each round executes through
//! [`Campaign::run_resumed`] against the accumulated [`OutcomeStore`], so
//! the engine's existing contract — byte-identical outcomes across any
//! worker count and any interrupt→resume split — carries over to the
//! fuzzer wholesale: batch derivation reads only outcomes, and outcomes
//! are thread-count-independent.
//!
//! # Coverage
//!
//! A [`CoverageMap`] holds feature bits derived from each
//! `(scenario, outcome)` pair: the spec's decorator-stack fingerprint,
//! workload/status, decision-latency and FD-stabilization buckets, which
//! winner sets appeared, which Π sets were exercised *with claims armed*
//! (the empirical analogue of extracting timeliness graphs), flap and
//! decision-count profiles, step-count buckets (the run-length proxy for
//! register op profiles — outcomes carry no per-op counts), and which
//! violation kinds fired. An input enters the corpus iff it contributed at
//! least one new feature; its energy is the number it contributed.
//!
//! The corpus is *not* a separate artifact: it is recomputed from the
//! outcome store's entries, which is why resuming from the store resumes
//! the corpus too.

use std::collections::BTreeSet;

use st_core::Universe;
use st_sched::{GeneratorSpec, SpecMutator, SpecRng};

use crate::campaign::Campaign;
use crate::invariant::InvariantChecker;
use crate::scenario::{OutcomeData, Scenario, ScenarioOutcome, Workload};
use crate::store::OutcomeStore;

// Feature classes (top byte of a feature word). The payload keeps the low
// 56 bits.
const CLASS_FAMILY: u64 = 1;
const CLASS_STATUS: u64 = 2;
const CLASS_LATENCY: u64 = 3;
const CLASS_DECISIONS: u64 = 4;
const CLASS_STABILIZATION: u64 = 5;
const CLASS_WINNERSET: u64 = 6;
const CLASS_FLAPS: u64 = 7;
const CLASS_PI: u64 = 8;
const CLASS_CLAIMS: u64 = 9;
const CLASS_VIOLATION: u64 = 10;
const CLASS_STEPS: u64 = 11;
const CLASS_BG: u64 = 12;
const CLASS_CE_LEN: u64 = 13;

fn feature(class: u64, payload: u64) -> u64 {
    (class << 56) | (payload & ((1 << 56) - 1))
}

/// log2-ish bucket: 0 → 0, otherwise the bit length of `x`.
fn bucket(x: u64) -> u64 {
    if x == 0 {
        0
    } else {
        64 - x.leading_zeros() as u64
    }
}

fn fnv(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for byte in part.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn fnv_str(s: &str) -> u64 {
    fnv(s.bytes().map(|b| b as u64))
}

/// DFS over the spec tree collecting family names — the decorator-stack
/// fingerprint. Beyond the pass-through child it visits the two carried
/// specs: an `Eventually` prefix (before the body) and a `Replay` origin.
fn spec_families(spec: &GeneratorSpec, out: &mut Vec<&'static str>) {
    out.push(spec.family());
    match spec {
        GeneratorSpec::Eventually { prefix, .. } => spec_families(prefix, out),
        GeneratorSpec::Replay { of, .. } => spec_families(of, out),
        _ => {}
    }
    if let Some(child) = spec.child() {
        spec_families(child, out);
    }
}

fn status_tag(status: st_sim::RunStatus) -> u64 {
    match status {
        st_sim::RunStatus::Stopped => 0,
        st_sim::RunStatus::MaxSteps => 1,
        st_sim::RunStatus::SourceEnded => 2,
        st_sim::RunStatus::Stuck(p) => 3 + p.index() as u64,
    }
}

/// The feature bits one `(scenario, outcome)` pair exhibits.
pub fn features(scenario: &Scenario, outcome: &ScenarioOutcome) -> Vec<u64> {
    let mut feats = Vec::new();
    let mut families = Vec::new();
    spec_families(&scenario.generator, &mut families);
    feats.push(feature(
        CLASS_FAMILY,
        fnv(families.iter().map(|f| fnv_str(f))),
    ));
    // Armed claims: which Π sets this input exercises with the checker
    // watching, and whether termination/windows are owed at all.
    let checker = InvariantChecker::for_scenario(scenario);
    if let Some(g) = checker.guarantee() {
        feats.push(feature(
            CLASS_PI,
            (g.p.bits() << 20) | (g.q.bits() << 4) | bucket(g.bound as u64),
        ));
    }
    feats.push(feature(
        CLASS_CLAIMS,
        (checker.termination_owed() as u64) << 8 | bucket(checker.window_count() as u64),
    ));
    let workload_tag = match &scenario.workload {
        Workload::FdConvergence { .. } => 0u64,
        Workload::Agreement { .. } => 1,
        Workload::AdversarialAgreement { .. } => 2,
        Workload::BgReduction { .. } => 3,
        Workload::LeanConvergence { .. } => 4,
        Workload::LeanAgreement { .. } => 5,
        Workload::WideFdConvergence { .. } => 6,
    };
    match &outcome.data {
        OutcomeData::Fd(fd) => {
            feats.push(feature(
                CLASS_STATUS,
                (workload_tag << 8) | status_tag(fd.status),
            ));
            feats.push(feature(CLASS_STEPS, (workload_tag << 8) | bucket(fd.steps)));
            match &fd.stabilization {
                Some(st) => {
                    feats.push(feature(CLASS_STABILIZATION, 1 << 8 | bucket(st.step)));
                    feats.push(feature(CLASS_WINNERSET, st.winnerset.bits()));
                }
                None => feats.push(feature(CLASS_STABILIZATION, 0)),
            }
            feats.push(feature(CLASS_FLAPS, bucket(fd.late_flaps as u64)));
        }
        OutcomeData::Agreement(a) => {
            feats.push(feature(
                CLASS_STATUS,
                (workload_tag << 8) | status_tag(a.status),
            ));
            // Decision-latency histogram bucket; undecided is its own bin.
            feats.push(feature(
                CLASS_LATENCY,
                match a.decided_at {
                    Some(step) => 1 << 8 | bucket(step),
                    None => 0,
                },
            ));
            feats.push(feature(
                CLASS_DECISIONS,
                (a.distinct_decisions() as u64) << 8 | a.decided_count() as u64,
            ));
        }
        OutcomeData::Adversarial(a) => {
            feats.push(feature(
                CLASS_STATUS,
                (workload_tag << 8) | status_tag(a.status),
            ));
            feats.push(feature(
                CLASS_DECISIONS,
                (a.blocked as u64) << 8 | a.decided as u64,
            ));
        }
        OutcomeData::Bg(b) => {
            feats.push(feature(
                CLASS_STATUS,
                (workload_tag << 8) | status_tag(b.status),
            ));
            feats.push(feature(
                CLASS_BG,
                (b.stalled.bits() << 16) | bucket(b.max_live_bound as u64),
            ));
        }
        OutcomeData::Lean(l) => {
            feats.push(feature(
                CLASS_STATUS,
                (workload_tag << 8) | status_tag(l.status),
            ));
            match &l.stabilization {
                Some(st) => {
                    feats.push(feature(
                        CLASS_STABILIZATION,
                        1 << 8 | (st.leader as u64) << 16 | bucket(st.step),
                    ));
                }
                None => feats.push(feature(CLASS_STABILIZATION, 0)),
            }
            feats.push(feature(CLASS_FLAPS, bucket(l.late_flaps as u64)));
            feats.push(feature(
                CLASS_DECISIONS,
                (l.distinct_values.len() as u64) << 8 | l.decided as u64,
            ));
        }
        OutcomeData::WideFd(w) => {
            feats.push(feature(
                CLASS_STATUS,
                (workload_tag << 8) | status_tag(w.status),
            ));
            feats.push(feature(CLASS_STEPS, (workload_tag << 8) | bucket(w.steps)));
            match &w.stabilization {
                Some(st) => {
                    feats.push(feature(CLASS_STABILIZATION, 1 << 8 | bucket(st.step)));
                    feats.push(feature(CLASS_WINNERSET, st.winnerset_code));
                }
                None => feats.push(feature(CLASS_STABILIZATION, 0)),
            }
            feats.push(feature(CLASS_FLAPS, bucket(w.late_flaps as u64)));
        }
    }
    for v in &outcome.violations {
        feats.push(feature(CLASS_VIOLATION, fnv_str(v.kind())));
    }
    if let Some(ce) = &outcome.counterexample {
        feats.push(feature(CLASS_CE_LEN, bucket(ce.len() as u64)));
    }
    feats
}

/// The set of feature bits a fuzz session has exhibited so far.
#[derive(Clone, Default, Debug)]
pub struct CoverageMap {
    seen: BTreeSet<u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap::default()
    }

    /// Distinct features seen.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// `true` before anything is observed.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Records `feats`; returns how many were new.
    pub fn observe(&mut self, feats: &[u64]) -> usize {
        feats.iter().filter(|&&f| self.seen.insert(f)).count()
    }
}

/// One fuzzable input: a spec, a workload (as an index into
/// [`FuzzConfig::workloads`]), and a scenario seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzInput {
    /// The generator spec (the mutation substrate).
    pub spec: GeneratorSpec,
    /// Index into the session's workload table.
    pub workload: usize,
    /// The scenario seed.
    pub seed: u64,
}

/// A corpus entry: an input that contributed novel coverage, with the
/// novelty count as its scheduling energy.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The campaign rank of the scenario that earned the entry.
    pub rank: usize,
    /// The input.
    pub input: FuzzInput,
    /// Novel features contributed (≥ 1; the energy weight).
    pub novelty: usize,
}

/// An invariant violation the fuzzer found.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The campaign rank of the violating scenario.
    pub rank: usize,
    /// The violating scenario (re-runnable).
    pub scenario: Scenario,
    /// Its outcome, violations and counterexample included.
    pub outcome: ScenarioOutcome,
}

/// Configuration of a fuzz session.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// The campaign key outcomes are recorded under.
    pub key: String,
    /// The process universe.
    pub universe: Universe,
    /// The workload table [`FuzzInput::workload`] indexes into.
    pub workloads: Vec<Workload>,
    /// Round-0 inputs (need not be violation-free, but the interesting
    /// sessions start from clean seeds and let mutation find trouble).
    pub seeds: Vec<FuzzInput>,
    /// The master seed every round's mutation RNG derives from.
    pub master_seed: u64,
    /// Total scenario budget for the session.
    pub budget: usize,
    /// Scenarios per round (the unit of corpus feedback).
    pub batch: usize,
    /// Per-scenario step budget.
    pub step_budget: u64,
    /// Worker threads (outcomes are identical for every value).
    pub threads: usize,
    /// Stop at the end of the first round that produced a finding.
    pub stop_on_finding: bool,
}

/// What a fuzz session produced.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Scenarios executed (≤ budget; < only with `stop_on_finding`).
    pub executed: usize,
    /// Rounds run.
    pub rounds: usize,
    /// Distinct coverage features exhibited.
    pub coverage: usize,
    /// The corpus, in rank order.
    pub corpus: Vec<CorpusEntry>,
    /// Every invariant violation found, in rank order.
    pub findings: Vec<Finding>,
}

/// A deterministic, resumable, coverage-guided fuzz session. See the
/// module docs for the determinism argument.
pub struct FuzzSession {
    cfg: FuzzConfig,
    mutator: SpecMutator,
}

impl FuzzSession {
    /// A session over `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is vacuous: no seeds, no workloads, a
    /// zero batch, an out-of-range seed workload index, or a budget too
    /// small to run every seed — or when the universe is wider than the
    /// spec mutator takes ([`SpecMutator::new`]).
    pub fn new(cfg: FuzzConfig) -> Self {
        assert!(!cfg.workloads.is_empty(), "fuzz session needs workloads");
        assert!(!cfg.seeds.is_empty(), "fuzz session needs seed inputs");
        assert!(cfg.batch >= 1, "fuzz batch must be at least 1");
        assert!(
            cfg.budget >= cfg.seeds.len(),
            "fuzz budget smaller than the seed set"
        );
        assert!(
            cfg.seeds.iter().all(|s| s.workload < cfg.workloads.len()),
            "seed workload index out of range"
        );
        let mutator = SpecMutator::new(cfg.universe);
        FuzzSession { cfg, mutator }
    }

    fn scenario_for(&self, round: usize, slot: usize, input: &FuzzInput) -> Scenario {
        Scenario::new(
            format!("fuzz/r{round}/s{slot}/{}", input.spec.family()),
            self.cfg.universe,
            input.spec.clone(),
            self.cfg.workloads[input.workload].clone(),
            self.cfg.step_budget,
            input.seed,
        )
    }

    /// Derives round `round`'s inputs from the corpus: energy-weighted
    /// parent choice, then one mutation (spec perturbation, seed splice, or
    /// workload flip). Pure in `(corpus, master_seed, round)`.
    fn derive(
        &self,
        mutator: &SpecMutator,
        corpus: &[CorpusEntry],
        round: usize,
    ) -> Vec<FuzzInput> {
        let mut rng = SpecRng::new(
            self.cfg
                .master_seed
                .wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let total: u64 = corpus.iter().map(|e| e.novelty as u64).sum();
        (0..self.cfg.batch)
            .map(|_| {
                let mut pick = rng.below(total);
                let parent = corpus
                    .iter()
                    .find(|e| {
                        if pick < e.novelty as u64 {
                            true
                        } else {
                            pick -= e.novelty as u64;
                            false
                        }
                    })
                    .unwrap_or_else(|| corpus.last().expect("corpus non-empty"));
                let mut input = parent.input.clone();
                match rng.below(8) {
                    0 => input.seed = input.seed.wrapping_add(rng.next_u64() >> 32),
                    1 if self.cfg.workloads.len() > 1 => {
                        input.workload = rng.below(self.cfg.workloads.len() as u64) as usize;
                    }
                    _ => input.spec = mutator.mutate(&input.spec, &mut rng),
                }
                input
            })
            .collect()
    }

    /// Runs the session. `resume` seeds the accumulated outcome store (an
    /// interrupted session's store resumes both outcomes and corpus);
    /// `record`, when given, receives the final store. Returns the report.
    pub fn run(
        &self,
        resume: Option<&OutcomeStore>,
        record: Option<&mut OutcomeStore>,
    ) -> FuzzReport {
        let cfg = &self.cfg;
        let mut acc = resume.cloned().unwrap_or_default();
        let mut campaign = Campaign::new();
        let mut coverage = CoverageMap::new();
        let mut corpus: Vec<CorpusEntry> = Vec::new();
        let mut findings: Vec<Finding> = Vec::new();
        let mut round = 0usize;
        while campaign.len() < cfg.budget {
            let slots = cfg.batch.min(cfg.budget - campaign.len());
            let inputs: Vec<FuzzInput> = if round == 0 {
                cfg.seeds.clone()
            } else {
                self.derive(&self.mutator, &corpus, round)
                    .into_iter()
                    .take(slots)
                    .collect()
            };
            let start = campaign.len();
            for (slot, input) in inputs.iter().enumerate() {
                campaign.push(self.scenario_for(round, slot, input));
            }
            let snapshot = acc.clone();
            let outcomes =
                campaign.run_resumed(cfg.threads, &cfg.key, Some(&snapshot), Some(&mut acc));
            for (i, outcome) in outcomes.iter().enumerate().skip(start) {
                let scenario = &campaign.scenarios()[i];
                let novelty = coverage.observe(&features(scenario, outcome));
                if novelty > 0 {
                    corpus.push(CorpusEntry {
                        rank: outcome.rank,
                        input: inputs[i - start].clone(),
                        novelty,
                    });
                }
                if !outcome.violations.is_empty() {
                    findings.push(Finding {
                        rank: outcome.rank,
                        scenario: scenario.clone(),
                        outcome: outcome.clone(),
                    });
                }
            }
            round += 1;
            if cfg.stop_on_finding && !findings.is_empty() {
                break;
            }
        }
        if let Some(store) = record {
            *store = acc;
        }
        FuzzReport {
            executed: campaign.len(),
            rounds: round,
            coverage: coverage.len(),
            corpus,
            findings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::ProcSet;
    use st_fd::TimeoutPolicy;

    use crate::scenario::{FdAbi, FdDetector};

    fn config(threads: usize, budget: usize) -> FuzzConfig {
        let universe = Universe::new(4).unwrap();
        let p = ProcSet::from_indices([0, 1]);
        let q = ProcSet::from_indices([0, 1, 2]);
        let spec = GeneratorSpec::set_timely(p, q, 4, GeneratorSpec::seeded_random(0));
        FuzzConfig {
            key: "fuzz-test".into(),
            universe,
            workloads: vec![
                Workload::FdConvergence {
                    k: 1,
                    t: 1,
                    policy: TimeoutPolicy::Increment,
                    abi: FdAbi::MachineSlot,
                    detector: FdDetector::SetBased,
                    certify_membership: false,
                },
                Workload::Agreement {
                    t: 1,
                    k: 1,
                    inputs: vec![10, 17, 24, 31],
                    policy: TimeoutPolicy::Increment,
                    certify: None,
                },
            ],
            seeds: vec![
                FuzzInput {
                    spec: spec.clone(),
                    workload: 0,
                    seed: 0xE1AC_5EED,
                },
                FuzzInput {
                    spec,
                    workload: 1,
                    seed: 0xE1AC_5EED,
                },
            ],
            master_seed: 0xF00D,
            budget,
            batch: 4,
            step_budget: 20_000,
            threads,
            stop_on_finding: false,
        }
    }

    /// Coverage features distinguish specs and outcomes but are a pure
    /// function of both.
    #[test]
    fn features_are_pure_and_discriminating() {
        let cfg = config(1, 8);
        let session = FuzzSession::new(cfg.clone());
        let a = session.scenario_for(0, 0, &cfg.seeds[0]);
        let b = session.scenario_for(0, 1, &cfg.seeds[1]);
        let oa = a.run();
        let ob = b.run();
        assert_eq!(features(&a, &oa), features(&a, &oa));
        assert_ne!(features(&a, &oa), features(&b, &ob));
        let mut map = CoverageMap::new();
        let f = features(&a, &oa);
        assert_eq!(map.observe(&f), map.len());
        assert_eq!(map.observe(&f), 0);
    }

    /// The corpus grows past the seeds and coverage strictly dominates a
    /// re-run of the same inputs.
    #[test]
    fn session_accumulates_corpus_and_coverage() {
        let report = FuzzSession::new(config(1, 16)).run(None, None);
        assert_eq!(report.executed, 16);
        assert!(report.corpus.len() >= 2, "seeds must enter the corpus");
        assert!(report.coverage > 0);
        assert!(report.rounds >= 2);
    }

    /// Byte-identical stores across worker counts.
    #[test]
    fn session_is_thread_count_independent() {
        let run = |threads: usize| {
            let mut store = OutcomeStore::new();
            let report = FuzzSession::new(config(threads, 12)).run(None, Some(&mut store));
            (store.to_json_string(), report.executed)
        };
        let (one, n1) = run(1);
        let (four, n4) = run(4);
        let (many, n33) = run(33);
        assert_eq!(one, four);
        assert_eq!(one, many);
        assert_eq!(n1, n4);
        assert_eq!(n1, n33);
    }

    /// Byte-identical stores across an interrupt→resume split: truncate
    /// the store mid-session, resume, compare.
    #[test]
    fn session_resumes_byte_identically() {
        let cfg = config(2, 12);
        let mut full = OutcomeStore::new();
        FuzzSession::new(cfg.clone()).run(None, Some(&mut full));
        // Simulate an interrupt: keep only even-index entries.
        let mut truncated = full.clone();
        truncated.retain(|i, _| i % 2 == 0);
        let mut resumed = OutcomeStore::new();
        FuzzSession::new(cfg).run(Some(&truncated), Some(&mut resumed));
        assert_eq!(resumed.to_json_string(), full.to_json_string());
    }
}
