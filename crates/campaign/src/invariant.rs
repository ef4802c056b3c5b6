//! The always-on invariant checker: every scenario execution is a
//! correctness probe, not just a table row.
//!
//! [`Scenario::run`](crate::Scenario::run) assembles an [`InvariantChecker`]
//! from the scenario's own spec — which timeliness guarantee the generator
//! makes by construction, which crash/outage windows it promises — and
//! holds the run to it. The claims about the executed schedule are
//! **watched, not replayed**: the checker hands out a `ScheduleWatch` that
//! the drive feeds every step it executes (block by block on the fleets, one
//! pull at a time elsewhere), so no run keeps its schedule to be certified —
//! the watch's whole state is a few counters per claim. The rest of the
//! evidence is read off the finished run: the agreement checker's verdicts,
//! the Paxos ballot registers, and the FD stabilization judgment.
//! Violations land in
//! [`ScenarioOutcome::violations`](crate::ScenarioOutcome) as typed values
//! the store codec round-trips. When any fire — and only then — the
//! counterexample is **rebuilt**: the executed schedule is a pure function
//! of (generator spec, seed, steps executed), so the scenario regenerates
//! exactly the prefix the watch saw.
//!
//! What is armed for which workload:
//!
//! - **Agreement** — k-agreement (≤ k distinct values), validity, and
//!   termination-under-budget lifted from the `st-core` outcome checker
//!   (termination only when the generator *owes* it: a root
//!   [`SetTimely`](st_sched::SetTimely) spec with a surviving `P` member
//!   and no failed pre-run certification); ballot-ownership sanity on every
//!   Paxos register (`b ≡ pid + 1 (mod n)`, `bal ≤ mbal`); guarantee and
//!   crash-window certification on the executed schedule.
//! - **FdConvergence** — accusation sanity: a stabilized winnerset must
//!   contain a correct process (all-correct-accused-forever contradicts
//!   Lemma 22); guarantee and crash-window certification as above.
//! - **Lean / WideFd fleets** — leader sanity (a stabilized leader must be
//!   correct), consensus agreement with the same ballot-ownership sanity on
//!   the one Paxos instance, and accusation sanity at any width; guarantee
//!   and crash-window certification as above, with a process a `ProcSet`
//!   cannot name (index ≥ 64) counted in neither `P` nor `Q`.
//! - **Adversarial / BG** — nothing: the adversary *aims* for
//!   non-termination and owns its schedule, and the BG reduction does not
//!   expose an executed host schedule; their existing verdict fields
//!   (`safe`, `blocked`, certificates) already carry the judgment.

use std::fmt;

use st_agreement::PaxosRecord;
use st_core::timeliness::PairBound;
use st_core::{AgreementViolation, ProcSet, ProcessId, TimelyPair, Value, PROCSET_CAPACITY};
use st_sched::GeneratorSpec;

use crate::scenario::{OutcomeData, Scenario, Workload};

/// A violated invariant, as typed data. Canonical-JSON encodable by the
/// outcome store; `Display` renders the CLI's one-line form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InvariantViolation {
    /// More than `k` distinct values decided.
    KAgreement {
        /// The distinct decided values.
        values: Vec<Value>,
        /// Maximum allowed count `k`.
        k: usize,
    },
    /// A process decided a value nobody proposed.
    Validity {
        /// Index of the deciding process.
        process: usize,
        /// The invalid decided value.
        value: Value,
    },
    /// A correct process failed to decide although the generator's
    /// constructive guarantee owed termination within the budget.
    Termination {
        /// Indexes of correct processes that did not decide.
        undecided: Vec<usize>,
    },
    /// A Paxos register held a ballot its owner could not have produced
    /// (`ballot(round, me) = round·n + me + 1`), or an accepted ballot above
    /// the promised one.
    BallotOwnership {
        /// The k-parallel Paxos instance.
        instance: usize,
        /// The register's owning process.
        process: usize,
        /// The register's promised ballot.
        mbal: u64,
        /// The register's accepted ballot.
        bal: u64,
    },
    /// The FD stabilized on a winnerset containing no correct process —
    /// every process that was timely throughout ended up accused forever.
    AccusedTimelyWinnerset {
        /// The stabilized winnerset.
        winnerset: ProcSet,
    },
    /// The executed schedule broke the timeliness bound the generator
    /// guarantees by construction.
    GuaranteeBroken {
        /// The guaranteed timely set.
        p: ProcSet,
        /// The observed set.
        q: ProcSet,
        /// The guaranteed bound.
        bound: usize,
        /// The observed empirical bound.
        observed: usize,
    },
    /// A process took a step inside a window its generator promised it
    /// silent in (crash window, or crash-recovery outage window).
    CrashWindowResurrection {
        /// The resurrected process.
        process: usize,
        /// The offending schedule position.
        position: u64,
    },
    /// The lean FD stabilized on a leader the generator silenced — every
    /// correct process trusts a faulty one forever (the large-n analogue of
    /// [`AccusedTimelyWinnerset`](Self::AccusedTimelyWinnerset)).
    FaultyLeaderElected {
        /// The stabilized faulty leader index.
        leader: usize,
    },
}

impl InvariantViolation {
    /// The variant name — the shrinker's preservation key (a candidate is
    /// accepted only if the *same kind* of violation still fires) and the
    /// coverage map's violation feature.
    pub fn kind(&self) -> &'static str {
        match self {
            InvariantViolation::KAgreement { .. } => "KAgreement",
            InvariantViolation::Validity { .. } => "Validity",
            InvariantViolation::Termination { .. } => "Termination",
            InvariantViolation::BallotOwnership { .. } => "BallotOwnership",
            InvariantViolation::AccusedTimelyWinnerset { .. } => "AccusedTimelyWinnerset",
            InvariantViolation::GuaranteeBroken { .. } => "GuaranteeBroken",
            InvariantViolation::CrashWindowResurrection { .. } => "CrashWindowResurrection",
            InvariantViolation::FaultyLeaderElected { .. } => "FaultyLeaderElected",
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::KAgreement { values, k } => write!(
                f,
                "k-agreement violated: {} distinct values (k = {k})",
                values.len()
            ),
            InvariantViolation::Validity { process, value } => {
                write!(f, "validity violated: p{process} decided unproposed {value}")
            }
            InvariantViolation::Termination { undecided } => write!(
                f,
                "termination violated: {} correct processes undecided under a guaranteed-timely schedule",
                undecided.len()
            ),
            InvariantViolation::BallotOwnership {
                instance,
                process,
                mbal,
                bal,
            } => write!(
                f,
                "ballot ownership violated: instance {instance} register of p{process} holds mbal {mbal} / bal {bal}"
            ),
            InvariantViolation::AccusedTimelyWinnerset { winnerset } => write!(
                f,
                "accusation sanity violated: stabilized winnerset {winnerset} contains no correct process"
            ),
            InvariantViolation::GuaranteeBroken {
                p,
                q,
                bound,
                observed,
            } => write!(
                f,
                "schedule guarantee broken: {p} wrt {q} bound {bound}, observed {observed}"
            ),
            InvariantViolation::CrashWindowResurrection { process, position } => write!(
                f,
                "crash window violated: p{process} stepped at position {position}"
            ),
            InvariantViolation::FaultyLeaderElected { leader } => write!(
                f,
                "leader sanity violated: lean FD stabilized on faulty leader p{leader}"
            ),
        }
    }
}

/// Per-instance Paxos registers `(n, records[instance][process])` an
/// agreement stack exposes to the ballot-ownership check.
pub(crate) type Ballots = (usize, Vec<Vec<PaxosRecord>>);

/// A run's schedule claims, certified online: the drive feeds the watch
/// every step it executes, in order, and the watch keeps O(1) state per
/// claim — for the armed guarantee a [`PairBound`] (what
/// [`empirical_bound`] scans a whole schedule for), for each absence window
/// the first position its process stepped inside it (what
/// [`certify_absence_window`] returns). Handed out by
/// [`InvariantChecker::watch`]; its verdicts are appended by
/// [`InvariantChecker::check`].
///
/// [`empirical_bound`]: st_core::timeliness::empirical_bound
/// [`certify_absence_window`]: st_sched::validate::certify_absence_window
pub(crate) struct ScheduleWatch {
    /// Steps fed so far: the length of the executed schedule.
    seen: u64,
    guarantee: Option<GuaranteeWatch>,
    windows: Vec<WindowWatch>,
}

struct GuaranteeWatch {
    /// The bound the generator guarantees.
    bound: usize,
    /// The pair's bound on the steps fed so far.
    observed: PairBound,
}

struct WindowWatch {
    process: ProcessId,
    from: u64,
    to: u64,
    /// First position in `[from, to)` at which `process` stepped.
    offence: Option<u64>,
}

impl ScheduleWatch {
    fn new(guarantee: Option<TimelyPair>, windows: &[(ProcessId, u64, u64)]) -> Self {
        ScheduleWatch {
            seen: 0,
            guarantee: guarantee.map(|pair| GuaranteeWatch {
                bound: pair.bound,
                observed: PairBound::new(pair.p, pair.q),
            }),
            windows: windows
                .iter()
                .map(|&(process, from, to)| WindowWatch {
                    process,
                    from,
                    to,
                    offence: None,
                })
                .collect(),
        }
    }

    /// Feeds the next executed steps, in schedule order — the fleets' entry,
    /// a 64 Ki-step block at a time.
    pub(crate) fn observe(&mut self, steps: &[ProcessId]) {
        if let Some(g) = &mut self.guarantee {
            g.observed.observe(steps);
        }
        self.observe_windows(steps);
        self.seen += steps.len() as u64;
    }

    /// [`observe`](Self::observe) for one step — the entry of the runs that
    /// pull their schedule a step at a time (see
    /// [`PairBound::observe_step`]).
    #[inline]
    pub(crate) fn observe_step(&mut self, step: ProcessId) {
        if let Some(g) = &mut self.guarantee {
            g.observed.observe_step(step);
        }
        if !self.windows.is_empty() {
            self.observe_windows(&[step]);
        }
        self.seen += 1;
    }

    /// Holds `steps`, the schedule's positions from `self.seen` on, against
    /// the absence windows.
    fn observe_windows(&mut self, steps: &[ProcessId]) {
        let end = self.seen + steps.len() as u64;
        for w in &mut self.windows {
            if w.offence.is_some() || end <= w.from || w.to <= self.seen {
                continue;
            }
            // The part of `steps` inside the window, as offsets.
            let lo = w.from.saturating_sub(self.seen) as usize;
            let hi = (w.to.min(end) - self.seen) as usize;
            if let Some(at) = steps[lo..hi].iter().position(|&step| step == w.process) {
                w.offence = Some(self.seen + (lo + at) as u64);
            }
        }
    }

    /// Steps fed so far — how much schedule the run executed.
    pub(crate) fn steps_seen(&self) -> u64 {
        self.seen
    }

    /// The claims the fed schedule broke: the guarantee first, then the
    /// windows in spec order.
    fn verdicts(&self, violations: &mut Vec<InvariantViolation>) {
        if let Some(g) = &self.guarantee {
            let TimelyPair {
                p,
                q,
                bound: observed,
            } = g.observed.pair();
            if observed > g.bound {
                violations.push(InvariantViolation::GuaranteeBroken {
                    p,
                    q,
                    bound: g.bound,
                    observed,
                });
            }
        }
        for w in &self.windows {
            if let Some(position) = w.offence {
                violations.push(InvariantViolation::CrashWindowResurrection {
                    process: w.process.index(),
                    position,
                });
            }
        }
    }
}

/// The claims a scenario's generator makes by construction, ready to be
/// held against a run. Built by
/// [`InvariantChecker::for_scenario`]; see the module docs for the rules.
pub struct InvariantChecker {
    /// Root-level `SetTimely` guarantee, when it survives the faulty set.
    guarantee: Option<TimelyPair>,
    /// `(process, from, to)` absence windows (`to = u64::MAX` for plain
    /// crashes).
    windows: Vec<(ProcessId, u64, u64)>,
    /// The scenario's faulty set (accusation- and leader-sanity yardstick;
    /// the *faulty* side is held because its complement is not
    /// representable as a `ProcSet` in large-n universes).
    faulty: ProcSet,
}

impl InvariantChecker {
    /// Derives the checkable claims from the scenario's spec.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        // Only generator-driven workloads execute the spec's schedule; the
        // adversary ignores the generator and BG re-linearizes it. The
        // fleet workloads execute the generated schedule verbatim.
        let generator_drives = matches!(
            scenario.workload,
            Workload::FdConvergence { .. }
                | Workload::Agreement { .. }
                | Workload::LeanConvergence { .. }
                | Workload::LeanAgreement { .. }
                | Workload::WideFdConvergence { .. }
        );
        let (guarantee, windows) = if generator_drives {
            (
                spec_guarantee(&scenario.generator, scenario.faulty),
                spec_windows(&scenario.generator),
            )
        } else {
            (None, Vec::new())
        };
        InvariantChecker {
            guarantee,
            windows,
            faulty: scenario.faulty,
        }
    }

    /// Whether the generator owes termination-under-budget: a constructive
    /// timeliness guarantee makes the task solvable on this schedule, so a
    /// correct process left undecided is a protocol bug, not an artifact.
    pub fn termination_owed(&self) -> bool {
        self.guarantee.is_some()
    }

    /// The armed root guarantee, if any (coverage feature: which Π sets a
    /// fuzz scenario exercises with claims attached).
    pub fn guarantee(&self) -> Option<TimelyPair> {
        self.guarantee
    }

    /// How many absence windows are armed.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// A fresh watch armed with this checker's schedule claims, for the
    /// drive to feed while it runs.
    pub(crate) fn watch(&self) -> ScheduleWatch {
        ScheduleWatch::new(self.guarantee, &self.windows)
    }

    /// Judges the finished run: the outcome's own evidence, `ballots` when
    /// the stack exposed its Paxos registers, then what `watch` — fed the
    /// whole executed schedule — found of the schedule claims.
    pub(crate) fn check(
        &self,
        data: &OutcomeData,
        ballots: Option<&Ballots>,
        watch: &ScheduleWatch,
    ) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        match data {
            OutcomeData::Agreement(a) => {
                // A failed pre-run certification means the schedule was
                // never shown to conform; the drive is skipped and no
                // obligation is owed.
                let certified_off = a.certified == Some(false);
                for v in &a.violations {
                    match v {
                        AgreementViolation::KAgreement { values, k } => {
                            violations.push(InvariantViolation::KAgreement {
                                values: values.clone(),
                                k: *k,
                            });
                        }
                        AgreementViolation::Validity { process, value } => {
                            violations.push(InvariantViolation::Validity {
                                process: *process,
                                value: *value,
                            });
                        }
                        AgreementViolation::Termination { undecided } => {
                            if self.termination_owed() && !certified_off {
                                violations.push(InvariantViolation::Termination {
                                    undecided: undecided.clone(),
                                });
                            }
                        }
                    }
                }
                if let Some((n, instances)) = ballots {
                    check_ballots(*n, instances, &mut violations);
                }
            }
            OutcomeData::Fd(f) => {
                // Accusation sanity: a stabilized winnerset entirely inside
                // the faulty set (i.e. disjoint from the correct set) means
                // every process that was timely throughout ended up accused
                // forever — the opposite of what Lemma 22 promises.
                if let Some(st) = &f.stabilization {
                    if st.winnerset.is_subset(self.faulty) {
                        violations.push(InvariantViolation::AccusedTimelyWinnerset {
                            winnerset: st.winnerset,
                        });
                    }
                }
            }
            OutcomeData::Lean(l) => {
                // Leader sanity: a stabilized leader the generator silenced
                // means every correct process trusts a faulty one forever.
                // Faulty sets only name indices below the ProcSet capacity,
                // so a larger leader index is trivially correct.
                if let Some(st) = &l.stabilization {
                    if st.leader < PROCSET_CAPACITY
                        && self.faulty.contains(ProcessId::new(st.leader))
                    {
                        violations
                            .push(InvariantViolation::FaultyLeaderElected { leader: st.leader });
                    }
                }
                // Consensus (k = 1) agreement: ≤ 1 distinct decided value.
                if l.distinct_values.len() > 1 {
                    violations.push(InvariantViolation::KAgreement {
                        values: l.distinct_values.clone(),
                        k: 1,
                    });
                }
                if let Some((n, instances)) = ballots {
                    check_ballots(*n, instances, &mut violations);
                }
            }
            OutcomeData::WideFd(w) => {
                // Accusation sanity at any width: members at or above the
                // ProcSet capacity are trivially correct (faulty sets cannot
                // name them), so the violation fires only when every member
                // is both nameable and faulty — in which case the winnerset
                // fits in a ProcSet and reuses the narrow violation.
                if let Some(st) = &w.stabilization {
                    let all_faulty = !st.members.is_empty()
                        && st.members.iter().all(|&m| {
                            m < PROCSET_CAPACITY && self.faulty.contains(ProcessId::new(m))
                        });
                    if all_faulty {
                        violations.push(InvariantViolation::AccusedTimelyWinnerset {
                            winnerset: ProcSet::from_indices(st.members.iter().copied()),
                        });
                    }
                }
            }
            OutcomeData::Adversarial(_) | OutcomeData::Bg(_) => {}
        }
        watch.verdicts(&mut violations);
        violations
    }
}

fn check_ballots(
    n: usize,
    instances: &[Vec<PaxosRecord>],
    violations: &mut Vec<InvariantViolation>,
) {
    for (instance, records) in instances.iter().enumerate() {
        for (process, rec) in records.iter().enumerate() {
            // `ballot(round, me) = round·n + me + 1` ⇒ every ballot in the
            // register of process `me` is ≡ me + 1 (mod n); 0 means "none".
            let owned = |b: u64| b == 0 || b % n as u64 == ((process + 1) % n) as u64;
            if !owned(rec.mbal) || !owned(rec.bal) || rec.bal > rec.mbal {
                violations.push(InvariantViolation::BallotOwnership {
                    instance,
                    process,
                    mbal: rec.mbal,
                    bal: rec.bal,
                });
            }
        }
    }
}

/// The timeliness guarantee a spec's *root* makes constructively: a
/// [`SetTimely`](st_sched::SetTimely) root enforces its bound on every
/// emitted prefix as long as some `P` member survives the faulty set.
/// Decorated or non-conforming roots guarantee nothing unconditionally —
/// flapping suspends enforcement, gray/clog change emitted positions, and
/// random/rotation schedules only have empirical bounds.
fn spec_guarantee(spec: &GeneratorSpec, faulty: ProcSet) -> Option<TimelyPair> {
    match spec {
        GeneratorSpec::SetTimely { p, q, bound, .. } if !p.is_subset(faulty) => Some(TimelyPair {
            p: *p,
            q: *q,
            bound: *bound,
        }),
        // A replay stands in for the run that produced its schedule: it
        // inherits the carried spec's claims, which is what keeps the
        // shrinker's oracle armed on truncated schedules.
        GeneratorSpec::Replay { of, .. } => spec_guarantee(of, faulty),
        _ => None,
    }
}

/// The absence windows a spec's *root* promises about emitted positions.
/// Only root-level [`CrashAfter`](st_sched::CrashAfter) and
/// [`CrashRecovery`](st_sched::CrashRecovery) count: their emitted-step
/// clocks coincide with output positions, whereas nested plans (e.g. a
/// crash-filtered `SetTimely` filler) count inner positions that injections
/// shift.
fn spec_windows(spec: &GeneratorSpec) -> Vec<(ProcessId, u64, u64)> {
    match spec {
        GeneratorSpec::CrashAfter { plan, .. } => plan
            .entries()
            .map(|(p, step)| (p, step, u64::MAX))
            .collect(),
        GeneratorSpec::CrashRecovery {
            victim,
            crash,
            rejoin,
            ..
        } => vec![(*victim, *crash, *rejoin)],
        GeneratorSpec::Replay { of, .. } => spec_windows(of),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use st_core::timeliness::empirical_bound;
    use st_core::Schedule;
    use st_sched::validate::certify_absence_window;

    /// What the offline certifiers make of the whole schedule — the oracle
    /// the watch replaces. `empirical_bound` cannot be shown a step a
    /// `ProcSet` cannot name; such steps are in neither set, so dropping
    /// them leaves every `P`-free `Q`-run as it was.
    fn offline(
        s: &Schedule,
        guarantee: Option<TimelyPair>,
        windows: &[(ProcessId, u64, u64)],
    ) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        if let Some(g) = guarantee {
            let nameable: Schedule = s.iter().filter(|p| p.index() < PROCSET_CAPACITY).collect();
            let observed = empirical_bound(&nameable, g.p, g.q);
            if observed > g.bound {
                violations.push(InvariantViolation::GuaranteeBroken {
                    p: g.p,
                    q: g.q,
                    bound: g.bound,
                    observed,
                });
            }
        }
        for &(p, from, to) in windows {
            if let Err(position) = certify_absence_window(s, p, from, to) {
                violations.push(InvariantViolation::CrashWindowResurrection {
                    process: p.index(),
                    position,
                });
            }
        }
        violations
    }

    /// One window from a die: any process of the universe, a start up to a
    /// few positions past the end, and one of four shapes — empty
    /// (`from = to`), open-ended, short, or a second window on the previous
    /// window's process.
    fn window(die: u64, n: usize, len: u64, previous: Option<ProcessId>) -> (ProcessId, u64, u64) {
        let from = (die >> 8) % (len + 4);
        let short = from + 1 + (die >> 40) % 16;
        let own = ProcessId::new((die % n as u64) as usize);
        match (die >> 32) % 4 {
            0 => (own, from, from),
            1 => (own, from, u64::MAX),
            2 => (own, from, short),
            _ => (previous.unwrap_or(own), from, short),
        }
    }

    /// A checked lean agreement run hands the checker its Paxos registers,
    /// at a size where a process index no longer fits a `ProcSet`: clean as
    /// run on either drive, and a record altered after the run is caught.
    /// (Here and not in `tests/invariants.rs`: the records are not
    /// reachable from outside the crate.)
    #[test]
    fn a_lean_agreement_run_is_held_to_ballot_ownership() {
        let n = 70;
        let burst = (n * n + n + 2) as u64;
        for drive in [
            crate::FleetReplayDrive::Plain,
            crate::FleetReplayDrive::Soa { slice_len: 64 },
        ] {
            let scenario = Scenario::new(
                format!("lean-n70/agreement/{drive:?}"),
                st_core::Universe::new(n).unwrap(),
                GeneratorSpec::bursty(burst),
                Workload::LeanAgreement {
                    t: 4,
                    policy: st_fd::TimeoutPolicy::Increment,
                    drive,
                },
                2 * burst * n as u64,
                3,
            );
            let checker = InvariantChecker::for_scenario(&scenario);
            let mut watch = checker.watch();
            let (data, ballots) = scenario.drive(Some(&mut watch));
            let (_, mut instances) = ballots.expect("a checked run exposes its records");
            assert_eq!((instances.len(), instances[0].len()), (1, n));
            let entered = instances[0].iter().filter(|r| r.mbal > 0).count();
            assert!(entered > 0, "no proposer ran: the check would be vacuous");
            let check = |instances: Vec<Vec<PaxosRecord>>| {
                checker.check(&data, Some(&(n, instances)), &watch)
            };
            assert_eq!(check(instances.clone()), Vec::new(), "{drive:?}");

            // p69's ballots are ≡ 0 (mod 70); 71 is p0's.
            let forged = PaxosRecord {
                mbal: 71,
                ..instances[0][69]
            };
            instances[0][69] = forged;
            assert_eq!(
                check(instances),
                vec![InvariantViolation::BallotOwnership {
                    instance: 0,
                    process: 69,
                    mbal: 71,
                    bal: forged.bal,
                }],
                "{drive:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One schedule — at n up to 130, so steps a `ProcSet` cannot name
        /// occur — fed a step at a time through `observe_step`, in
        /// random-length blocks through `observe`, and scanned offline: one
        /// verdict, one observed bound, one first-offence position per
        /// window.
        #[test]
        fn the_watch_fed_any_blocks_equals_the_offline_scan(
            n in 1usize..=130,
            raw_steps in prop::collection::vec(any::<u64>(), 0..200),
            p_bits in any::<u64>(),
            q_bits in any::<u64>(),
            thin in any::<u64>(),
            bound in 1usize..6,
            armed in any::<bool>(),
            window_dice in prop::collection::vec(any::<u64>(), 0..5),
            cuts in prop::collection::vec(0usize..6, 0..300),
        ) {
            let s: Schedule = raw_steps
                .iter()
                .map(|r| ProcessId::new((r % n as u64) as usize))
                .collect();
            let guarantee = armed.then(|| TimelyPair {
                p: ProcSet::from_bits(p_bits & thin),
                q: ProcSet::from_bits(q_bits),
                bound,
            });
            let mut windows = Vec::new();
            for &die in &window_dice {
                let previous = windows.last().map(|&(p, _, _)| p);
                windows.push(window(die, n, s.len() as u64, previous));
            }

            // A random partition into blocks, empty and one-step ones
            // included; whatever the cuts leave over is the last block.
            let mut by_block = ScheduleWatch::new(guarantee, &windows);
            let mut rest = s.as_slice();
            for &cut in &cuts {
                let (block, tail) = rest.split_at(cut.min(rest.len()));
                by_block.observe(block);
                rest = tail;
            }
            by_block.observe(rest);

            let mut by_step = ScheduleWatch::new(guarantee, &windows);
            for step in s.iter() {
                by_step.observe_step(step);
            }

            let expected = offline(&s, guarantee, &windows);
            let nameable: Schedule = s.iter().filter(|p| p.index() < PROCSET_CAPACITY).collect();
            let observed = guarantee.map(|g| empirical_bound(&nameable, g.p, g.q));
            for watch in [&by_block, &by_step] {
                let mut online = Vec::new();
                watch.verdicts(&mut online);
                prop_assert_eq!(&online, &expected);
                prop_assert_eq!(watch.guarantee.as_ref().map(|g| g.observed.bound()), observed);
                prop_assert_eq!(watch.steps_seen(), s.len() as u64);
            }
            let offences = |watch: &ScheduleWatch| -> Vec<Option<u64>> {
                watch.windows.iter().map(|w| w.offence).collect()
            };
            prop_assert_eq!(offences(&by_block), offences(&by_step));
        }
    }
}
