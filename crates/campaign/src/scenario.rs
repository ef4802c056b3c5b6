//! Scenarios: one protocol run over one generated schedule, as data.
//!
//! A [`Scenario`] bundles everything needed to execute one cell of an
//! experiment grid — universe, generator spec, workload, stop rule, step
//! budget, seed, faulty set — and [`Scenario::run`] executes it into a
//! [`ScenarioOutcome`]. Construction of the simulator, the generator, and
//! the protocol stack all happen inside `run`, so scenarios can be executed
//! on any thread with no shared state; two runs of the same scenario are
//! bit-identical.

use st_agreement::{drive_adversarially, AgreementStack, KSetAgreement, StackKind};
use st_bgsim::{check_reduction, run_reduction, TrivialKDecide};
use st_core::subsets::KSubsets;
use st_core::timeliness::{empirical_bound, TimelinessAnalyzer};
use st_core::{
    AgreementTask, AgreementViolation, ProcSet, ProcessId, StepSource, TimelyPair, Universe, Value,
    PROCSET_CAPACITY,
};
use st_fd::convergence::{
    kanti_omega_witness, wide_winnerset_stabilization, winnerset_stabilization, KAntiOmegaWitness,
    Stabilization, WideStabilization,
};
use st_fd::{
    KAntiOmega, KAntiOmegaConfig, LeanOmega, ProcessTimelyDetector, TimeoutPolicy,
    BASELINE_WINNERSET_PROBE, WINNERSET_PROBE,
};
use st_sched::{GeneratorSpec, TimeoutPolicySpec};
use st_sim::{check_slice_len, PhaseBatch, RunConfig, RunReport, RunStatus, Sim, StopWhen};

use crate::invariant::{Ballots, InvariantChecker, InvariantViolation, ScheduleWatch};
use st_core::Schedule;

/// Converts a declarative [`TimeoutPolicySpec`] grid-axis value (from
/// `st-sched`, which does not depend on `st-fd`) into the concrete
/// [`TimeoutPolicy`] the failure detector consumes.
pub fn policy_from_spec(spec: TimeoutPolicySpec) -> TimeoutPolicy {
    match spec {
        TimeoutPolicySpec::Increment => TimeoutPolicy::Increment,
        TimeoutPolicySpec::Double => TimeoutPolicy::Double,
    }
}

/// Which simulator drive a set-based FD scenario uses. The drives are
/// observationally identical; experiments pin one so ported tables
/// reproduce their pre-campaign output byte for byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FdAbi {
    /// E8's drive. It named the retired async ABI and now runs the slot
    /// drive of [`FdAbi::MachineSlot`]; it stays because it is part of
    /// E8's scenario spec (its identity and its outcome-store key).
    Async,
    /// One automaton slot per process (`Sim::spawn_automaton`) — E2's drive.
    #[default]
    MachineSlot,
    /// Typed machine fleet (`Sim::run_automata`) — E7's drive.
    MachineFleet,
}

/// Which failure detector an FD-convergence scenario runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FdDetector {
    /// The paper's set-based Figure 2 k-anti-Ω.
    #[default]
    SetBased,
    /// The process-timeliness baseline (always one automaton slot per
    /// process) — the motivation experiment's control arm.
    ProcessBased,
}

/// What protocol the scenario runs over the generated schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// k-anti-Ω convergence: run the detector at every process for the full
    /// budget, then judge stabilization / the k-anti-Ω witness / (optionally)
    /// system membership on the trace.
    FdConvergence {
        /// Detector parameter `k`.
        k: usize,
        /// Resilience `t`.
        t: usize,
        /// Figure 2 line 17 timeout policy.
        policy: TimeoutPolicy,
        /// Simulator drive (set-based only; the baseline always runs in
        /// slots).
        abi: FdAbi,
        /// Set- or process-based detector.
        detector: FdDetector,
        /// Certify `S^k_{t+1,n}` membership on the executed schedule, rebuilt
        /// from the generator after the run (cap `4(t+1)`, as E2 does).
        certify_membership: bool,
    },
    /// `(t,k,n)`-agreement via the full [`AgreementStack`] (trivial algorithm
    /// when `t < k`, FD + k-parallel Paxos otherwise), run until every
    /// correct process decides or the budget ends.
    Agreement {
        /// Resilience `t`.
        t: usize,
        /// Agreement degree `k`.
        k: usize,
        /// One proposal per process.
        inputs: Vec<Value>,
        /// Timeout policy for the FD underneath.
        policy: TimeoutPolicy,
        /// Optional pre-run schedule certification (solvable matrix cells
        /// certify conformance before trusting the run — see
        /// [`CertifyTimely`]).
        certify: Option<CertifyTimely>,
    },
    /// `(t,k,n)`-agreement driven by the **adaptive adversary** instead of
    /// the scenario's generator (the adversary constructs its schedule from
    /// protocol state; the generator spec is ignored and conventionally set
    /// to [`GeneratorSpec::round_robin`]).
    AdversarialAgreement {
        /// Resilience `t`.
        t: usize,
        /// Agreement degree `k`.
        k: usize,
        /// One proposal per process.
        inputs: Vec<Value>,
        /// Timeout policy for the FD underneath.
        policy: TimeoutPolicy,
        /// Processes crashed from the start (Theorem 27 case 2b).
        precrashed: ProcSet,
        /// Pair whose empirical bound on the executed schedule is certified.
        witness: Option<(ProcSet, ProcSet)>,
    },
    /// The Theorem 26 BG reduction: `universe.n()` simulators run `n_sim`
    /// copies of the trivial k-decide algorithm under the generated host
    /// schedule.
    BgReduction {
        /// Simulated process count.
        n_sim: usize,
        /// Agreement degree `k` of the simulated task.
        k: usize,
        /// Safe-agreement read quota per simulated read.
        max_reads: usize,
    },
    /// Large-n leader-election convergence: Figure 2 at `k = 1` and the
    /// fixed width [`st_fd::LEAN_WIDTH`] ([`st_fd::LeanOmega`]), reported
    /// as a leader index. Always driven on a fleet replay drive over the
    /// generated schedule; see [`FleetReplayDrive`].
    LeanConvergence {
        /// Resilience `t` (`1 ≤ t ≤ n − 1`).
        t: usize,
        /// Line-17 timeout policy.
        policy: TimeoutPolicy,
        /// Which replay drive steps the fleet.
        drive: FleetReplayDrive,
    },
    /// Large-n consensus ([`st_agreement::LeanConsensus`]: the k-set
    /// agreement machine at `k = 1` over the same detector, proposals
    /// fixed at `100 + pid`) — the agreement-shaped workload of the
    /// scaling regime.
    LeanAgreement {
        /// Resilience `t` of the underlying detector.
        t: usize,
        /// Line-17 timeout policy.
        policy: TimeoutPolicy,
        /// Which replay drive steps the fleet.
        drive: FleetReplayDrive,
    },
    /// The paper's **full Figure 2 k-anti-Ω** past the single-word wall:
    /// a width-generic [`KAntiOmega`] machine fleet on a replay drive, at
    /// any `n ≤ MAX_PROCESSES`. The bitset width is dispatched at runtime
    /// from the universe size ([`st_core::words_for`]), so one workload
    /// value covers n = 8 and n = 256 alike. Outcomes are index- and
    /// rank-based (no `ProcSet`), mirroring the lean workloads; the
    /// stabilized winnerset is carried both as the raw probe payload
    /// (bits at `W = 1`, colex rank at `W > 1` — see
    /// [`st_fd::WINNERSET_PROBE`]) and as decoded member indices.
    WideFdConvergence {
        /// Detector parameter `k`.
        k: usize,
        /// Resilience `t`.
        t: usize,
        /// Figure 2 line 17 timeout policy.
        policy: TimeoutPolicy,
        /// Which replay drive steps the fleet.
        drive: FleetReplayDrive,
    },
}

/// Which fleet replay drive a lean scenario uses. Observationally
/// identical (the SoA differential suite); scenarios pin one so stored
/// outcomes are comparable across drives and PRs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FleetReplayDrive {
    /// Plain fleet replay ([`Sim::run_automata_replay`]).
    #[default]
    Plain,
    /// Phase-batched struct-of-arrays replay
    /// ([`Sim::run_automata_replay_soa`]) with the given slice length.
    Soa {
        /// Length of a uniform or bucketed slice. Round-robin stretches are
        /// batched in whole rounds whatever it is, and a slice is cut at
        /// the end of the run's schedule block.
        slice_len: usize,
    },
}

/// Steps a fleet run holds of its schedule at a time (256 KiB): long
/// enough that the per-block costs — a kernel set-up, the watch's scan —
/// vanish against the steps, short enough to stay in cache between the
/// generator that fills the block and the drive that replays it.
const REPLAY_BLOCK: u64 = 1 << 16;

impl FleetReplayDrive {
    /// Replays `budget` steps of `src` over `fleet` on this drive — the one
    /// place a scenario picks a `Sim` replay entry point — without ever
    /// holding the schedule: one block buffer is refilled from the
    /// generator by one [`StepSource::fill`] call (one virtual call per
    /// block through a `Box<dyn StepSource>`; the structured generators
    /// append whole dwells and member lists), shown to `watch` (when the
    /// run is checked) and replayed, until the budget is spent
    /// ([`RunStatus::MaxSteps`]) or the source runs dry
    /// ([`RunStatus::SourceEnded`]). The replay entry points are
    /// resumable — the step counter lives in the `Sim` — and every drive is
    /// observationally identical to the plain replay however the schedule
    /// is cut, so a block is [`REPLAY_BLOCK`] steps on every drive: an SoA
    /// slice that runs past a block's end is cut there.
    fn replay<A: PhaseBatch>(
        self,
        sim: &mut Sim,
        fleet: &mut [A],
        mut src: impl StepSource,
        budget: u64,
        mut watch: Option<&mut ScheduleWatch>,
    ) -> RunStatus {
        let mut block = Schedule::with_capacity(REPLAY_BLOCK.min(budget) as usize);
        let mut left = budget;
        while left > 0 {
            let want = left.min(REPLAY_BLOCK) as usize;
            block.clear();
            let got = src.fill(&mut block, want);
            if let Some(watch) = watch.as_deref_mut() {
                watch.observe(block.as_slice());
            }
            let cfg = RunConfig::steps(got as u64);
            match self {
                FleetReplayDrive::Plain => sim.run_automata_replay(fleet, &block, cfg),
                FleetReplayDrive::Soa { slice_len } => {
                    sim.run_automata_replay_soa(fleet, &block, slice_len, cfg)
                }
            }
            // Neither error can occur. `FleetDriveOnSpawnedSim`: the
            // caller's `Sim` is fresh and the fleet is its only driver.
            // `ScheduleOutOfUniverse`: `src` is `GeneratorSpec::build`
            // over the sim's universe, and a spec that passes
            // `GeneratorSpec::validate` there (part of `Scenario::validate`,
            // `run`'s precondition) names no process outside it.
            .expect("a validated scenario's generator stays within its universe");
            if got < want {
                return RunStatus::SourceEnded;
            }
            left -= want as u64;
        }
        RunStatus::MaxSteps
    }
}

/// A generator whose every pulled step is shown to the run's
/// [`ScheduleWatch`] — how the `Sim::run` workloads certify their schedule
/// claims without holding it. The simulator checks its stop rule *before*
/// it pulls, so the steps pulled are exactly the steps executed.
struct Watched<'w, S> {
    src: S,
    watch: Option<&'w mut ScheduleWatch>,
}

impl<S: StepSource> StepSource for Watched<'_, S> {
    fn next_step(&mut self) -> Option<ProcessId> {
        let p = self.src.next_step()?;
        if let Some(watch) = &mut self.watch {
            watch.observe_step(p);
        }
        Some(p)
    }
}

/// Pre-run certification of a conforming cell: before the protocol runs,
/// the scenario rebuilds its generator from the spec, takes `prefix_len`
/// steps, and asks the timeliness engine whether the prefix contains an
/// `(i, j)` timely pair within `cap` — the solvability matrix's "is this
/// schedule really in `S^i_{j,n}`?" check. The verdict lands in
/// [`AgreementScenarioOutcome::certified`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CertifyTimely {
    /// Timely set size `i`.
    pub i: usize,
    /// Observed set size `j`.
    pub j: usize,
    /// Bound cap accepted by the certification.
    pub cap: usize,
    /// Prefix length swept by the analyzer.
    pub prefix_len: u64,
}

impl Workload {
    /// The stop rule this workload observes (see [`StopRule`]).
    pub fn default_stop(&self) -> StopRule {
        match self {
            Workload::FdConvergence { .. } => StopRule::BudgetOnly,
            Workload::Agreement { .. } => StopRule::AllCorrectDecided,
            // The adversary runs its own drive loop; BG stops when every
            // simulator finished. Both are budget-bounded. The lean replay
            // drives execute their whole schedule (decided machines become
            // no-ops), so the post-decision trace is always observed.
            Workload::AdversarialAgreement { .. }
            | Workload::BgReduction { .. }
            | Workload::LeanConvergence { .. }
            | Workload::LeanAgreement { .. }
            | Workload::WideFdConvergence { .. } => StopRule::BudgetOnly,
        }
    }

    /// This workload with its FD timeout policy replaced — the grid
    /// builder's timeout-policy axis. [`Workload::BgReduction`] has no
    /// failure detector underneath; it is returned unchanged.
    pub fn with_policy(mut self, new: TimeoutPolicy) -> Workload {
        match &mut self {
            Workload::FdConvergence { policy, .. }
            | Workload::Agreement { policy, .. }
            | Workload::AdversarialAgreement { policy, .. }
            | Workload::LeanConvergence { policy, .. }
            | Workload::LeanAgreement { policy, .. }
            | Workload::WideFdConvergence { policy, .. } => *policy = new,
            Workload::BgReduction { .. } => {}
        }
        self
    }

    /// [`with_policy`](Self::with_policy) from the declarative axis value.
    pub fn with_policy_spec(self, spec: TimeoutPolicySpec) -> Workload {
        self.with_policy(policy_from_spec(spec))
    }

    /// Holds the workload to what running it over `universe` needs,
    /// refusing the first breach with its field path. Each rule is the
    /// check the protocol's own constructor asserts through, or stated
    /// here once:
    ///
    /// - an agreement task — [`AgreementTask::check`]
    ///   (`1 ≤ t ≤ n − 1`, `1 ≤ k ≤ n`);
    /// - the detectors' `(k, t)`, and the task of an adversary or of a
    ///   stack past the trivial algorithm — `1 ≤ k ≤ t ≤ n − 1`
    ///   ([`AgreementTask::check_nontrivial`]; `k = 1` for the lean
    ///   workloads), and for Figure 2 its counters inside the register
    ///   arena ([`KAntiOmegaConfig::check`]); the adversary also needs
    ///   somebody not precrashed, and a witness inside the universe;
    /// - a BG reduction — [`check_reduction`] (`1 ≤ n_sim ≤ 64`) and
    ///   [`TrivialKDecide::check`] (`k ≥ 1`);
    /// - a SoA replay drive — [`check_slice_len`] (`slice_len ≥ 1`);
    /// - the workloads on single-word process sets (FD convergence,
    ///   agreement, adversarial agreement, the BG reduction's simulators):
    ///   `n ≤ 64`; the agreement workloads: one input per process; a
    ///   certification: a positive bound cap.
    ///
    /// `Ok` allocates nothing.
    pub fn validate(&self, universe: Universe) -> Result<(), String> {
        let n = universe.n();
        let drive = |drive: &FleetReplayDrive| match *drive {
            FleetReplayDrive::Plain => Ok(()),
            FleetReplayDrive::Soa { slice_len } => {
                check_slice_len(slice_len).map_err(|e| format!("field \"drive\": {e}"))
            }
        };
        match self {
            Workload::FdConvergence { k, t, detector, .. } => {
                match detector {
                    FdDetector::SetBased => KAntiOmegaConfig::new(*k, *t).check(n)?,
                    FdDetector::ProcessBased => AgreementTask::check_nontrivial(*t, *k, n)?,
                }
                single_word("FdConvergence", n)
            }
            Workload::Agreement {
                t,
                k,
                inputs,
                certify,
                ..
            } => {
                if let Some(CertifyTimely { cap: 0, .. }) = certify {
                    return Err(
                        "field \"certify\": field \"cap\": a bound cap must be positive, got 0"
                            .into(),
                    );
                }
                AgreementTask::check(*t, *k, n)?;
                // Past the trivial `t < k` algorithm, the stack holds Figure 2.
                if k <= t {
                    KAntiOmegaConfig::new(*k, *t).check(n)?;
                }
                single_word("Agreement", n)?;
                one_input_each("Agreement", inputs, n)
            }
            Workload::AdversarialAgreement {
                t,
                k,
                inputs,
                precrashed,
                witness,
                ..
            } => {
                KAntiOmegaConfig::new(*k, *t).check(n)?;
                single_word("AdversarialAgreement", n)?;
                one_input_each("AdversarialAgreement", inputs, n)?;
                let everyone = ProcSet::full(universe);
                if everyone.is_subset(*precrashed) {
                    return Err(format!(
                        "field \"precrashed\": {precrashed} leaves none of the {n} processes to run"
                    ));
                }
                match witness {
                    Some((p, q)) if !p.union(*q).is_subset(everyone) => Err(format!(
                        "field \"witness\": the pair ({p}, {q}) names a process outside the {n} \
                         of the universe"
                    )),
                    _ => Ok(()),
                }
            }
            Workload::BgReduction { n_sim, k, .. } => {
                check_reduction(n, *n_sim)?;
                TrivialKDecide::check(*k)?;
                single_word("BgReduction", n)
            }
            Workload::LeanConvergence { t, drive: d, .. }
            | Workload::LeanAgreement { t, drive: d, .. } => {
                KAntiOmegaConfig::new(1, *t).check(n)?;
                drive(d)
            }
            Workload::WideFdConvergence { k, t, drive: d, .. } => {
                KAntiOmegaConfig::new(*k, *t).check(n)?;
                drive(d)
            }
        }
    }
}

/// `field "n"`: the `name` workload runs on single-word process sets
/// (Figure 2 at width one, [`Scenario::correct`], the timeliness analyzer's
/// subset enumeration), so it needs `n ≤ PROCSET_CAPACITY`.
fn single_word(name: &str, n: usize) -> Result<(), String> {
    if n > PROCSET_CAPACITY {
        return Err(format!(
            "field \"n\": the {name} workload runs on single-word process sets, needs \
             n ≤ {PROCSET_CAPACITY}, got n = {n}"
        ));
    }
    Ok(())
}

/// `field "inputs"`: the `name` agreement workload takes one proposal per
/// process.
fn one_input_each(name: &str, inputs: &[Value], n: usize) -> Result<(), String> {
    if inputs.len() != n {
        return Err(format!(
            "field \"inputs\": the {name} workload takes one input per process, got {} at n = {n}",
            inputs.len()
        ));
    }
    Ok(())
}

/// When a scenario stops before its budget is exhausted.
///
/// Consulted by the generator-driven workloads ([`Workload::FdConvergence`]
/// and [`Workload::Agreement`]). The adaptive adversary and the BG
/// reduction own their drive loops — the adversary never stops early by
/// design and BG stops when every simulator finished — so the rule does not
/// apply to them (both remain budget-bounded).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StopRule {
    /// Run until the budget or the source ends (convergence workloads judge
    /// the full trace).
    #[default]
    BudgetOnly,
    /// Additionally stop as soon as every correct process decided
    /// (agreement workloads; `StopWhen::AllDecided`).
    AllCorrectDecided,
}

/// One cell of an experiment grid. See the module docs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Free-form label carried into the outcome (table rows, debugging).
    pub label: String,
    /// The process universe.
    pub universe: Universe,
    /// The schedule generator, as data.
    pub generator: GeneratorSpec,
    /// The protocol run over the schedule.
    pub workload: Workload,
    /// When to stop early.
    pub stop: StopRule,
    /// Maximum executed steps.
    pub budget: u64,
    /// Scenario seed, offset into every embedded generator seed.
    pub seed: u64,
    /// Processes counted faulty for outcome checking (winnerset judgments,
    /// decision obligations). Defaults to what the generator silences.
    pub faulty: ProcSet,
}

impl Scenario {
    /// A scenario with the workload's default stop rule and the generator's
    /// own faulty set.
    pub fn new(
        label: impl Into<String>,
        universe: Universe,
        generator: GeneratorSpec,
        workload: Workload,
        budget: u64,
        seed: u64,
    ) -> Self {
        let faulty = generator.faulty(universe);
        let stop = workload.default_stop();
        Scenario {
            label: label.into(),
            universe,
            generator,
            workload,
            stop,
            budget,
            seed,
            faulty,
        }
    }

    /// Overrides the faulty set (e.g. when only a subset of the crash plan
    /// counts against the fault budget).
    pub fn with_faulty(mut self, faulty: ProcSet) -> Self {
        self.faulty = faulty;
        self
    }

    /// Holds the scenario to what [`run`](Self::run) needs: its workload
    /// ([`Workload::validate`]) and its generator
    /// ([`GeneratorSpec::validate`], under `field "generator"`) over its
    /// universe. Every decoded scenario passes through here, so a spec that
    /// breaks a precondition is refused by field instead of panicking the
    /// worker that runs it. `Ok` allocates nothing.
    pub fn validate(&self) -> Result<(), String> {
        self.workload.validate(self.universe)?;
        self.generator
            .validate(self.universe)
            .map_err(|e| format!("field \"generator\": {e}"))
    }

    /// The correct set: complement of [`faulty`](Self::faulty).
    pub fn correct(&self) -> ProcSet {
        self.faulty.complement(self.universe)
    }

    /// Executes the scenario with the [`InvariantChecker`] on — the default
    /// everywhere: every campaign cell is a correctness probe. Deterministic:
    /// depends only on the scenario's fields, never on the calling thread or
    /// on other scenarios.
    pub fn run(&self) -> ScenarioOutcome {
        self.run_inner(true)
    }

    /// Executes the scenario without invariant checking or schedule
    /// watching — the pre-checker fast path, kept for honest overhead
    /// measurement (`campaign.invariant.overhead_ratio` in `BENCHMARK.json`).
    /// Outcome data is identical to [`run`](Self::run); `violations` is
    /// empty by construction.
    pub fn run_unchecked(&self) -> ScenarioOutcome {
        self.run_inner(false)
    }

    fn run_inner(&self, check: bool) -> ScenarioOutcome {
        let (data, violations, counterexample) = if check {
            let checker = InvariantChecker::for_scenario(self);
            let mut watch = checker.watch();
            let (data, ballots) = self.drive(Some(&mut watch));
            let violations = checker.check(&data, ballots.as_ref(), &watch);
            // The executed schedule was never held: it is the generator's
            // first `steps_seen` steps, regenerated only for a run that
            // has something to show.
            let counterexample = (!violations.is_empty()).then(|| {
                self.generator
                    .build(self.universe, self.seed)
                    .take_schedule(watch.steps_seen() as usize)
            });
            (data, violations, counterexample)
        } else {
            (self.drive(None).0, Vec::new(), None)
        };
        ScenarioOutcome {
            rank: 0,
            label: self.label.clone(),
            data,
            violations,
            counterexample,
        }
    }

    /// Runs the workload, showing `watch` (a checked run's) every step the
    /// generator-driven drives execute. Agreement stacks of a checked run
    /// also hand back their Paxos registers.
    pub(crate) fn drive(
        &self,
        watch: Option<&mut ScheduleWatch>,
    ) -> (OutcomeData, Option<Ballots>) {
        let data = match &self.workload {
            Workload::FdConvergence {
                k,
                t,
                policy,
                abi,
                detector,
                certify_membership,
            } => OutcomeData::Fd(self.run_fd(
                *k,
                *t,
                *policy,
                *abi,
                *detector,
                *certify_membership,
                watch,
            )),
            Workload::Agreement {
                t,
                k,
                inputs,
                policy,
                certify,
            } => {
                let (o, ballots) = self.run_agreement(*t, *k, inputs, *policy, *certify, watch);
                return (OutcomeData::Agreement(o), ballots);
            }
            Workload::AdversarialAgreement {
                t,
                k,
                inputs,
                policy,
                precrashed,
                witness,
            } => OutcomeData::Adversarial(self.run_adversarial(
                *t,
                *k,
                inputs,
                *policy,
                *precrashed,
                *witness,
            )),
            Workload::BgReduction {
                n_sim,
                k,
                max_reads,
            } => OutcomeData::Bg(self.run_bg(*n_sim, *k, *max_reads)),
            Workload::LeanConvergence { t, policy, drive } => {
                OutcomeData::Lean(self.run_lean(*t, *policy, *drive, false, watch).0)
            }
            Workload::LeanAgreement { t, policy, drive } => {
                let (o, ballots) = self.run_lean(*t, *policy, *drive, true, watch);
                return (OutcomeData::Lean(o), ballots);
            }
            Workload::WideFdConvergence {
                k,
                t,
                policy,
                drive,
            } => OutcomeData::WideFd(self.run_wide_fd(*k, *t, *policy, *drive, watch)),
        };
        (data, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_fd(
        &self,
        k: usize,
        t: usize,
        policy: TimeoutPolicy,
        abi: FdAbi,
        detector: FdDetector,
        certify_membership: bool,
        watch: Option<&mut ScheduleWatch>,
    ) -> FdOutcome {
        let universe = self.universe;
        let correct = self.correct();
        let mut src = Watched {
            src: self.generator.build(universe, self.seed),
            watch,
        };
        let mut sim = Sim::new(universe);
        let mut cfg = RunConfig::steps(self.budget);
        if self.stop == StopRule::AllCorrectDecided {
            cfg = cfg.stop_when(StopWhen::AllDecided(correct));
        }
        let (status, probe_key) = match detector {
            FdDetector::SetBased => {
                let fd =
                    KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t).with_policy(policy));
                let status = match abi {
                    FdAbi::Async | FdAbi::MachineSlot => {
                        for p in universe.processes() {
                            sim.spawn_automaton(p, fd.machine()).expect("fresh sim");
                        }
                        sim.run(&mut src, cfg)
                    }
                    FdAbi::MachineFleet => {
                        let mut fleet: Vec<_> =
                            universe.processes().map(|_| fd.machine()).collect();
                        sim.run_automata(&mut fleet, &mut src, cfg)
                    }
                };
                (status, WINNERSET_PROBE)
            }
            FdDetector::ProcessBased => {
                let fd = ProcessTimelyDetector::alloc(&mut sim, k, t, policy);
                for p in universe.processes() {
                    sim.spawn_automaton(p, fd.machine()).expect("fresh sim");
                }
                (sim.run(&mut src, cfg), WINNERSET_PROBE)
            }
        };
        let status = status.expect("generator schedules stay within the universe");
        let report = sim.report();
        let (membership, stabilization, witness) = match detector {
            FdDetector::SetBased => (
                if certify_membership {
                    // The drive executed exactly the steps it pulled: the
                    // executed schedule is a fresh build's first `steps`
                    // steps, swept as `run_agreement` sweeps its prefix.
                    let executed = self
                        .generator
                        .build(universe, self.seed)
                        .take_schedule(report.steps as usize);
                    TimelinessAnalyzer::new(universe).find_timely_pair(
                        &executed,
                        k,
                        t + 1,
                        4 * (t + 1),
                    )
                } else {
                    None
                },
                winnerset_stabilization(&report, correct),
                kanti_omega_witness(&report, correct),
            ),
            // The baseline publishes under its own probe key and is judged
            // only by its flapping; its winnerset never stabilizes by
            // construction of the motivation workloads.
            FdDetector::ProcessBased => (None, None, None),
        };
        let flap_key = match detector {
            FdDetector::SetBased => probe_key,
            FdDetector::ProcessBased => BASELINE_WINNERSET_PROBE,
        };
        let after = self.budget * 3 / 4;
        let late_flaps = (0..universe.n())
            .map(|i| {
                report
                    .probes
                    .timeline(ProcessId::new(i), flap_key)
                    .iter()
                    .filter(|&&(s, _)| s > after)
                    .count()
            })
            .sum();
        FdOutcome {
            status,
            steps: report.steps,
            membership,
            stabilization,
            witness,
            late_flaps,
        }
    }

    fn run_agreement(
        &self,
        t: usize,
        k: usize,
        inputs: &[Value],
        policy: TimeoutPolicy,
        certify: Option<CertifyTimely>,
        watch: Option<&mut ScheduleWatch>,
    ) -> (AgreementScenarioOutcome, Option<Ballots>) {
        // Certification sweeps a *fresh* build of the same generator spec —
        // bit-identical to the schedule the protocol is about to see.
        let certified = certify.map(|c| {
            let prefix = self
                .generator
                .build(self.universe, self.seed)
                .take_schedule(c.prefix_len as usize);
            TimelinessAnalyzer::new(self.universe)
                .find_timely_pair(&prefix, c.i, c.j, c.cap)
                .is_some()
        });
        let task = AgreementTask::new(t, k, self.universe.n()).expect("valid task parameters");
        let mut stack = AgreementStack::build_with_policy(task, inputs, policy);
        let kind = stack.kind();
        // A checked run exposes its Paxos registers to the ballot check.
        let check = watch.is_some();
        let mut src = Watched {
            src: self.generator.build(self.universe, self.seed),
            watch,
        };
        // A failed certification proves nothing about the protocol, so the
        // drive is skipped (zero budget): the outcome is the stack's
        // initial-state snapshot with `certified: Some(false)` — and the
        // multi-million-step budget is not burned on a cell already known
        // to be mismatched.
        let budget = if certified == Some(false) {
            0
        } else {
            self.budget
        };
        // `AgreementStack::run` hardwires the all-decided stop; driving the
        // simulator directly lets a `StopRule::BudgetOnly` override observe
        // the full-budget post-decision trace. With the default rule this is
        // exactly what `stack.run` does.
        let mut cfg = RunConfig::steps(budget);
        if self.stop == StopRule::AllCorrectDecided {
            cfg = cfg.stop_when(StopWhen::AllDecided(self.correct()));
        }
        let status = stack
            .sim_mut()
            .run(&mut src, cfg)
            .expect("agreement schedules stay within the task universe");
        let run = stack.snapshot(status, self.faulty);
        let ballots = stack
            .kset()
            .filter(|_| check)
            .map(|kset| peek_ballots(kset, stack.sim()));
        (
            AgreementScenarioOutcome {
                kind,
                status: run.status,
                decided_at: run.report.all_decided_step(run.outcome.correct),
                decisions: run.outcome.decisions.clone(),
                correct: run.outcome.correct,
                violations: run.violations.clone(),
                clean: run.is_clean_termination(),
                safe: run.is_safe(),
                certified,
            },
            ballots,
        )
    }

    fn run_adversarial(
        &self,
        t: usize,
        k: usize,
        inputs: &[Value],
        policy: TimeoutPolicy,
        precrashed: ProcSet,
        witness: Option<(ProcSet, ProcSet)>,
    ) -> AdversarialOutcome {
        let task = AgreementTask::new(t, k, self.universe.n()).expect("valid task parameters");
        let stack = AgreementStack::build_with_policy(task, inputs, policy);
        let adv = drive_adversarially(stack, self.budget, precrashed, witness);
        AdversarialOutcome {
            status: adv.run.status,
            decided: adv
                .run
                .outcome
                .decisions
                .iter()
                .filter(|d| d.is_some())
                .count(),
            blocked: adv.run.outcome.decisions.iter().all(|d| d.is_none()),
            safe: adv.run.is_safe(),
            freeze_events: adv.freeze_events,
            max_frozen: adv.max_frozen,
            certificate: adv.certificate,
        }
    }

    /// The lean (large-n) workloads: drive a fleet of Figure 2 machines at
    /// `k = 1` (`consensus: false`) or of k-set agreement machines over
    /// them (`consensus: true`, proposals `100 + pid`) on the configured
    /// replay drive, the generator streamed through it a block at a time
    /// (see [`FleetReplayDrive::replay`]). What stays resident is the
    /// fleet, the arena and one block — nothing that grows with the budget
    /// but the probe log. A replay executes its schedule verbatim, finished
    /// machines included, so the blocks `watch` is shown are the executed
    /// schedule. A checked consensus run also hands back its Paxos
    /// registers, as [`run_agreement`](Self::run_agreement) does.
    fn run_lean(
        &self,
        t: usize,
        policy: TimeoutPolicy,
        drive: FleetReplayDrive,
        consensus: bool,
        watch: Option<&mut ScheduleWatch>,
    ) -> (LeanOutcome, Option<Ballots>) {
        let universe = self.universe;
        let src = self.generator.build(universe, self.seed);
        let mut sim = Sim::new(universe);
        let fd = LeanOmega::alloc(&mut sim, t, policy);
        let check = watch.is_some();
        let (status, ballots) = if consensus {
            let cons = st_agreement::LeanConsensus::alloc(&mut sim);
            let mut fleet: Vec<_> = universe
                .processes()
                .map(|p| cons.machine(&fd, 100 + p.index() as Value))
                .collect();
            let status = drive.replay(&mut sim, &mut fleet, src, self.budget, watch);
            (status, check.then(|| peek_ballots(cons.kset(), &sim)))
        } else {
            let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
            let status = drive.replay(&mut sim, &mut fleet, src, self.budget, watch);
            (status, None)
        };
        let report = sim.report();
        // At `LEAN_WIDTH` the probe payload is the winner's colex rank in
        // `Π^1_n`: the leader's index.
        let (stabilization, publications, late_flaps) = self.winnerset_summary(&report);
        let stabilization = stabilization.map(|st| LeanStabilization {
            leader: st.winnerset_rank as usize,
            step: st.step,
        });
        let decisions = sim.decisions();
        let decided = decisions.iter().filter(|d| d.is_some()).count();
        let mut distinct_values: Vec<Value> = decisions.iter().flatten().map(|d| d.value).collect();
        distinct_values.sort_unstable();
        distinct_values.dedup();
        let outcome = LeanOutcome {
            status,
            steps: report.steps,
            stabilization,
            publications,
            late_flaps,
            decided,
            distinct_values,
        };
        (outcome, ballots)
    }

    /// What the [`WINNERSET_PROBE`] timelines of a finished wide-set fleet
    /// say: the stabilization of the correct processes (every one's *last*
    /// publication names the same set; publications happen only on change,
    /// so the last entry is the last change — processes the generator
    /// silenced are exempt, they may be stuck on a stale set), the
    /// publications of the whole fleet, and those in the last quarter of
    /// the budget (flapping).
    fn winnerset_summary(&self, report: &RunReport) -> (Option<WideStabilization>, u64, usize) {
        // Faulty sets only name indices below the ProcSet capacity; any
        // higher index is correct by construction.
        let faulty = self.faulty;
        let correct = self
            .universe
            .processes()
            .filter(|p| p.index() >= st_core::PROCSET_CAPACITY || !faulty.contains(*p));
        let stabilization = wide_winnerset_stabilization(report, correct);
        let after = self.budget * 3 / 4;
        let mut publications = 0u64;
        let mut late_flaps = 0usize;
        for p in self.universe.processes() {
            let timeline = report.probes.timeline(p, WINNERSET_PROBE);
            publications += timeline.len() as u64;
            late_flaps += timeline.iter().filter(|&&(s, _)| s > after).count();
        }
        (stabilization, publications, late_flaps)
    }

    /// The width-generic Figure 2 workload: pick the narrowest supported
    /// bitset width that holds the universe, then run the paper's full
    /// detector fleet on the configured replay drive, streamed as for the
    /// lean workloads. The generic body is monomorphized per width; widths
    /// between the supported powers of two round up (a wider set than
    /// necessary is correct, just larger). Resident memory is the arena's
    /// `|Π^k_n|·n` counters plus `O(|Π^k_n| + n)` per machine — 5 MB for
    /// the whole run at n = 256, k = 1.
    fn run_wide_fd(
        &self,
        k: usize,
        t: usize,
        policy: TimeoutPolicy,
        drive: FleetReplayDrive,
        watch: Option<&mut ScheduleWatch>,
    ) -> WideFdOutcome {
        match st_core::words_for(self.universe.n()) {
            1 => self.run_wide_fd_width::<1>(k, t, policy, drive, watch),
            2 => self.run_wide_fd_width::<2>(k, t, policy, drive, watch),
            3..=4 => self.run_wide_fd_width::<4>(k, t, policy, drive, watch),
            5..=8 => self.run_wide_fd_width::<8>(k, t, policy, drive, watch),
            9..=16 => self.run_wide_fd_width::<16>(k, t, policy, drive, watch),
            w => unreachable!("words_for caps at MAX_PROCESSES/64 = 16, got {w}"),
        }
    }

    fn run_wide_fd_width<const W: usize>(
        &self,
        k: usize,
        t: usize,
        policy: TimeoutPolicy,
        drive: FleetReplayDrive,
        watch: Option<&mut ScheduleWatch>,
    ) -> WideFdOutcome {
        let universe = self.universe;
        let src = self.generator.build(universe, self.seed);
        let mut sim = Sim::new(universe);
        let fd =
            KAntiOmega::<W>::alloc_wide(&mut sim, KAntiOmegaConfig::new(k, t).with_policy(policy));
        let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
        let status = drive.replay(&mut sim, &mut fleet, src, self.budget, watch);
        let report = sim.report();
        let (stabilization, publications, late_flaps) = self.winnerset_summary(&report);
        let stabilization = stabilization.map(|st| {
            let members: Vec<usize> = if W == 1 {
                ProcSet::from_bits(st.winnerset_rank)
                    .iter()
                    .map(|p| p.index())
                    .collect()
            } else {
                st_core::subsets::wide_unrank::<W>(universe, k, st.winnerset_rank)
                    .iter()
                    .map(|p| p.index())
                    .collect()
            };
            WideFdStabilization {
                winnerset_code: st.winnerset_rank,
                members,
                step: st.step,
            }
        });
        WideFdOutcome {
            status,
            steps: report.steps,
            stabilization,
            publications,
            late_flaps,
        }
    }

    fn run_bg(&self, n_sim: usize, k: usize, max_reads: usize) -> BgOutcome {
        let machines: Vec<TrivialKDecide> = (0..n_sim)
            .map(|u| TrivialKDecide::new(u, k, 300 + u as Value))
            .collect();
        let mut src = self.generator.build(self.universe, self.seed);
        let report = run_reduction(
            self.universe.n(),
            machines,
            max_reads,
            &mut src,
            self.budget,
        );
        // Theorem 26 property (ii), measured on the highest-indexed
        // simulator's linearization (the one E6's crash plans keep alive):
        // the worst empirical bound over live (k+1)-sets of simulated
        // processes. Computed here so the outcome carries the verdict's
        // ingredients without shipping whole schedules through the store.
        let live_sim = self.universe.n() - 1;
        let sched = &report.simulated_schedules[live_sim];
        let stalled = report.stalled_simulated();
        let sim_universe = Universe::new(n_sim).expect("simulated universe in range");
        let full = ProcSet::full(sim_universe);
        let mut max_live_bound = 0usize;
        if k < n_sim {
            for set in KSubsets::new(sim_universe, k + 1) {
                if !set.is_disjoint(stalled) {
                    continue;
                }
                max_live_bound = max_live_bound.max(empirical_bound(sched, set, full));
            }
        }
        BgOutcome {
            status: report.status,
            stalled,
            distinct_simulator_values: report.distinct_simulator_values(),
            simulator_decisions: report.simulator_decisions.clone(),
            simulated_decisions: report.simulated_decisions.clone(),
            host_steps: report.host_steps,
            live_sched_len: sched.len(),
            max_live_bound,
        }
    }
}

/// The Paxos registers of a finished k-set agreement run, per instance, for
/// the checker's ballot invariants.
fn peek_ballots(kset: &KSetAgreement, sim: &Sim) -> Ballots {
    let records = kset
        .instances()
        .iter()
        .map(|paxos| paxos.peek_records(sim))
        .collect();
    (sim.universe().n(), records)
}

/// The result of one scenario, positioned in its campaign.
///
/// Derives `PartialEq`/`Eq`: the determinism differential test compares
/// whole outcome lists across worker counts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioOutcome {
    /// Position of the scenario in its campaign (set by the campaign
    /// runner; 0 for standalone `Scenario::run` calls).
    pub rank: usize,
    /// The scenario's label, copied through.
    pub label: String,
    /// Workload-shaped payload.
    pub data: OutcomeData,
    /// Invariants the [`InvariantChecker`] found violated (empty on healthy
    /// runs, and always empty from [`Scenario::run_unchecked`]).
    pub violations: Vec<InvariantViolation>,
    /// The executed schedule as a replayable counterexample, present when
    /// any invariant fired: regenerated from the scenario's generator, seed
    /// and executed step count, never held during the run.
    pub counterexample: Option<Schedule>,
}

/// Workload-shaped outcome payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OutcomeData {
    /// FD-convergence payload.
    Fd(FdOutcome),
    /// Agreement payload.
    Agreement(AgreementScenarioOutcome),
    /// Adaptive-adversary payload.
    Adversarial(AdversarialOutcome),
    /// BG-reduction payload.
    Bg(BgOutcome),
    /// Lean large-n payload (convergence or consensus).
    Lean(LeanOutcome),
    /// Width-generic Figure 2 payload.
    WideFd(WideFdOutcome),
}

impl OutcomeData {
    /// The FD payload, when this is one.
    pub fn as_fd(&self) -> Option<&FdOutcome> {
        match self {
            OutcomeData::Fd(o) => Some(o),
            _ => None,
        }
    }

    /// The agreement payload, when this is one.
    pub fn as_agreement(&self) -> Option<&AgreementScenarioOutcome> {
        match self {
            OutcomeData::Agreement(o) => Some(o),
            _ => None,
        }
    }

    /// The adversarial payload, when this is one.
    pub fn as_adversarial(&self) -> Option<&AdversarialOutcome> {
        match self {
            OutcomeData::Adversarial(o) => Some(o),
            _ => None,
        }
    }

    /// The BG payload, when this is one.
    pub fn as_bg(&self) -> Option<&BgOutcome> {
        match self {
            OutcomeData::Bg(o) => Some(o),
            _ => None,
        }
    }

    /// The lean large-n payload, when this is one.
    pub fn as_lean(&self) -> Option<&LeanOutcome> {
        match self {
            OutcomeData::Lean(o) => Some(o),
            _ => None,
        }
    }

    /// The width-generic Figure 2 payload, when this is one.
    pub fn as_wide_fd(&self) -> Option<&WideFdOutcome> {
        match self {
            OutcomeData::WideFd(o) => Some(o),
            _ => None,
        }
    }
}

/// Lean leader stabilization: the index every correct process's final
/// leader publication named, and the step of the last change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LeanStabilization {
    /// The commonly elected leader index (no `ProcSet`: valid at any `n`).
    pub leader: usize,
    /// Last leader-change step over the correct processes.
    pub step: u64,
}

/// What a lean large-n scenario observed ([`Workload::LeanConvergence`] /
/// [`Workload::LeanAgreement`]): the `k = 1` reading of a Figure 2 fleet's
/// winnerset probes — the stabilized 1-set named by its member's index.
/// An agreement fleet's machines also publish
/// [`st_agreement::DECIDED_INSTANCE_PROBE`] (always instance 0) when they
/// decide; that probe is in no field here.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeanOutcome {
    /// Why the drive ended.
    pub status: RunStatus,
    /// Steps executed.
    pub steps: u64,
    /// Leader stabilization over correct processes, if reached.
    pub stabilization: Option<LeanStabilization>,
    /// Total leader publications (changes) across the fleet.
    pub publications: u64,
    /// Leader publications in the last quarter of the budget (flapping).
    pub late_flaps: usize,
    /// Processes that decided (always 0 for convergence workloads).
    pub decided: usize,
    /// Distinct decided values, sorted (consensus demands ≤ 1).
    pub distinct_values: Vec<Value>,
}

/// Wide winnerset stabilization: the common final winnerset of the
/// width-generic detector, at any universe size.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WideFdStabilization {
    /// The raw stabilized probe payload: the winnerset's bits at `W = 1`,
    /// its colex rank in `Π^k_n` at `W > 1` (the dual encoding of
    /// [`st_fd::WINNERSET_PROBE`]).
    pub winnerset_code: u64,
    /// The winnerset's member indices, sorted ascending (no `ProcSet`:
    /// valid at any `n`).
    pub members: Vec<usize>,
    /// Step by which every correct process had converged to it.
    pub step: u64,
}

/// What a width-generic Figure 2 scenario observed
/// ([`Workload::WideFdConvergence`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WideFdOutcome {
    /// Why the drive ended.
    pub status: RunStatus,
    /// Steps executed.
    pub steps: u64,
    /// Lemma 22 stabilization over correct processes, if reached.
    pub stabilization: Option<WideFdStabilization>,
    /// Total winnerset publications across the fleet.
    pub publications: u64,
    /// Winnerset publications in the last quarter of the budget (flapping).
    pub late_flaps: usize,
}

/// What an FD-convergence scenario observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FdOutcome {
    /// Why the drive ended.
    pub status: RunStatus,
    /// Steps executed.
    pub steps: u64,
    /// `S^k_{t+1,n}` membership certificate of the executed schedule, when
    /// requested.
    pub membership: Option<TimelyPair>,
    /// Lemma 22 stabilization (common final winnerset).
    pub stabilization: Option<Stabilization>,
    /// The k-anti-Ω witness (a correct process eventually never accused).
    pub witness: Option<KAntiOmegaWitness>,
    /// Winnerset publications in the last quarter of the budget, summed over
    /// processes — the flapping measure of the motivation experiment.
    pub late_flaps: usize,
}

/// What an agreement scenario observed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AgreementScenarioOutcome {
    /// Which protocol the stack deployed.
    pub kind: StackKind,
    /// Why the run ended.
    pub status: RunStatus,
    /// Step by which every correct process had decided, if all did.
    pub decided_at: Option<u64>,
    /// Per-process decisions.
    pub decisions: Vec<Option<Value>>,
    /// The correct set the obligations were judged against.
    pub correct: ProcSet,
    /// Checker violations.
    pub violations: Vec<AgreementViolation>,
    /// Every correct process decided and no property was violated.
    pub clean: bool,
    /// Safety held (violations are at most termination).
    pub safe: bool,
    /// Pre-run schedule certification verdict, when the workload asked for
    /// one ([`CertifyTimely`]); `None` when not requested.
    pub certified: Option<bool>,
}

impl AgreementScenarioOutcome {
    /// Number of distinct decided values.
    pub fn distinct_decisions(&self) -> usize {
        let set: std::collections::BTreeSet<Value> =
            self.decisions.iter().flatten().copied().collect();
        set.len()
    }

    /// Number of processes that decided.
    pub fn decided_count(&self) -> usize {
        self.decisions.iter().filter(|d| d.is_some()).count()
    }
}

/// What an adaptive-adversary scenario observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdversarialOutcome {
    /// Why the drive ended.
    pub status: RunStatus,
    /// Processes that decided (the adversary's goal is 0).
    pub decided: usize,
    /// No process decided.
    pub blocked: bool,
    /// Safety held throughout.
    pub safe: bool,
    /// Steps denied to in-danger processes.
    pub freeze_events: u64,
    /// Largest simultaneous freeze (≤ k for a correct adversary).
    pub max_frozen: usize,
    /// Certified timeliness witness of the executed schedule.
    pub certificate: Option<TimelyPair>,
}

/// What a BG-reduction scenario observed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BgOutcome {
    /// Why the host run ended.
    pub status: RunStatus,
    /// Simulated processes that never decided.
    pub stalled: ProcSet,
    /// Distinct values adopted by the simulators.
    pub distinct_simulator_values: usize,
    /// Decisions adopted by the simulators.
    pub simulator_decisions: Vec<Option<Value>>,
    /// Decisions reached inside the simulated run.
    pub simulated_decisions: Vec<Option<Value>>,
    /// Host steps executed.
    pub host_steps: u64,
    /// Length of the highest-indexed (never-crashed) simulator's
    /// linearization of the simulated schedule.
    pub live_sched_len: usize,
    /// Worst empirical bound over live `(k+1)`-sets of simulated processes
    /// on that linearization — Theorem 26 property (ii)'s measure.
    pub max_live_bound: usize,
}
