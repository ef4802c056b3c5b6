//! Streamed = materialized: a fleet scenario that refills one block buffer
//! from its generator, certifies its schedule claims online and rebuilds
//! its counterexample on demand must report exactly what the
//! hold-everything formulation reports. The oracle lives here: pull the
//! whole schedule step by step (`next_step`, not the `fill` the drive
//! pulls its blocks with), replay it in **one**
//! `Sim::run_automata_replay` call, judge the trace, and run the offline
//! certifiers (`empirical_bound`, `certify_absence_window`) over the
//! schedule it kept.
//!
//! The cells cross what the streaming loop can get wrong: block
//! boundaries (budgets around one block, a dwell that straddles them),
//! slice cuts (SoA slice lengths
//! that divide the block, that do not, and that exceed the budget), claims
//! whose evidence straddles a block boundary, sources that end early, and
//! universes whose steps a `ProcSet` cannot name.
//!
//! The same holds for E2's membership certificate, which a `Sim::run`
//! workload computes on a rebuilt prefix of its generator: its oracle is
//! the recording path it replaced — every pulled step kept, the analyzer
//! swept over what was kept.

use st_agreement::LeanConsensus;
use st_campaign::{
    Counterexample, FdAbi, FdDetector, FleetReplayDrive, GeneratorSpec, InvariantChecker,
    InvariantViolation, LeanOutcome, LeanStabilization, OutcomeData, Scenario, ScenarioOutcome,
    StopRule, WideFdOutcome, WideFdStabilization, Workload,
};
use st_core::stepsource::FromFn;
use st_core::subsets::wide_unrank;
use st_core::timeliness::{empirical_bound, TimelinessAnalyzer};
use st_core::{
    ProcSet, ProcessId, Schedule, StepSource, TimelyPair, Universe, Value, PROCSET_CAPACITY,
};
use st_fd::convergence::wide_winnerset_stabilization;
use st_fd::{KAntiOmega, KAntiOmegaConfig, LeanOmega, TimeoutPolicy, WINNERSET_PROBE};
use st_sched::validate::certify_absence_window;
use st_sched::CrashPlan;
use st_sim::{RunConfig, RunReport, RunStatus, Sim, StopWhen};

/// `scenario.rs`'s private block length: the budgets below sit around it.
const BLOCK: u64 = 1 << 16;

const POLICY: TimeoutPolicy = TimeoutPolicy::Increment;

#[derive(Clone, Copy, Debug)]
enum Fleet {
    LeanConvergence,
    LeanAgreement,
    WideFd,
}

impl Fleet {
    fn workload(self, n: usize, drive: FleetReplayDrive) -> Workload {
        let t = (n / 16).max(1);
        match self {
            Fleet::LeanConvergence => Workload::LeanConvergence {
                t,
                policy: POLICY,
                drive,
            },
            Fleet::LeanAgreement => Workload::LeanAgreement {
                t,
                policy: POLICY,
                drive,
            },
            Fleet::WideFd => Workload::WideFdConvergence {
                k: 1,
                t,
                policy: POLICY,
                drive,
            },
        }
    }
}

/// A generator and the schedule claims its root carries — stated here, not
/// asked of the checker, so the oracle shares no claim derivation with it.
struct Cell {
    name: &'static str,
    spec: GeneratorSpec,
    guarantee: Option<TimelyPair>,
    windows: Vec<(ProcessId, u64, u64)>,
}

impl Cell {
    fn plain(name: &'static str, spec: GeneratorSpec) -> Cell {
        Cell {
            name,
            spec,
            guarantee: None,
            windows: Vec::new(),
        }
    }
}

fn cells(n: usize) -> Vec<Cell> {
    let universe = Universe::new(n).unwrap();
    let pid = ProcessId::new;
    let pair = TimelyPair {
        p: ProcSet::from_indices([0]),
        q: ProcSet::from_indices([0, 1, 2]),
        bound: 4,
    };
    let timely = |filler| GeneratorSpec::set_timely(pair.p, pair.q, pair.bound, filler);
    let round_robin = |len: usize| {
        GeneratorSpec::round_robin()
            .build(universe, 0)
            .take_schedule(len)
    };
    // Crashes just before and just after the first block boundary, and one
    // early: the windows' evidence is spread over three blocks.
    let plan = CrashPlan::new()
        .crash(pid(1), BLOCK - 3)
        .crash(pid(2), 10)
        .crash(pid(3), BLOCK + 1);
    // A guarantee broken in the third block only: p1 dwells there.
    let mut starving = round_robin(2 * BLOCK as usize + 500);
    starving.extend(std::iter::repeat_n(pid(1), 9));
    starving.extend(round_robin(BLOCK as usize).iter());
    vec![
        Cell::plain("bursty", GeneratorSpec::bursty((n * n + n + 2) as u64)),
        // A dwell longer than a block that does not divide it: budgets of
        // one and of three blocks end mid-dwell at a block boundary, and
        // the second dwell ends two steps into the last block.
        Cell::plain("bursty/straddle", GeneratorSpec::bursty(3 * BLOCK / 2 + 1)),
        Cell::plain("round-robin", GeneratorSpec::round_robin()),
        Cell::plain("seeded-random", GeneratorSpec::seeded_random(0)),
        Cell {
            name: "crash-after",
            spec: GeneratorSpec::seeded_random(1).crashed(plan.clone()),
            guarantee: None,
            windows: plan.entries().map(|(p, at)| (p, at, u64::MAX)).collect(),
        },
        Cell {
            // The outage straddles the boundary of a 65 536-step block and
            // of `Soa{1000}`'s 65 000-step one.
            name: "crash-recovery",
            spec: GeneratorSpec::crash_recovery(
                GeneratorSpec::round_robin(),
                pid(2),
                BLOCK - 1000,
                BLOCK + 1000,
            ),
            guarantee: None,
            windows: vec![(pid(2), BLOCK - 1000, BLOCK + 1000)],
        },
        Cell {
            name: "set-timely",
            spec: timely(GeneratorSpec::seeded_random(2)),
            guarantee: Some(pair),
            windows: Vec::new(),
        },
        Cell {
            // Ends inside the second block: every larger budget is
            // `SourceEnded`.
            name: "replay/short",
            spec: GeneratorSpec::replay(GeneratorSpec::round_robin(), round_robin(70_000)),
            guarantee: None,
            windows: Vec::new(),
        },
        Cell {
            name: "replay/breaks-guarantee",
            spec: GeneratorSpec::replay(timely(GeneratorSpec::round_robin()), starving),
            guarantee: Some(pair),
            windows: Vec::new(),
        },
        Cell {
            // The replayed schedule ignores the carried plan: p2 keeps
            // stepping inside its window, first in the second block.
            name: "replay/steps-in-crash-window",
            spec: GeneratorSpec::replay(
                GeneratorSpec::round_robin().crashed(CrashPlan::new().crash(pid(2), BLOCK + 7)),
                round_robin(4 * BLOCK as usize),
            ),
            guarantee: None,
            windows: vec![(pid(2), BLOCK + 7, u64::MAX)],
        },
    ]
}

/// The hold-everything run of `scenario`: the oracle.
fn materialized(scenario: &Scenario, fleet: Fleet, cell: &Cell) -> ScenarioOutcome {
    let universe = scenario.universe;
    let n = universe.n();
    let t = (n / 16).max(1);
    let mut generator = scenario.generator.build(universe, scenario.seed);
    let mut schedule = Schedule::new();
    while (schedule.len() as u64) < scenario.budget {
        match generator.next_step() {
            Some(p) => schedule.push(p),
            None => break,
        }
    }
    let mut sim = Sim::new(universe);
    let cfg = RunConfig::steps(scenario.budget);
    let status = match fleet {
        Fleet::LeanConvergence => {
            let fd = LeanOmega::alloc(&mut sim, t, POLICY);
            let mut machines: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
            sim.run_automata_replay(&mut machines, &schedule, cfg)
        }
        Fleet::LeanAgreement => {
            let fd = LeanOmega::alloc(&mut sim, t, POLICY);
            let cons = LeanConsensus::alloc(&mut sim);
            let mut machines: Vec<_> = universe
                .processes()
                .map(|p| cons.machine(&fd, 100 + p.index() as Value))
                .collect();
            sim.run_automata_replay(&mut machines, &schedule, cfg)
        }
        Fleet::WideFd => {
            let config = KAntiOmegaConfig::new(1, t).with_policy(POLICY);
            if n <= 64 {
                let fd = KAntiOmega::<1>::alloc_wide(&mut sim, config);
                let mut machines: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
                sim.run_automata_replay(&mut machines, &schedule, cfg)
            } else {
                let fd = KAntiOmega::<4>::alloc_wide(&mut sim, config);
                let mut machines: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
                sim.run_automata_replay(&mut machines, &schedule, cfg)
            }
        }
    }
    .expect("cells stay within their universe");
    let report = sim.report();
    let judge = Judge {
        report: &report,
        status,
        universe,
        faulty: scenario.faulty,
        late_after: scenario.budget * 3 / 4,
    };

    let mut violations = Vec::new();
    let data = match fleet {
        Fleet::LeanConvergence | Fleet::LeanAgreement => {
            let lean = judge.lean();
            if let Some(st) = lean.stabilization {
                if judge.is_faulty(st.leader) {
                    violations.push(InvariantViolation::FaultyLeaderElected { leader: st.leader });
                }
            }
            if lean.distinct_values.len() > 1 {
                violations.push(InvariantViolation::KAgreement {
                    values: lean.distinct_values.clone(),
                    k: 1,
                });
            }
            OutcomeData::Lean(lean)
        }
        Fleet::WideFd => {
            let wide = judge.wide();
            if let Some(st) = &wide.stabilization {
                if st.members.iter().all(|&m| judge.is_faulty(m)) {
                    violations.push(InvariantViolation::AccusedTimelyWinnerset {
                        winnerset: ProcSet::from_indices(st.members.iter().copied()),
                    });
                }
            }
            OutcomeData::WideFd(wide)
        }
    };

    // The schedule claims, offline, over the schedule this run kept. A
    // step a `ProcSet` cannot name is in neither P nor Q.
    if let Some(g) = cell.guarantee {
        let seen: Schedule = schedule
            .iter()
            .filter(|p| p.index() < PROCSET_CAPACITY)
            .collect();
        let observed = empirical_bound(&seen, g.p, g.q);
        if observed > g.bound {
            violations.push(InvariantViolation::GuaranteeBroken {
                p: g.p,
                q: g.q,
                bound: g.bound,
                observed,
            });
        }
    }
    for &(p, from, to) in &cell.windows {
        if let Err(position) = certify_absence_window(&schedule, p, from, to) {
            violations.push(InvariantViolation::CrashWindowResurrection {
                process: p.index(),
                position,
            });
        }
    }
    let counterexample = (!violations.is_empty()).then_some(schedule);
    ScenarioOutcome {
        rank: 0,
        label: scenario.label.clone(),
        data,
        violations,
        counterexample,
    }
}

/// The oracle's reading of a finished trace.
struct Judge<'r> {
    report: &'r RunReport,
    status: RunStatus,
    universe: Universe,
    faulty: ProcSet,
    /// Publications after this step count as late flaps.
    late_after: u64,
}

impl Judge<'_> {
    /// Faulty sets name indices below the `ProcSet` capacity only.
    fn is_faulty(&self, i: usize) -> bool {
        i < PROCSET_CAPACITY && self.faulty.contains(ProcessId::new(i))
    }

    fn timelines(&self, key: &str) -> Vec<Vec<(u64, u64)>> {
        self.universe
            .processes()
            .map(|p| self.report.probes.timeline(p, key))
            .collect()
    }

    fn late_flaps(&self, timelines: &[Vec<(u64, u64)>]) -> usize {
        timelines
            .iter()
            .flatten()
            .filter(|&&(step, _)| step > self.late_after)
            .count()
    }

    fn lean(&self) -> LeanOutcome {
        let timelines = self.timelines(WINNERSET_PROBE);
        // Stabilized: every correct process's last publication names one
        // leader.
        let lasts: Option<Vec<(u64, u64)>> = (0..self.universe.n())
            .filter(|&i| !self.is_faulty(i))
            .map(|i| timelines[i].last().copied())
            .collect();
        let stabilization = lasts.filter(|l| !l.is_empty()).and_then(|lasts| {
            let leader = lasts[0].1;
            lasts
                .iter()
                .all(|&(_, l)| l == leader)
                .then(|| LeanStabilization {
                    leader: leader as usize,
                    step: lasts.iter().map(|&(step, _)| step).max().unwrap(),
                })
        });
        let decisions = &self.report.decisions;
        let mut distinct_values: Vec<Value> = decisions.iter().flatten().map(|d| d.value).collect();
        distinct_values.sort_unstable();
        distinct_values.dedup();
        LeanOutcome {
            status: self.status,
            steps: self.report.steps,
            stabilization,
            publications: timelines.iter().map(|t| t.len() as u64).sum(),
            late_flaps: self.late_flaps(&timelines),
            decided: decisions.iter().flatten().count(),
            distinct_values,
        }
    }

    fn wide(&self) -> WideFdOutcome {
        let universe = self.universe;
        let correct = universe.processes().filter(|p| !self.is_faulty(p.index()));
        let stabilization = wide_winnerset_stabilization(self.report, correct).map(|st| {
            // One-word detectors publish the set's bits, wider ones its
            // rank.
            let members: Vec<usize> = if universe.n() <= 64 {
                ProcSet::from_bits(st.winnerset_rank)
                    .iter()
                    .map(|p| p.index())
                    .collect()
            } else {
                wide_unrank::<4>(universe, 1, st.winnerset_rank)
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
        let timelines = self.timelines(WINNERSET_PROBE);
        WideFdOutcome {
            status: self.status,
            steps: self.report.steps,
            stabilization,
            publications: timelines.iter().map(|t| t.len() as u64).sum(),
            late_flaps: self.late_flaps(&timelines),
        }
    }
}

/// Every cell of one fleet at one size, and that the grid made both
/// schedule claims fire (the replay cells break theirs at the largest
/// budget).
///
/// An optimized build runs the whole cross product. An unoptimized one —
/// tier-1's, some twenty times slower per step — pairs `Plain` with one
/// SoA drive per (cell, budget), rotating so that every (cell, drive) and
/// every (budget, drive) pair still occurs.
fn streamed_equals_materialized(fleet: Fleet, n: usize) {
    let universe = Universe::new(n).unwrap();
    let budgets = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17];
    let mut kinds = Vec::new();
    for (cell_ix, cell) in cells(n).into_iter().enumerate() {
        for (budget_ix, budget) in budgets.into_iter().enumerate() {
            let soa = [
                FleetReplayDrive::Soa { slice_len: 64 },
                // Does not divide 65 536: a slice straddles a block's end.
                FleetReplayDrive::Soa { slice_len: 1000 },
                // Longer than the run: cut only at the blocks' ends.
                FleetReplayDrive::Soa {
                    slice_len: budget as usize + 1,
                },
            ];
            let soa = if cfg!(debug_assertions) {
                &soa[(cell_ix + budget_ix) % 3..][..1]
            } else {
                &soa[..]
            };
            let scenario = |drive| {
                Scenario::new(
                    format!("{fleet:?}/n{n}/{}/{budget}", cell.name),
                    universe,
                    cell.spec.clone(),
                    fleet.workload(n, drive),
                    budget,
                    5,
                )
            };
            let plain = scenario(FleetReplayDrive::Plain);
            let checker = InvariantChecker::for_scenario(&plain);
            assert_eq!(checker.guarantee(), cell.guarantee, "{}", plain.label);
            assert_eq!(
                checker.window_count(),
                cell.windows.len(),
                "{}",
                plain.label
            );
            let expected = materialized(&plain, fleet, &cell);
            // Unchecked is the same replay, unwatched — nothing a drive
            // can tell apart, so one drive answers for all.
            assert_eq!(plain.run_unchecked().data, expected.data, "{}", plain.label);

            for &drive in [FleetReplayDrive::Plain].iter().chain(soa) {
                let scenario = scenario(drive);
                let what = format!("{} on {drive:?}", scenario.label);
                let streamed = scenario.run();
                assert_eq!(streamed, expected, "{what}");

                // A saved counterexample replays to the same violations.
                if let Some(saved) = Counterexample::new(scenario, streamed) {
                    let loaded = Counterexample::from_json_str(&saved.to_json_string())
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let (replayed, reproduced) = loaded.replay();
                    assert!(reproduced, "{what}");
                    assert_eq!(replayed.violations, expected.violations, "{what}");
                    assert_eq!(replayed.counterexample, expected.counterexample, "{what}");
                }
            }
            kinds.extend(expected.violations.iter().map(|v| v.kind()));
        }
    }
    for kind in ["GuaranteeBroken", "CrashWindowResurrection"] {
        assert!(kinds.contains(&kind), "no cell fired {kind}: {kinds:?}");
    }
}

/// One `#[test]` per (fleet, n), so the harness spreads them over cores.
macro_rules! grid {
    ($($name:ident: $fleet:ident at $n:literal;)*) => {$(
        #[test]
        fn $name() {
            streamed_equals_materialized(Fleet::$fleet, $n);
        }
    )*};
}

grid! {
    lean_convergence_n8: LeanConvergence at 8;
    lean_convergence_n64: LeanConvergence at 64;
    lean_convergence_n130: LeanConvergence at 130;
    lean_agreement_n8: LeanAgreement at 8;
    lean_agreement_n64: LeanAgreement at 64;
    lean_agreement_n130: LeanAgreement at 130;
    wide_fd_n8: WideFd at 8;
    wide_fd_n64: WideFd at 64;
    wide_fd_n130: WideFd at 130;
}

/// E2's certificate the way it was computed when the simulator recorded:
/// the detector run on `abi` over the generator, every pulled step kept,
/// and the analyzer swept over the kept schedule. Returns the steps
/// executed and the certificate.
fn recorded_membership(
    scenario: &Scenario,
    k: usize,
    t: usize,
    abi: FdAbi,
) -> (u64, Option<TimelyPair>) {
    let universe = scenario.universe;
    let mut generator = scenario.generator.build(universe, scenario.seed);
    let mut executed = Schedule::new();
    let mut src = FromFn(|| {
        let step = generator.next_step()?;
        executed.push(step);
        Some(step)
    });
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t).with_policy(POLICY));
    let mut cfg = RunConfig::steps(scenario.budget);
    if scenario.stop == StopRule::AllCorrectDecided {
        cfg = cfg.stop_when(StopWhen::AllDecided(scenario.correct()));
    }
    match abi {
        FdAbi::Async | FdAbi::MachineSlot => {
            for p in universe.processes() {
                sim.spawn_automaton(p, fd.machine()).unwrap();
            }
            sim.run(&mut src, cfg)
        }
        FdAbi::MachineFleet => {
            let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
            sim.run_automata(&mut fleet, &mut src, cfg)
        }
    }
    .expect("cells stay within their universe");
    let certificate =
        TimelinessAnalyzer::new(universe).find_timely_pair(&executed, k, t + 1, 4 * (t + 1));
    (sim.steps_executed(), certificate)
}

/// E2's membership certificate, computed on a fresh build of the generator
/// cut at the steps the run executed, equals the recorded run's — on every
/// drive an FD scenario picks, under both stop rules, on conforming and
/// starving schedules and on a source that ends before the budget.
#[test]
fn membership_on_the_rebuilt_prefix_equals_the_recorded_one() {
    let (n, k, t) = (4, 1, 2);
    let universe = Universe::new(n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1, 2]);
    let timely = GeneratorSpec::set_timely(p, q, 2 * (t + 1), GeneratorSpec::seeded_random(0));
    let specs = [
        timely.clone(),
        timely
            .clone()
            .crashed(CrashPlan::new().crash(ProcessId::new(3), 1_000)),
        GeneratorSpec::RotatingStarvation { k, base: 8 },
        GeneratorSpec::replay(
            timely,
            GeneratorSpec::round_robin()
                .build(universe, 0)
                .take_schedule(4_321),
        ),
    ];
    let mut certified = Vec::new();
    for spec in specs {
        for abi in [FdAbi::Async, FdAbi::MachineSlot, FdAbi::MachineFleet] {
            for stop in [StopRule::BudgetOnly, StopRule::AllCorrectDecided] {
                let mut scenario = Scenario::new(
                    format!("{}/{abi:?}/{stop:?}", spec.family()),
                    universe,
                    spec.clone(),
                    Workload::FdConvergence {
                        k,
                        t,
                        policy: POLICY,
                        abi,
                        detector: FdDetector::SetBased,
                        certify_membership: true,
                    },
                    20_000,
                    3,
                );
                scenario.stop = stop;
                let outcome = scenario.run();
                let fd = outcome.data.as_fd().expect("an FD workload");
                let (steps, membership) = recorded_membership(&scenario, k, t, abi);
                assert_eq!(
                    (fd.steps, fd.membership),
                    (steps, membership),
                    "{}",
                    scenario.label
                );
                certified.push((fd.steps, fd.membership.is_some()));
            }
        }
    }
    // Both verdicts occur, and a source that ended early.
    assert!(certified.iter().any(|&(_, m)| m) && certified.iter().any(|&(_, m)| !m));
    assert!(certified.iter().any(|&(steps, _)| steps == 4_321));
}
