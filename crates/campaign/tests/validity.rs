//! One validity predicate, tested as a property: over arbitrary — mostly
//! out-of-range — scenarios at n ∈ {1, 4, 64, 65, 130},
//!
//! - `Scenario::validate` never panics;
//! - a scenario it accepts runs (`Scenario::run`, small budgets) without a
//!   panic;
//! - a scenario it refuses is refused by `read_scenario` with the same
//!   text;
//!
//! and every tree `SpecMutator::arbitrary` and `mutate` emit is valid. The
//! generator below draws each parameter from the edges of its range (0, 1,
//! n − 1, n, n + 1, a process just past the universe, an empty set), so
//! every refusal is reached and so is its valid twin.
//!
//! The deeper pass is `#[ignore]`d: `cargo test --release -p st-campaign
//! --test validity -- --ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use st_campaign::store::{read_scenario, write_scenario};
use st_campaign::{
    CertifyTimely, FdAbi, FdDetector, FleetReplayDrive, GeneratorSpec, Scenario, StopRule, Workload,
};
use st_core::subsets::binomial;
use st_core::{ProcSet, ProcessId, Schedule, Universe, PROCSET_CAPACITY};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, SpecMutator, SpecRng};

/// The universe sizes every property runs at: the smallest, a small one,
/// both sides of the single-word wall, and one past two words.
const SIZES: [usize; 5] = [1, 4, 64, 65, 130];

/// Arbitrary scenarios over `n` processes, drawn at the edges of every
/// range.
struct Draw {
    rng: SpecRng,
    n: usize,
}

impl Draw {
    fn below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }

    fn coin(&mut self, num: u64, den: u64) -> bool {
        self.rng.chance(num, den)
    }

    /// A size or degree: 0, 1, 2, n − 1, n, n + 1 or a small number.
    fn count(&mut self) -> usize {
        let n = self.n;
        match self.below(7) {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => n.saturating_sub(1),
            4 => n,
            5 => n + 1,
            _ => self.below(6) as usize,
        }
    }

    /// Mostly a draw in `lo..=hi` (when that is not empty), sometimes a
    /// [`count`](Self::count) at the edges.
    fn within(&mut self, lo: usize, hi: usize) -> usize {
        if lo <= hi && self.coin(4, 5) {
            lo + self.below((hi - lo + 1) as u64) as usize
        } else {
            self.count()
        }
    }

    /// A step count: mostly small and positive, sometimes 0.
    fn steps(&mut self) -> u64 {
        match self.below(10) {
            0 => 0,
            1 => 1,
            _ => 1 + self.below(40),
        }
    }

    /// An inclusive range, ordered nine times in ten.
    fn range(&mut self) -> (u64, u64) {
        let (a, b) = (self.steps(), self.steps());
        if self.coin(9, 10) {
            (a.min(b), a.max(b))
        } else {
            (a, b)
        }
    }

    /// A process of the universe, or one just past it.
    fn pid(&mut self) -> ProcessId {
        let n = self.n as u64;
        let ix = if self.coin(1, 20) {
            n + self.below(2)
        } else {
            self.below(n)
        };
        ProcessId::new(ix as usize)
    }

    /// A set the width of a word: members of the universe, sometimes
    /// empty, sometimes with a member just past the universe.
    fn set(&mut self) -> ProcSet {
        let width = self.n.min(PROCSET_CAPACITY);
        let mut set = ProcSet::EMPTY;
        if self.coin(1, 20) {
            return set;
        }
        for _ in 0..=self.below(3) {
            set.insert(ProcessId::new(self.below(width as u64) as usize));
        }
        if self.n < PROCSET_CAPACITY && self.coin(1, 20) {
            set.insert(ProcessId::new(self.n));
        }
        set
    }

    /// A task's `(t, k)`: mostly `1 ≤ k ≤ t ≤ n − 1`, else at the edges.
    fn task(&mut self) -> (usize, usize) {
        let t = self.within(1, self.n.saturating_sub(1));
        (t, self.within(1, t))
    }

    fn schedule(&mut self) -> Schedule {
        let len = self.below(6);
        let mut s = Schedule::new();
        for _ in 0..len {
            let p = self.pid();
            s.push(p);
        }
        s
    }

    fn plan(&mut self) -> CrashPlan {
        let mut plan = CrashPlan::new();
        for _ in 0..self.below(3) {
            let p = self.pid();
            plan = plan.crash(p, self.below(3_000));
        }
        plan
    }

    fn boxed(&mut self, depth: usize) -> Box<GeneratorSpec> {
        Box::new(self.generator(depth))
    }

    /// Every generator family, decorators down to `depth` more levels.
    fn generator(&mut self, depth: usize) -> GeneratorSpec {
        let families = if depth == 0 { 10 } else { 17 };
        match self.below(families) {
            0 => GeneratorSpec::RoundRobin {
                over: self.coin(1, 2).then(|| self.set()),
            },
            1 => GeneratorSpec::Bursty {
                burst: self.steps(),
            },
            2 => {
                let over = self.coin(1, 2).then(|| self.set());
                let members = over.map_or(self.n, ProcSet::len);
                let weights = self.coin(1, 2).then(|| {
                    let len = match self.below(4) {
                        0 => members + 1,
                        1 => members.saturating_sub(1),
                        _ => members,
                    };
                    (0..len).map(|_| self.below(3) as u32).collect()
                });
                GeneratorSpec::SeededRandom {
                    over,
                    seed_offset: self.below(100),
                    weights,
                }
            }
            3 => GeneratorSpec::Figure1 {
                p1: self.pid(),
                p2: self.pid(),
                q: self.pid(),
            },
            4 => GeneratorSpec::GeneralizedFigure1 {
                p: self.set(),
                q: self.set(),
            },
            5 => GeneratorSpec::RotatingStarvation {
                k: self.within(1, self.n.saturating_sub(1)),
                base: self.steps(),
            },
            6 => {
                let (t, k) = self.task();
                let i = self.within(1, k);
                // The unsolvable side: j − i ≤ t − k.
                let j = self.within(i, (i + t).saturating_sub(k));
                GeneratorSpec::FictitiousCrash {
                    i,
                    j,
                    t,
                    k,
                    base: self.steps(),
                }
            }
            7 => GeneratorSpec::Cycle {
                period: self.schedule(),
            },
            8 => GeneratorSpec::AlternatingRotation {
                groups: (0..self.below(4)).map(|_| self.set()).collect(),
                base: self.steps(),
            },
            9 => GeneratorSpec::Replay {
                of: self.boxed(0),
                schedule: self.schedule(),
            },
            10 => GeneratorSpec::SetTimely {
                p: self.set(),
                q: self.set(),
                bound: self.count(),
                filler: self.boxed(depth - 1),
                crashes: if self.coin(1, 3) {
                    self.plan()
                } else {
                    CrashPlan::new()
                },
            },
            11 => GeneratorSpec::Eventually {
                prefix: self.boxed(depth - 1),
                prefix_len: self.below(50),
                body: self.boxed(depth - 1),
            },
            12 => GeneratorSpec::CrashAfter {
                inner: self.boxed(depth - 1),
                plan: self.plan(),
            },
            13 => GeneratorSpec::Flapping {
                p: self.set(),
                q: self.set(),
                bound: self.count(),
                filler: self.boxed(depth - 1),
                timely_dwell: self.range(),
                untimely_dwell: self.range(),
                seed_offset: self.below(100),
            },
            14 => GeneratorSpec::GrayFailure {
                inner: self.boxed(depth - 1),
                gray: self.set(),
                stretch: self.steps(),
                seed_offset: self.below(100),
            },
            15 => GeneratorSpec::BurstClog {
                inner: self.boxed(depth - 1),
                clogger: self.pid(),
                window: self.steps(),
                gap: self.range(),
                seed_offset: self.below(100),
            },
            _ => {
                let (crash, rejoin) = self.range();
                GeneratorSpec::CrashRecovery {
                    inner: self.boxed(depth - 1),
                    victim: self.pid(),
                    crash,
                    rejoin,
                }
            }
        }
    }

    fn policy(&mut self) -> TimeoutPolicy {
        if self.coin(1, 2) {
            TimeoutPolicy::Increment
        } else {
            TimeoutPolicy::Double
        }
    }

    fn drive(&mut self) -> FleetReplayDrive {
        match self.below(6) {
            0 | 1 => FleetReplayDrive::Plain,
            2 => FleetReplayDrive::Soa { slice_len: 0 },
            3 => FleetReplayDrive::Soa { slice_len: 1 },
            _ => FleetReplayDrive::Soa { slice_len: 64 },
        }
    }

    fn inputs(&mut self) -> Vec<u64> {
        let len = match self.below(6) {
            0 => self.n + 1,
            1 => self.n.saturating_sub(1),
            _ => self.n,
        };
        (0..len as u64).collect()
    }

    /// Every workload, its sizes and degrees at the edges of their ranges.
    fn workload(&mut self) -> Workload {
        match self.below(7) {
            0 => {
                let (t, k) = self.task();
                Workload::FdConvergence {
                    k,
                    t,
                    policy: self.policy(),
                    abi: [FdAbi::Async, FdAbi::MachineSlot, FdAbi::MachineFleet]
                        [self.below(3) as usize],
                    detector: if self.coin(1, 2) {
                        FdDetector::SetBased
                    } else {
                        FdDetector::ProcessBased
                    },
                    certify_membership: self.coin(1, 3),
                }
            }
            1 => Workload::Agreement {
                t: self.within(1, self.n.saturating_sub(1)),
                k: self.within(1, self.n),
                inputs: self.inputs(),
                policy: self.policy(),
                certify: self.coin(1, 3).then(|| CertifyTimely {
                    i: self.within(1, 3),
                    j: self.within(1, 3),
                    cap: self.below(4) as usize,
                    prefix_len: self.below(300),
                }),
            },
            2 => {
                let (t, k) = self.task();
                Workload::AdversarialAgreement {
                    t,
                    k,
                    inputs: self.inputs(),
                    policy: self.policy(),
                    precrashed: if self.coin(1, 4) {
                        ProcSet::from_indices(0..self.n.min(PROCSET_CAPACITY))
                    } else {
                        self.set()
                    },
                    witness: self.coin(1, 3).then(|| (self.set(), self.set())),
                }
            }
            3 => Workload::BgReduction {
                n_sim: [0, 1, 2, 3, 64, 65][self.below(6) as usize],
                k: self.below(4) as usize,
                max_reads: self.below(5) as usize,
            },
            4 => Workload::LeanConvergence {
                t: self.within(1, self.n.saturating_sub(1)),
                policy: self.policy(),
                drive: self.drive(),
            },
            5 => Workload::LeanAgreement {
                t: self.within(1, self.n.saturating_sub(1)),
                policy: self.policy(),
                drive: self.drive(),
            },
            _ => {
                let (t, k) = self.task();
                Workload::WideFdConvergence {
                    k,
                    t,
                    policy: self.policy(),
                    drive: self.drive(),
                }
            }
        }
    }

    fn scenario(&mut self, budget: u64) -> Scenario {
        let depth = self.below(3) as usize;
        let generator = self.generator(depth);
        let workload = self.workload();
        Scenario {
            label: "validity".into(),
            universe: Universe::new(self.n).unwrap(),
            generator,
            workload,
            stop: if self.coin(1, 2) {
                StopRule::BudgetOnly
            } else {
                StopRule::AllCorrectDecided
            },
            budget: self.below(budget),
            seed: self.rng.next_u64(),
            faulty: if self.coin(1, 2) {
                ProcSet::EMPTY
            } else {
                self.set()
            },
        }
    }
}

/// Whether a valid scenario is cheap enough to run in a debug test. Some
/// valid parameters are not: Figure 2 keeps `C(n, k)·n` counters, the
/// analyzer sweeps `Π^i_n × Π^j_n`, the BG verdict every live
/// `(k + 1)`-set — `validate` bounds the arena's handle space, not what a
/// test can afford in memory and time.
fn affordable(s: &Scenario) -> bool {
    const CAP: u64 = 1 << 16;
    let n = s.universe.n();
    let sets = |k: usize| binomial(n, k);
    let arena = |k: usize| sets(k).saturating_mul(n as u64) <= CAP;
    let sweep = |i: usize, j: usize| sets(i).saturating_mul(sets(j)) <= CAP;
    match &s.workload {
        Workload::FdConvergence {
            k,
            t,
            detector,
            certify_membership,
            ..
        } => {
            (*detector == FdDetector::ProcessBased || arena(*k))
                && (!certify_membership || sweep(*k, t + 1))
        }
        Workload::Agreement { k, certify, .. } => {
            arena(*k) && certify.is_none_or(|c| sweep(c.i, c.j))
        }
        Workload::AdversarialAgreement { k, .. } | Workload::WideFdConvergence { k, .. } => {
            arena(*k)
        }
        Workload::BgReduction { n_sim, k, .. } => binomial(*n_sim, k + 1) <= 4_096,
        Workload::LeanConvergence { .. } | Workload::LeanAgreement { .. } => true,
    }
}

/// The panic message of an unwind, for the failure report.
fn message(panic: Box<dyn std::any::Any + Send>) -> String {
    match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(text), _) => text.to_string(),
        (None, Some(text)) => text.clone(),
        (None, None) => "(no message)".into(),
    }
}

/// The three scenario properties over `cases` arbitrary scenarios at each
/// size, runs capped at `budget` steps. Returns how many were valid and
/// run, and how many refused.
fn check_scenarios(cases: u64, budget: u64) -> (usize, usize) {
    let (mut ran, mut refused) = (0, 0);
    for n in SIZES {
        for case in 0..cases {
            let mut draw = Draw {
                rng: SpecRng::new(case.wrapping_mul(0x9E37_79B9) ^ n as u64),
                n,
            };
            let scenario = draw.scenario(budget);
            let verdict = catch_unwind(AssertUnwindSafe(|| scenario.validate()))
                .unwrap_or_else(|p| panic!("validate panicked ({}) on {scenario:?}", message(p)));
            match verdict {
                Ok(()) => {
                    if !affordable(&scenario) {
                        continue;
                    }
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| scenario.run())) {
                        panic!("a valid scenario panicked ({}): {scenario:?}", message(p));
                    }
                    ran += 1;
                }
                Err(why) => {
                    let mut text = String::new();
                    write_scenario(&scenario, &mut text);
                    let decoded = read_scenario(&mut st_core::json::Cursor::new(&text)).unwrap();
                    assert_eq!(decoded, Err(why), "{scenario:?}");
                    refused += 1;
                }
            }
        }
    }
    (ran, refused)
}

/// The mutator's trees are valid by construction: every `arbitrary` tree
/// and every `mutate` step from it, over `rounds` seeds per size. A crash
/// plan must spare a process, so the mutator needs `n ≥ 2`.
fn check_mutator(rounds: u64) {
    for n in [2, 4, 64] {
        let universe = Universe::new(n).unwrap();
        let mutator = SpecMutator::new(universe);
        for seed in 0..rounds {
            let mut rng = SpecRng::new(seed ^ (n as u64) << 32);
            let mut spec = mutator.arbitrary(&mut rng, 3);
            for step in 0..8 {
                assert_eq!(
                    spec.validate(universe),
                    Ok(()),
                    "n = {n}, step {step}: {spec:?}"
                );
                spec = mutator.mutate(&spec, &mut rng);
            }
        }
    }
}

#[test]
fn validate_is_total_and_what_it_accepts_runs() {
    let (ran, refused) = check_scenarios(1_500, 2_000);
    // Both sides of the predicate are reached, many times over.
    assert!(
        ran >= 1_000 && refused >= 4_000,
        "ran {ran}, refused {refused}"
    );
}

#[test]
fn mutator_trees_are_valid() {
    check_mutator(200);
}

#[test]
#[ignore = "the deeper pass; run with --release -- --ignored"]
fn validate_is_total_and_what_it_accepts_runs_deep() {
    let (ran, refused) = check_scenarios(20_000, 3_000);
    assert!(
        ran >= 10_000 && refused >= 50_000,
        "ran {ran}, refused {refused}"
    );
    check_mutator(5_000);
}
