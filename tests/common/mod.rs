//! The transcription fixture's cases and the comparison that holds a
//! machine to them, shared by `tests/transcription.rs` and
//! `tests/differential.rs`.
//!
//! Figure 2, the Paxos proposer, the k-set agreement stack, the
//! process-timeliness baseline, the trivial `t < k` protocol and the BG
//! simulator were each first written as a loop that reads like the paper's
//! pseudocode, one awaited register operation at a time. Those loops are
//! gone; what they did on fixed schedules is kept as data in
//! `tests/fixtures/transcription.json`: per case, the probe events with
//! their step indices, the decisions with theirs, the completion flags, the
//! per-process operation counts, and the register footprint — every
//! register's name, read and write counts and final contents, the touched
//! ones listed and all of them folded into an FNV-1a digest.
//!
//! [`check`] runs each machine's fleet on the streamed drive
//! (`run_automata` over a cursor) and on replay (`run_automata_replay`),
//! and every field must equal the fixture's. A port that moves one operation to another step,
//! reads one register more, or publishes a probe one step late fails there.

// Every suite uses its own subset.
#![allow(dead_code)]

use set_timeliness::agreement::{KSetAgreement, Paxos, PaxosRecord, TrivialAgreement};
use set_timeliness::bgsim::{BgSimulation, FloodMin, StepMachine, TrivialKDecide};
use set_timeliness::core::json::Json;
use set_timeliness::core::{
    ProcSet, ProcessId, Schedule, ScheduleCursor, StepSource, Universe, Value,
};
use set_timeliness::fd::{KAntiOmega, KAntiOmegaConfig, ProcessTimelyDetector, TimeoutPolicy};
use set_timeliness::sched::{AlternatingRotation, CrashAfter, CrashPlan, Figure1, SeededRandom};
use set_timeliness::sim::{Automaton, Reg, RegValue, RunConfig, RunStatus, Sim, StopWhen};

pub const FIXTURE: &str = include_str!("../fixtures/transcription.json");

/// Which simulated algorithm a BG case runs.
#[derive(Clone, Copy, Debug)]
enum Simulated {
    Trivial { k: usize },
    FloodMin,
}

#[derive(Clone, Copy, Debug)]
enum Protocol {
    Kanti {
        k: usize,
        t: usize,
        policy: TimeoutPolicy,
    },
    Paxos,
    Kset {
        k: usize,
        t: usize,
    },
    Baseline {
        k: usize,
        t: usize,
        policy: TimeoutPolicy,
    },
    Trivial {
        k: usize,
    },
    Bg {
        simulated: Simulated,
        n_sim: usize,
        max_reads: usize,
    },
}

pub struct Case {
    pub label: String,
    pub n: usize,
    protocol: Protocol,
    schedule: Schedule,
    budget: u64,
    stop: StopWhen,
}

#[derive(Clone, Copy, Debug)]
pub enum Drive {
    Fleet,
    FleetReplay,
}

fn universe(n: usize) -> Universe {
    Universe::new(n).unwrap()
}

fn round_robin(n: usize, len: usize) -> Schedule {
    Schedule::from_indices((0..len).map(|s| s % n))
}

fn figure1(len: usize) -> Schedule {
    Figure1::new(ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)).take_schedule(len)
}

/// 10 000 round-robin steps of three processes, then 20 000 in which p2
/// has crashed.
fn crash_p2() -> Schedule {
    let mut steps: Vec<usize> = (0..10_000).map(|s| s % 3).collect();
    steps.extend((0..20_000).map(|s| s % 2));
    Schedule::from_indices(steps)
}

fn policy_name(policy: TimeoutPolicy) -> &'static str {
    match policy {
        TimeoutPolicy::Increment => "inc",
        TimeoutPolicy::Double => "dbl",
    }
}

/// A case run for exactly its schedule, with no stop rule.
fn whole(label: String, n: usize, protocol: Protocol, schedule: Schedule) -> Case {
    Case {
        label,
        n,
        protocol,
        budget: schedule.len() as u64,
        schedule,
        stop: StopWhen::Never,
    }
}

/// A schedule's name, `n`, `k`, `t` and the schedule.
type Run = (String, usize, usize, usize, Schedule);

/// Figure 2 on each of `runs` under both timeout policies.
fn kanti(runs: Vec<Run>) -> Vec<Case> {
    let mut cases = Vec::new();
    for (name, n, k, t, schedule) in runs {
        for policy in [TimeoutPolicy::Increment, TimeoutPolicy::Double] {
            let len = schedule.len();
            let policy_name = policy_name(policy);
            let label = format!("kanti/{name}/len{len}/n{n}/k{k}/t{t}/{policy_name}");
            let protocol = Protocol::Kanti { k, t, policy };
            cases.push(whole(label, n, protocol, schedule.clone()));
        }
    }
    cases
}

pub fn kanti_round_robin() -> Vec<Case> {
    kanti(vec![
        ("rr".into(), 3, 1, 1, round_robin(3, 30_000)),
        ("rr".into(), 4, 2, 2, round_robin(4, 40_000)),
        ("rr".into(), 5, 2, 3, round_robin(5, 50_000)),
    ])
}

pub fn kanti_seeded_random() -> Vec<Case> {
    let mut runs = Vec::new();
    for seed in [1u64, 0xDEAD, 0xFEED_5EED] {
        let s = SeededRandom::new(universe(4), seed).take_schedule(40_000);
        runs.push((format!("rnd{seed:x}"), 4, 1, 2, s.clone()));
        runs.push((format!("rnd{seed:x}"), 4, 2, 3, s));
    }
    kanti(runs)
}

pub fn kanti_figure1() -> Vec<Case> {
    kanti(vec![
        ("fig1".into(), 3, 1, 1, figure1(30_000)),
        ("fig1".into(), 3, 1, 2, figure1(30_000)),
    ])
}

/// Schedules and a `(k, t)` the other groups do not use, run with no stop
/// rule: fleet replay takes its schedule-slice fast loop.
pub fn kanti_fast_loop() -> Vec<Case> {
    let rnd = SeededRandom::new(universe(4), 0xFA57).take_schedule(20_000);
    kanti(vec![
        ("rr".into(), 4, 2, 2, round_robin(4, 20_000)),
        ("rndfa57".into(), 4, 2, 2, rnd),
    ])
}

pub fn kanti_crash() -> Vec<Case> {
    kanti(vec![("crash".into(), 3, 1, 2, crash_p2())])
}

/// Figure 2 on every (schedule, k, t, policy) of its groups, in fixture
/// order.
pub fn kanti_cases() -> Vec<Case> {
    [
        kanti_round_robin(),
        kanti_seeded_random(),
        kanti_figure1(),
        kanti_fast_loop(),
        kanti_crash(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Dueling proposers, fine-grained and bursty round-robin at several n.
pub fn paxos_round_robin() -> Vec<Case> {
    let mut cases = Vec::new();
    for n in [1usize, 2, 3, 5] {
        let rr = round_robin(n, 400);
        cases.push(whole(format!("paxos/rr/n{n}"), n, Protocol::Paxos, rr));
        let burst = 2 * n + 2;
        let bursty = Schedule::from_indices((0..(8 * n * burst)).map(|s| (s / burst) % n));
        cases.push(whole(
            format!("paxos/bursty/n{n}"),
            n,
            Protocol::Paxos,
            bursty,
        ));
    }
    cases
}

pub fn paxos_seeded_random() -> Vec<Case> {
    [2u64, 0xDEAD, 0xFEED_5EED]
        .into_iter()
        .map(|seed| {
            let s = SeededRandom::new(universe(4), seed).take_schedule(2_000);
            whole(format!("paxos/rnd{seed:x}/n4"), 4, Protocol::Paxos, s)
        })
        .collect()
}

pub fn paxos_figure1() -> Vec<Case> {
    vec![whole(
        "paxos/fig1/n3".into(),
        3,
        Protocol::Paxos,
        figure1(2_000),
    )]
}

/// p0 runs four steps (decision check, announce, a read, the phase-2
/// write), then is never scheduled again.
pub fn paxos_crash() -> Vec<Case> {
    let mut crash: Vec<usize> = vec![0, 0, 0, 0];
    crash.extend((0..600).map(|s| 1 + s % 2));
    let crash = Schedule::from_indices(crash);
    vec![whole("paxos/crash/n3".into(), 3, Protocol::Paxos, crash)]
}

/// Every Paxos case, in fixture order.
pub fn paxos_cases() -> Vec<Case> {
    [
        paxos_round_robin(),
        paxos_seeded_random(),
        paxos_figure1(),
        paxos_crash(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The FD + k-parallel-Paxos stack on each of `runs`.
fn kset(runs: Vec<Run>) -> Vec<Case> {
    runs.into_iter()
        .map(|(name, n, k, t, schedule)| {
            let label = format!("kset/{name}/n{n}/k{k}/t{t}");
            whole(label, n, Protocol::Kset { k, t }, schedule)
        })
        .collect()
}

pub fn kset_round_robin() -> Vec<Case> {
    kset(vec![
        ("rr".into(), 3, 1, 1, round_robin(3, 30_000)),
        ("rr".into(), 4, 2, 2, round_robin(4, 40_000)),
    ])
}

pub fn kset_seeded_random() -> Vec<Case> {
    let mut runs = Vec::new();
    for seed in [1u64, 0xBEEF] {
        let s = SeededRandom::new(universe(4), seed).take_schedule(40_000);
        runs.push((format!("rnd{seed:x}"), 4, 1, 2, s.clone()));
        runs.push((format!("rnd{seed:x}"), 4, 2, 3, s));
    }
    kset(runs)
}

pub fn kset_figure1() -> Vec<Case> {
    kset(vec![
        ("fig1".into(), 3, 1, 1, figure1(30_000)),
        ("fig1".into(), 3, 1, 2, figure1(30_000)),
    ])
}

pub fn kset_crash() -> Vec<Case> {
    kset(vec![("crash".into(), 3, 1, 2, crash_p2())])
}

/// Every k-set case, in fixture order.
pub fn kset_cases() -> Vec<Case> {
    [
        kset_round_robin(),
        kset_seeded_random(),
        kset_figure1(),
        kset_crash(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The process-timeliness baseline at n = 4, k = t = 2: round-robin, and
/// E8's alternating rotation, where it flaps.
pub fn baseline_cases() -> Vec<Case> {
    let groups = [ProcSet::from_indices([0, 1]), ProcSet::from_indices([2, 3])];
    let alternating = AlternatingRotation::new(&groups).take_schedule(30_000);
    let mut cases = Vec::new();
    for (name, schedule) in [("rr", round_robin(4, 30_000)), ("alternating", alternating)] {
        for policy in [TimeoutPolicy::Increment, TimeoutPolicy::Double] {
            let label = format!("baseline/{name}/n4/k2/t2/{}", policy_name(policy));
            let protocol = Protocol::Baseline { k: 2, t: 2, policy };
            cases.push(whole(label, 4, protocol, schedule.clone()));
        }
    }
    cases
}

/// The trivial `t < k` protocol on its unit tests' crash cases, run until
/// every correct process decided.
pub fn trivial_cases() -> Vec<Case> {
    let runs = [
        (5usize, 3usize, ProcSet::EMPTY, 1u64),
        (5, 3, ProcSet::from_indices([0, 1]), 2),
        (6, 2, ProcSet::EMPTY, 3),
    ];
    runs.into_iter()
        .map(|(n, k, crashed, seed)| {
            let plan = CrashPlan::all_at(crashed, 0);
            let mut source = CrashAfter::new(SeededRandom::new(universe(n), seed), plan);
            Case {
                label: format!("trivial/n{n}/k{k}/crashed{:x}/seed{seed}", crashed.bits()),
                n,
                protocol: Protocol::Trivial { k },
                schedule: source.take_schedule(100_000),
                budget: 100_000,
                stop: StopWhen::AllDecided(crashed.complement(universe(n))),
            }
        })
        .collect()
}

/// The BG simulator on round-robin and on its tests' crash schedules, run
/// until every simulator finished.
pub fn bg_cases() -> Vec<Case> {
    let bg = |label: &str, sims: usize, simulated, n_sim, max_reads, schedule| Case {
        label: label.to_string(),
        n: sims,
        protocol: Protocol::Bg {
            simulated,
            n_sim,
            max_reads,
        },
        schedule,
        budget: 200_000,
        stop: StopWhen::AllFinished(ProcSet::full(universe(sims))),
    };
    let trivial = |k| Simulated::Trivial { k };
    let mut cases = vec![
        bg(
            "bg/rr/trivial/k2/nsim5",
            3,
            trivial(2),
            5,
            64,
            round_robin(3, 200_000),
        ),
        bg(
            "bg/rr/floodmin/nsim4",
            2,
            Simulated::FloodMin,
            4,
            64,
            round_robin(2, 200_000),
        ),
        bg(
            "bg/rr/trivial/k1/nsim3",
            2,
            trivial(1),
            3,
            32,
            round_robin(2, 200_000),
        ),
    ];
    for crash in [5u64, 17, 40, 99] {
        let plan = CrashPlan::new().crash(ProcessId::new(0), crash);
        let mut source = CrashAfter::new(SeededRandom::new(universe(3), crash), plan);
        let label = format!("bg/crash{crash}/trivial/k2/nsim5");
        cases.push(bg(
            &label,
            3,
            trivial(2),
            5,
            64,
            source.take_schedule(200_000),
        ));
    }
    let mixed = Schedule::from_indices((0..40_000).map(|i| (i * 7 + i / 11) % 3));
    cases.push(bg("bg/mixed/trivial/k2/nsim4", 3, trivial(2), 4, 64, mixed));
    cases
}

/// The proposals of an `n`-process Paxos or k-set case.
pub fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|v| 100 + 3 * v).collect()
}

/// Runs one machine per process over the case on `drive`.
fn run_on<A: Automaton>(sim: &mut Sim, mut fleet: Vec<A>, case: &Case, drive: Drive) -> RunStatus {
    let cfg = RunConfig::steps(case.budget).stop_when(case.stop);
    match drive {
        Drive::Fleet => {
            let mut src = ScheduleCursor::new(case.schedule.clone());
            sim.run_automata(&mut fleet, &mut src, cfg)
        }
        Drive::FleetReplay => sim.run_automata_replay(&mut fleet, &case.schedule, cfg),
    }
    .expect("the case's schedule stays in its universe")
}

fn run_bg<M: StepMachine + Clone>(
    sim: &mut Sim,
    simulated: Vec<M>,
    max_reads: usize,
    case: &Case,
    drive: Drive,
) -> RunStatus {
    let bg = BgSimulation::alloc(sim, simulated, max_reads);
    let simulators = (0..case.n).map(|_| bg.simulator()).collect();
    run_on(sim, simulators, case, drive)
}

/// Runs the case's machines on `drive`.
pub fn run(case: &Case, drive: Drive) -> (Sim, RunStatus) {
    let n = case.n;
    let mut sim = Sim::new(universe(n));
    let status = match case.protocol {
        Protocol::Kanti { k, t, policy } => {
            let config = KAntiOmegaConfig::new(k, t).with_policy(policy);
            let fd = KAntiOmega::alloc(&mut sim, config);
            run_on(
                &mut sim,
                (0..n).map(|_| fd.machine()).collect(),
                case,
                drive,
            )
        }
        Protocol::Paxos => {
            let paxos = Paxos::alloc(&mut sim, "px");
            let machines = inputs(n).into_iter().map(|v| paxos.machine(v)).collect();
            run_on(&mut sim, machines, case, drive)
        }
        Protocol::Kset { k, t } => {
            let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
            let kset = KSetAgreement::alloc(&mut sim, k);
            let machines = inputs(n)
                .into_iter()
                .map(|v| kset.machine(&fd, v))
                .collect();
            run_on(&mut sim, machines, case, drive)
        }
        Protocol::Baseline { k, t, policy } => {
            let fd = ProcessTimelyDetector::alloc(&mut sim, k, t, policy);
            run_on(
                &mut sim,
                (0..n).map(|_| fd.machine()).collect(),
                case,
                drive,
            )
        }
        Protocol::Trivial { k } => {
            let object = TrivialAgreement::alloc(&mut sim, k);
            let machines = (0..n as Value).map(|v| object.machine(50 + v)).collect();
            run_on(&mut sim, machines, case, drive)
        }
        Protocol::Bg {
            simulated,
            n_sim,
            max_reads,
        } => match simulated {
            Simulated::Trivial { k } => {
                let machines = (0..n_sim)
                    .map(|u| TrivialKDecide::new(u, k, 300 + u as Value))
                    .collect();
                run_bg(&mut sim, machines, max_reads, case, drive)
            }
            Simulated::FloodMin => {
                let machines = (0..n_sim)
                    .map(|u| FloodMin::new(n_sim, 10 + u as Value))
                    .collect();
                run_bg(&mut sim, machines, max_reads, case, drive)
            }
        },
    };
    (sim, status)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A handle of type `T` at arena word `first` of any simulation, for a
/// typed peek: a `T` allocated after `first % T::WORDS` padding words, then
/// stepped on by whole registers.
fn handle<T: RegValue + Default>(first: usize) -> Reg<T> {
    let mut sim = Sim::new(universe(1));
    for _ in 0..first % T::WORDS {
        sim.alloc("pad", 0u64);
    }
    sim.alloc("base", T::default()).at(first / T::WORDS)
}

/// The run as the fixture records it.
fn observe(label: &str, sim: &Sim, status: RunStatus) -> Json {
    let report = sim.report();
    let probes = report.probes.events().iter().map(|e| {
        Json::arr([
            Json::U64(e.step),
            Json::U64(e.pid.index() as u64),
            Json::str(e.key),
            Json::U64(e.value),
        ])
    });
    let decisions = report.decisions.iter().map(|d| match d {
        None => Json::Null,
        Some(d) => Json::arr([Json::U64(d.value), Json::U64(d.step)]),
    });
    // The register types the protocols allocate, tried in turn at the
    // register's first word.
    let contents = |first: usize| -> String {
        if let Ok(v) = sim.try_peek(handle::<u64>(first)) {
            return v.to_string();
        }
        if let Ok(v) = sim.try_peek(handle::<Option<Value>>(first)) {
            return format!("{v:?}");
        }
        if let Ok(v) = sim.try_peek(handle::<(u64, Option<Value>)>(first)) {
            return format!("{v:?}");
        }
        if let Ok(v) = sim.try_peek(handle::<PaxosRecord>(first)) {
            return format!("{v:?}");
        }
        panic!("register at word {first} holds a type the fixture does not know");
    };
    let stats = sim.memory().stats();
    let mut digest = FNV_OFFSET;
    let mut touched = Vec::new();
    for (i, s) in stats.iter().enumerate() {
        let value = contents(s.index);
        let name = sim.memory().name(s.index).unwrap();
        let line = format!("{}\t{}\t{}\t{}\n", name, s.reads, s.writes, value);
        digest = fnv1a(digest, line.as_bytes());
        if s.reads + s.writes > 0 {
            touched.push(Json::arr([
                Json::U64(i as u64),
                Json::str(name),
                Json::U64(s.reads),
                Json::U64(s.writes),
                Json::str(value),
            ]));
        }
    }
    Json::obj([
        ("label", Json::str(label)),
        ("status", Json::str(format!("{status:?}"))),
        ("steps", Json::U64(report.steps)),
        ("probes", Json::arr(probes)),
        ("decisions", Json::arr(decisions)),
        (
            "finished",
            Json::arr(report.finished.iter().map(|&f| Json::Bool(f))),
        ),
        (
            "op_counts",
            Json::arr(report.op_counts.iter().map(|&c| Json::U64(c))),
        ),
        ("registers", Json::U64(stats.len() as u64)),
        ("register_digest", Json::U64(digest)),
        ("touched", Json::Arr(touched)),
    ])
}

/// The fixture's cases, in order.
pub fn fixture() -> Vec<Json> {
    let doc = Json::parse(FIXTURE).expect("the fixture parses");
    doc.get("cases")
        .and_then(Json::as_arr)
        .expect("the fixture holds a case list")
        .to_vec()
}

pub fn label(case: &Json) -> &str {
    case.get("label").and_then(Json::as_str).expect("labelled")
}

/// Where two field values first differ, for a readable failure.
fn first_difference(want: &Json, got: &Json) -> String {
    match (want.as_arr(), got.as_arr()) {
        (Some(w), Some(g)) => match w.iter().zip(g).position(|(a, b)| a != b) {
            Some(i) => format!("entry {i}: want {}, got {}", w[i], g[i]),
            None => format!("{} entries wanted, {} got", w.len(), g.len()),
        },
        _ => format!("want {want}, got {got}"),
    }
}

/// Holds every case of `cases` to the fixture on both drives.
pub fn check(cases: Vec<Case>) {
    let fixture = fixture();
    for case in &cases {
        let want = fixture
            .iter()
            .find(|c| label(c) == case.label)
            .unwrap_or_else(|| panic!("{}: not in the fixture", case.label));
        for drive in [Drive::Fleet, Drive::FleetReplay] {
            let (sim, status) = run(case, drive);
            let got = observe(&case.label, &sim, status);
            let Json::Obj(fields) = want else {
                panic!("{}: a case is an object", case.label)
            };
            for (field, want) in fields {
                let got = got.get(field).expect("observe writes every field");
                assert!(
                    want == got,
                    "{}/{drive:?}: {field} diverged from the transcription ({})",
                    case.label,
                    first_difference(want, got)
                );
            }
        }
    }
}
