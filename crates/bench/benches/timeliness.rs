//! Timeliness sweep bench — the zero-allocation engine
//! ([`TimelinessAnalyzer`]) against the kept naive reference
//! ([`st_core::timeliness::naive`]) on full `Π^i_n × Π^j_n` matrix sweeps,
//! the work-stealing matrix sweep, the
//! simulator's two automaton ABIs on the Figure 2 k-anti-Ω workload, the
//! scenario-campaign engine's throughput on an E3-shaped grid (1 vs 4
//! workers) and its resume overhead (skip-all drive + outcome-store round
//! trip), plus the `BENCH_timeliness.json` baseline emitter that records
//! the repository's perf trajectory.
//!
//! Sweep workloads follow the acceptance shape of the engine: `n = 12`,
//! `L = 100_000`-step schedules, both a near-synchronous (round-robin) and
//! a seeded-random schedule — the two ends of the dedup spectrum (the
//! round-robin decomposition collapses to a couple of distinct run
//! histograms; the random one exercises the sorted early-exit path). The
//! simulator workload is the E2 convergence shape: `n = 8` k-anti-Ω with
//! `k = 2`, `t = 3` on a conforming `SetTimely` schedule.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use st_core::timeliness::{naive, sweep_matrix, TimelinessAnalyzer};
use st_core::{ProcSet, ProcessId, Schedule, StepSource, Universe};
use st_fd::{KAntiOmega, KAntiOmegaConfig};
use st_sched::{RoundRobin, SeededRandom, SetTimely};

const N: usize = 12;
const LEN: usize = 100_000;
const CAP: usize = 2 * N;
const I: usize = 2;
const J: usize = 2;

fn universe() -> Universe {
    Universe::new(N).unwrap()
}

fn round_robin_schedule() -> Schedule {
    RoundRobin::new(universe()).take_schedule(LEN)
}

fn seeded_random_schedule() -> Schedule {
    SeededRandom::new(universe(), 0xBEEF).take_schedule(LEN)
}

fn matrix_sweeps(c: &mut Criterion) {
    let rr = round_robin_schedule();
    let rnd = seeded_random_schedule();
    let mut group = c.benchmark_group("timeliness/all_timely_pairs");
    group.sample_size(10);
    group.bench_function("naive_rr_i2_j2", |b| {
        b.iter(|| naive::all_timely_pairs(&rr, universe(), I, J, CAP).len())
    });
    group.bench_function("engine_rr_i2_j2", |b| {
        let mut az = TimelinessAnalyzer::new(universe());
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            az.all_timely_pairs_into(&rr, I, J, CAP, &mut out);
            out.len()
        })
    });
    group.bench_function("naive_rnd_i2_j2", |b| {
        b.iter(|| naive::all_timely_pairs(&rnd, universe(), I, J, CAP).len())
    });
    group.bench_function("engine_rnd_i2_j2", |b| {
        let mut az = TimelinessAnalyzer::new(universe());
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            az.all_timely_pairs_into(&rnd, I, J, CAP, &mut out);
            out.len()
        })
    });
    group.finish();

    // The full n×n matrix in one call (shared decompositions + threads);
    // no naive partner — the naive full matrix is out of time budget by
    // orders of magnitude, which is the point of the engine.
    let mut group = c.benchmark_group("timeliness/sweep_matrix");
    group.sample_size(10);
    group.bench_function("engine_full_n12_rnd", |b| {
        b.iter(|| {
            sweep_matrix(&rnd, universe(), CAP, usize::MAX)
                .cells()
                .iter()
                .map(|c| c.timely_pairs)
                .sum::<u64>()
        })
    });
    group.finish();
}

// The n = 8 convergence workload of the step-throughput acceptance
// criterion: every process runs the Figure 2 detector with k = 2, t = 3 on
// a conforming SetTimely schedule.
const SIM_N: usize = 8;
const SIM_K: usize = 2;
const SIM_T: usize = 3;

/// The conforming E2 schedule for the workload, materialized once: driving
/// the run from a pre-generated schedule (a cursor over an array) keeps the
/// measurement on the executor + automaton cost, not on the SetTimely
/// generator, which costs more per step than either ABI.
fn kanti_schedule(steps: u64) -> Schedule {
    let u = Universe::new(SIM_N).unwrap();
    let p: ProcSet = (0..SIM_K).map(ProcessId::new).collect();
    let q: ProcSet = (0..=SIM_T).map(ProcessId::new).collect();
    SetTimely::new(p, q, 2 * (SIM_T + 1), SeededRandom::new(u, 7)).take_schedule(steps as usize)
}

/// Runs the kanti workload over `schedule` on the chosen ABI; returns the
/// executed step count (consumed by `black_box`). The machine side runs as
/// a typed fleet over the replay drive — the state-machine ABI's fastest
/// mode; the async side is driven by the equivalent schedule cursor (the
/// only drive a boxed future admits).
fn run_kanti_workload(schedule: &Schedule, machine: bool) -> u64 {
    use st_core::ScheduleCursor;
    use st_sim::{RunConfig, Sim};
    let u = Universe::new(SIM_N).unwrap();
    let mut sim = Sim::new(u);
    let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(SIM_K, SIM_T));
    if machine {
        let mut fleet: Vec<_> = u.processes().map(|_| fd.machine()).collect();
        sim.run_automata_replay(
            &mut fleet,
            schedule,
            RunConfig::steps(schedule.len() as u64),
        )
        .unwrap();
    } else {
        for p in u.processes() {
            let fd = fd.clone();
            sim.spawn(p, move |ctx| fd.run(ctx)).unwrap();
        }
        let mut src = ScheduleCursor::new(schedule.clone());
        sim.run(&mut src, RunConfig::steps(schedule.len() as u64))
            .unwrap();
    }
    sim.steps_executed()
}

/// Async poll path vs explicit state machine on identical workloads — the
/// step-throughput lever this bench exists to track.
fn sim_step_throughput(c: &mut Criterion) {
    let schedule = kanti_schedule(200_000);
    let mut group = c.benchmark_group("sim/step_throughput");
    group.sample_size(10);
    group.bench_function("kanti_async_200k_n8", |b| {
        b.iter(|| run_kanti_workload(&schedule, false))
    });
    group.bench_function("kanti_machine_200k_n8", |b| {
        b.iter(|| run_kanti_workload(&schedule, true))
    });
    group.finish();
}

// The E3 workload of the agreement step-throughput acceptance criterion:
// the full FD + k-parallel-Paxos stack on a conforming SetTimely schedule,
// run until every process decides — the E3 construction at the E2 universe
// size (n = 8, where the FD's counter matrix makes the stepping cost real;
// the small E3 grid rows decide in a few hundred steps and measure only
// setup).
const AG_N: usize = 8;
const AG_K: usize = 3;
const AG_T: usize = 4;

/// The conforming E3 schedule for the agreement workload, materialized once
/// (as for the kanti workload: measure the executor + automata, not the
/// generator).
fn agreement_schedule(steps: usize) -> Schedule {
    let u = Universe::new(AG_N).unwrap();
    let p: ProcSet = (0..AG_K.min(AG_T)).map(ProcessId::new).collect();
    let q: ProcSet = (0..=AG_T).map(ProcessId::new).collect();
    SetTimely::new(p, q, 2 * (AG_T + 1), SeededRandom::new(u, 3)).take_schedule(steps)
}

/// How the agreement workload is executed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AgreementMode {
    /// Async stack in future slots, cursor drive to all-decided.
    Async,
    /// `KSetAgreementMachine` stack in automaton slots, cursor drive to
    /// all-decided — the mode E3/E4 run in.
    MachineSlot,
    /// Typed fleet on the plain replay drive (no stop condition: the
    /// schedule is pre-truncated at the decision step).
    FleetReplay,
    /// Typed fleet on the struct-of-arrays phase-batched replay drive.
    FleetReplaySoa,
}

/// Runs the (t,k,n) = (4,3,8) stack over `schedule` in the chosen mode;
/// returns executed steps and the wall-clock of the **drive only** (stack
/// construction and the cursor's schedule clone excluded — at ~8k steps to
/// decision they would otherwise dominate the per-step figure).
fn run_agreement_workload(schedule: &Schedule, mode: AgreementMode) -> (u64, f64) {
    use st_agreement::{KSetAgreement, StackAbi};
    use st_core::{AgreementTask, ScheduleCursor};
    use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy};
    use st_sim::{RunConfig, Sim, StopWhen};

    let task = AgreementTask::new(AG_T, AG_K, AG_N).unwrap();
    let inputs: Vec<u64> = (0..AG_N as u64).collect();
    match mode {
        AgreementMode::Async | AgreementMode::MachineSlot => {
            let abi = if mode == AgreementMode::Async {
                StackAbi::Async
            } else {
                StackAbi::Machine
            };
            let mut stack = st_agreement::AgreementStack::build_abi(
                task,
                &inputs,
                TimeoutPolicy::Increment,
                false,
                abi,
            );
            let mut src = ScheduleCursor::new(schedule.clone());
            let full = ProcSet::full(task.universe());
            let start = Instant::now();
            stack
                .sim_mut()
                .run(
                    &mut src,
                    RunConfig::steps(schedule.len() as u64).stop_when(StopWhen::AllDecided(full)),
                )
                .unwrap();
            (stack.sim().steps_executed(), start.elapsed().as_secs_f64())
        }
        AgreementMode::FleetReplay | AgreementMode::FleetReplaySoa => {
            let u = task.universe();
            let mut sim = Sim::new(u);
            let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(AG_K, AG_T));
            let kset = KSetAgreement::alloc(&mut sim, AG_K);
            let mut fleet: Vec<_> = u
                .processes()
                .map(|p| kset.machine(&fd, inputs[p.index()]))
                .collect();
            let cfg = RunConfig::steps(schedule.len() as u64);
            let start = Instant::now();
            if mode == AgreementMode::FleetReplay {
                sim.run_automata_replay(&mut fleet, schedule, cfg)
            } else {
                sim.run_automata_replay_soa(&mut fleet, schedule, 64, cfg)
            }
            .unwrap();
            (sim.steps_executed(), start.elapsed().as_secs_f64())
        }
    }
}

/// Best-of-`reps` drive time (ms) of the agreement workload.
fn agreement_time_best(reps: usize, schedule: &Schedule, mode: AgreementMode) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, secs) = std::hint::black_box(run_agreement_workload(schedule, mode));
        best = best.min(secs * 1e3);
    }
    best
}

/// Async stack vs the machine-ABI agreement stack on the E3 workload — the
/// ROADMAP's "port the agreement stack's hot protocols" lever, tracked as
/// `agreement_step_throughput` in the committed baseline.
fn agreement_step_throughput(c: &mut Criterion) {
    let schedule = agreement_schedule(200_000);
    let mut group = c.benchmark_group("agreement/step_throughput");
    group.sample_size(10);
    group.bench_function("e3_async_t4k3n8", |b| {
        b.iter(|| run_agreement_workload(&schedule, AgreementMode::Async))
    });
    group.bench_function("e3_machine_t4k3n8", |b| {
        b.iter(|| run_agreement_workload(&schedule, AgreementMode::MachineSlot))
    });
    group.finish();
}

// The large-n lean stack (`LeanOmega` + `LeanConsensus`, O(n) per-process
// state) on the two fleet replay drives: the n-scaling curve of the
// committed baseline. The schedule is the E9 shape — a bursty rotation with
// a dwell of one full lean FD iteration (n² + n + 2 steps), so each turn
// completes a whole heartbeat scan — which makes every slice of the SoA
// drive a pure read run and shows the batched span-read path at its
// design point. A fixed step budget keeps the n = 1024 cell affordable
// (a full rotation there is ~10⁹ steps); all drives execute the identical
// schedule prefix, so the per-step ratios stay apples-to-apples.
const LEAN_SIZES: [usize; 4] = [12, 64, 256, 1024];
const LEAN_STEPS: usize = 4_000_000;

fn lean_burst(n: usize) -> u64 {
    (n * n + n + 2) as u64
}

fn lean_bursty_schedule(n: usize, steps: usize) -> Schedule {
    let u = Universe::new(n).unwrap();
    st_sched::BurstyRotation::new(u, lean_burst(n)).take_schedule(steps)
}

/// Drive-only wall clock (seconds) of a `LeanConsensus` fleet (t = n/16,
/// proposals 100 + pid) replaying `schedule` — construction excluded, as
/// for the agreement workload. SoA runs slice 1024 (within one FD scan's
/// read run for n ≥ 64).
fn run_lean_fleet(n: usize, schedule: &Schedule, soa: bool) -> f64 {
    use st_fd::{LeanOmega, TimeoutPolicy};
    use st_sim::{RunConfig, Sim};

    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let fd = LeanOmega::alloc(&mut sim, (n / 16).max(1), TimeoutPolicy::Increment);
    let cons = st_agreement::LeanConsensus::alloc(&mut sim);
    let mut fleet: Vec<_> = u
        .processes()
        .map(|p| cons.machine(&fd, 100 + p.index() as u64))
        .collect();
    let cfg = RunConfig::steps(schedule.len() as u64);
    let start = Instant::now();
    if soa {
        sim.run_automata_replay_soa(&mut fleet, schedule, 1024, cfg)
    } else {
        sim.run_automata_replay(&mut fleet, schedule, cfg)
    }
    .unwrap();
    start.elapsed().as_secs_f64()
}

/// Best-of-`reps` ns/step of the lean fleet drive.
fn lean_ns_per_step(reps: usize, n: usize, schedule: &Schedule, soa: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(std::hint::black_box(run_lean_fleet(n, schedule, soa)));
    }
    best * 1e9 / schedule.len() as f64
}

// The *paper's* stack beyond the wall: `KAntiOmega<W>` (Figure 2, full
// `Π^1_n` counter matrix) feeding `KSetAgreementMachine<W>` fleets on
// `WideProcSet` universes — the first throughput numbers for the verbatim
// paper protocols at n > PROCSET_CAPACITY. Same bursty shape as the lean
// curve with the wide detector's own iteration dwell (n² + n + 1 steps:
// `steps_per_iteration(0)` at k = 1), plain vs SoA, fixed step budget.
const WIDE_SIZES: [usize; 3] = [64, 128, 256];
const WIDE_STEPS: usize = 2_000_000;

fn wide_iteration(n: usize) -> u64 {
    (n * n + n + 1) as u64
}

fn wide_bursty_schedule(n: usize, steps: usize) -> Schedule {
    let u = Universe::new(n).unwrap();
    st_sched::BurstyRotation::new(u, wide_iteration(n)).take_schedule(steps)
}

/// Drive-only wall clock (seconds) of the paper stack at width `W`:
/// k = 1 anti-Ω (t = n/16) under a k-set agreement fleet (proposals
/// 100 + pid). SoA runs slice 1024, as for the lean fleet.
fn run_wide_fleet_width<const W: usize>(n: usize, schedule: &Schedule, soa: bool) -> f64 {
    use st_sim::{RunConfig, Sim};

    let u = Universe::new(n).unwrap();
    let mut sim = Sim::new(u);
    let fd = KAntiOmega::<W>::alloc_wide(&mut sim, KAntiOmegaConfig::new(1, (n / 16).max(1)));
    let kset = st_agreement::KSetAgreement::alloc(&mut sim, 1);
    let mut fleet: Vec<_> = u
        .processes()
        .map(|p| kset.machine(&fd, 100 + p.index() as u64))
        .collect();
    let cfg = RunConfig::steps(schedule.len() as u64);
    let start = Instant::now();
    if soa {
        sim.run_automata_replay_soa(&mut fleet, schedule, 1024, cfg)
    } else {
        sim.run_automata_replay(&mut fleet, schedule, cfg)
    }
    .unwrap();
    start.elapsed().as_secs_f64()
}

fn run_wide_fleet(n: usize, schedule: &Schedule, soa: bool) -> f64 {
    match st_core::words_for(n) {
        1 => run_wide_fleet_width::<1>(n, schedule, soa),
        2 => run_wide_fleet_width::<2>(n, schedule, soa),
        3..=4 => run_wide_fleet_width::<4>(n, schedule, soa),
        w => unreachable!("no bench size needs {w} words"),
    }
}

/// Best-of-`reps` ns/step of the wide paper-stack fleet drive.
fn wide_ns_per_step(reps: usize, n: usize, schedule: &Schedule, soa: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(std::hint::black_box(run_wide_fleet(n, schedule, soa)));
    }
    best * 1e9 / schedule.len() as f64
}

/// The two fleet replay drives on the lean stack at n = 64 — the live
/// (criterion) counterpart of the baseline's n-scaling curve, kept at one
/// size and a smoke-size step count so the CI `sim` filter exercises the
/// SoA fast path end to end.
fn lean_fleet_throughput(c: &mut Criterion) {
    const SMOKE_N: usize = 64;
    const SMOKE_STEPS: usize = 1_000_000;
    let schedule = lean_bursty_schedule(SMOKE_N, SMOKE_STEPS);
    let mut group = c.benchmark_group("sim/lean_fleet_replay");
    group.sample_size(10);
    group.bench_function("plain_bursty_n64", |b| {
        b.iter(|| run_lean_fleet(SMOKE_N, &schedule, false))
    });
    group.bench_function("soa_bursty_n64", |b| {
        b.iter(|| run_lean_fleet(SMOKE_N, &schedule, true))
    });
    group.finish();
}

// The campaign-throughput reference grid: E3-shaped — the full agreement
// stack on conforming SetTimely schedules over a (n, k, t) task grid × 16
// seeds (64 scenarios). Each scenario runs to all-decided; the campaign
// engine's scenarios/sec at 1 vs 4 workers is the scaling lever this bench
// tracks. (On a single-hardware-thread host the two coincide; the recorded
// `hardware_threads` field says which regime produced the number.)
const CAMPAIGN_SEEDS: u64 = 16;
const CAMPAIGN_GRID: [(usize, usize, usize); 4] = [(3, 1, 1), (4, 2, 2), (5, 2, 3), (8, 3, 4)];

fn campaign_reference_grid() -> st_campaign::Campaign {
    use st_campaign::{Campaign, Scenario, Workload};
    use st_fd::TimeoutPolicy;
    use st_sched::GeneratorSpec;

    let mut campaign = Campaign::new();
    for &(n, k, t) in &CAMPAIGN_GRID {
        let universe = Universe::new(n).unwrap();
        let p: ProcSet = (0..k.min(t)).map(ProcessId::new).collect();
        let q: ProcSet = (0..=t).map(ProcessId::new).collect();
        let workload = Workload::Agreement {
            t,
            k,
            inputs: (0..n as u64).map(|v| 1000 + 7 * v).collect(),
            policy: TimeoutPolicy::Increment,
            certify: None,
        };
        for seed in 0..CAMPAIGN_SEEDS {
            campaign.push(Scenario::new(
                format!("t{t}k{k}n{n}/seed{seed}"),
                universe,
                GeneratorSpec::set_timely(p, q, 2 * (t + 1), GeneratorSpec::seeded_random(0)),
                workload.clone(),
                400_000,
                seed,
            ));
        }
    }
    campaign
}

/// Scenario-campaign engine throughput: the same 64-scenario E3-shaped grid
/// executed sequentially and on a 4-worker stealing pool.
fn campaign_throughput(c: &mut Criterion) {
    let campaign = campaign_reference_grid();
    let mut group = c.benchmark_group("campaign/throughput");
    group.sample_size(10);
    group.bench_function("e3_grid_64_w1", |b| {
        b.iter(|| campaign.run_parallel(1).len())
    });
    group.bench_function("e3_grid_64_w4", |b| {
        b.iter(|| campaign.run_parallel(4).len())
    });
    group.finish();
}

// The fuzz-throughput workload: the scenario catalog's shape (n = 5,
// Π = ({0,1}, {0,1,2}), bound 6) fuzzed from two clean conforming seeds —
// exactly `stlab fuzz` at a small fixed budget — against a static
// conforming grid of the same size and step budget. The delta between the
// two scenarios/sec figures is the price of coverage guidance (feature
// extraction, corpus bookkeeping, batch derivation); the shrink figure
// tracks the delta-debugger's oracle-run rate on the starved fixture.
const FUZZ_N: usize = 5;
const FUZZ_BUDGET: usize = 24;
const FUZZ_STEP_BUDGET: u64 = 4_000;

fn fuzz_agreement_workload() -> st_campaign::Workload {
    use st_fd::TimeoutPolicy;
    st_campaign::Workload::Agreement {
        t: 2,
        k: 2,
        inputs: (0..FUZZ_N as u64).map(|v| 1000 + 7 * v).collect(),
        policy: TimeoutPolicy::Increment,
        certify: None,
    }
}

fn fuzz_conforming_spec() -> st_sched::GeneratorSpec {
    use st_sched::GeneratorSpec;
    let p: ProcSet = (0..2).map(ProcessId::new).collect();
    let q: ProcSet = (0..3).map(ProcessId::new).collect();
    GeneratorSpec::set_timely(p, q, 6, GeneratorSpec::seeded_random(0))
}

fn fuzz_session_config() -> st_campaign::FuzzConfig {
    use st_campaign::{FuzzConfig, FuzzInput, Workload};
    use st_fd::TimeoutPolicy;
    let fd = Workload::FdConvergence {
        k: 2,
        t: 2,
        policy: TimeoutPolicy::Increment,
        abi: st_campaign::FdAbi::MachineSlot,
        detector: st_campaign::FdDetector::SetBased,
        certify_membership: false,
    };
    FuzzConfig {
        key: "bench-fuzz".into(),
        universe: Universe::new(FUZZ_N).unwrap(),
        workloads: vec![fuzz_agreement_workload(), fd],
        seeds: vec![
            FuzzInput {
                spec: fuzz_conforming_spec(),
                workload: 0,
                seed: 0xE1AC_5EED,
            },
            FuzzInput {
                spec: fuzz_conforming_spec(),
                workload: 1,
                seed: 0xE1AC_5EED,
            },
        ],
        master_seed: 3,
        budget: FUZZ_BUDGET,
        batch: 8,
        step_budget: FUZZ_STEP_BUDGET,
        threads: 1,
        stop_on_finding: false,
    }
}

/// The static comparison grid: the same scenario count, spec shape, and
/// step budget as the fuzz session, but a plain seed sweep with no
/// guidance overhead.
fn fuzz_static_grid() -> st_campaign::Campaign {
    use st_campaign::{Campaign, Scenario};
    let mut campaign = Campaign::new();
    for seed in 0..FUZZ_BUDGET as u64 {
        campaign.push(Scenario::new(
            format!("static/seed{seed}"),
            Universe::new(FUZZ_N).unwrap(),
            fuzz_conforming_spec(),
            fuzz_agreement_workload(),
            FUZZ_STEP_BUDGET,
            seed,
        ));
    }
    campaign
}

/// The starved fixture (termination owed, 40-step budget forbids it) — the
/// shrink-throughput workload.
fn starved_scenario() -> st_campaign::Scenario {
    st_campaign::Scenario::new(
        "bench/starved",
        Universe::new(FUZZ_N).unwrap(),
        fuzz_conforming_spec(),
        fuzz_agreement_workload(),
        40,
        0xE1AC_5EED,
    )
}

/// Coverage-guided fuzzing vs an equal-size static grid, plus the
/// shrinker's oracle-run rate.
fn fuzz_throughput(c: &mut Criterion) {
    use st_campaign::{FuzzSession, Shrinker};
    let grid = fuzz_static_grid();
    let starved = starved_scenario();
    let starved_outcome = starved.run();
    let mut group = c.benchmark_group("campaign/fuzz_throughput");
    group.sample_size(10);
    group.bench_function("fuzz_guided_24", |b| {
        b.iter(|| {
            FuzzSession::new(fuzz_session_config())
                .run(None, None)
                .executed
        })
    });
    group.bench_function("static_grid_24", |b| b.iter(|| grid.run_parallel(1).len()));
    group.bench_function("shrink_starved", |b| {
        b.iter(|| {
            Shrinker::new()
                .shrink(&starved, &starved_outcome)
                .expect("fixture violates")
                .runs
        })
    });
    group.finish();
}

/// One E3-shaped agreement scenario for the invariant-overhead
/// measurement: the checker-on default path (`Scenario::run` — schedule
/// recording plus claim replay) against the pre-checker fast path
/// (`Scenario::run_unchecked`), identical outcome data either way.
fn invariant_scenario() -> st_campaign::Scenario {
    use st_campaign::{Scenario, Workload};
    use st_fd::TimeoutPolicy;
    use st_sched::GeneratorSpec;
    let universe = Universe::new(AG_N).unwrap();
    let p: ProcSet = (0..AG_K.min(AG_T)).map(ProcessId::new).collect();
    let q: ProcSet = (0..=AG_T).map(ProcessId::new).collect();
    Scenario::new(
        "bench/invariant",
        universe,
        GeneratorSpec::set_timely(p, q, 2 * (AG_T + 1), GeneratorSpec::seeded_random(0)),
        Workload::Agreement {
            t: AG_T,
            k: AG_K,
            inputs: (0..AG_N as u64).map(|v| 1000 + 7 * v).collect(),
            policy: TimeoutPolicy::Increment,
            certify: None,
        },
        400_000,
        3,
    )
}

/// Always-on invariant checker cost: `run()` (checker + recording) vs
/// `run_unchecked()` on the same E3-shaped scenario.
fn invariant_overhead(c: &mut Criterion) {
    let scenario = invariant_scenario();
    let mut group = c.benchmark_group("campaign/invariant_overhead");
    group.sample_size(10);
    group.bench_function("e3_t4k3n8_checked", |b| {
        b.iter(|| scenario.run().violations.len())
    });
    group.bench_function("e3_t4k3n8_unchecked", |b| {
        b.iter(|| scenario.run_unchecked().violations.len())
    });
    group.finish();
}

/// Resume overhead: the same 64-scenario grid resumed from a complete
/// outcome store (pure skip: spec re-encode + lookup + rank merge, no
/// scenario executes) and the store's serialize→parse round trip — the two
/// fixed costs a checkpointed sweep pays over a one-shot run.
fn campaign_resume_overhead(c: &mut Criterion) {
    use st_campaign::OutcomeStore;
    let campaign = campaign_reference_grid();
    let mut store = OutcomeStore::new();
    campaign.run_resumed(1, "bench", None, Some(&mut store));
    let mut group = c.benchmark_group("campaign/resume");
    group.sample_size(10);
    group.bench_function("e3_grid_64_skip_all", |b| {
        b.iter(|| campaign.run_resumed(1, "bench", Some(&store), None).len())
    });
    group.bench_function("e3_grid_64_store_roundtrip", |b| {
        b.iter(|| {
            OutcomeStore::from_json_str(&store.to_json_string())
                .expect("own bytes")
                .len()
        })
    });
    group.finish();
}

/// Cost in µs of `AgreementStack::build_full` on the E3 cell (recording on,
/// as `Scenario::run` builds it) and of `Sim::report()` once the stack has
/// run `schedule` to all-decided: best of 7 batches of 256 calls each.
fn stack_build_and_report_us(schedule: &Schedule) -> (f64, f64) {
    use st_agreement::AgreementStack;
    use st_core::{AgreementTask, ScheduleCursor};
    use st_fd::TimeoutPolicy;
    use st_sim::{RunConfig, StopWhen};
    const BATCH: usize = 256;
    let task = AgreementTask::new(AG_T, AG_K, AG_N).unwrap();
    let inputs: Vec<u64> = (0..AG_N as u64).map(|v| 1000 + 7 * v).collect();
    let build = || AgreementStack::build_full(task, &inputs, TimeoutPolicy::Increment, true);
    let build_ms = time_best(7, || {
        for _ in 0..BATCH {
            std::hint::black_box(build());
        }
    });
    let mut decided = build();
    let everyone = ProcSet::full(task.universe());
    let cfg = RunConfig::steps(schedule.len() as u64).stop_when(StopWhen::AllDecided(everyone));
    decided
        .sim_mut()
        .run(&mut ScheduleCursor::new(schedule.clone()), cfg)
        .unwrap();
    assert_eq!(decided.sim().decided_set(), everyone, "the E3 cell decides");
    let report_ms = time_best(7, || {
        for _ in 0..BATCH {
            std::hint::black_box(decided.sim().report());
        }
    });
    (
        build_ms * 1e3 / BATCH as f64,
        report_ms * 1e3 / BATCH as f64,
    )
}

/// Times one closure, best of `reps`.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Emits `BENCH_timeliness.json` at the workspace root: the recorded
/// baseline of the sweep-engine speedup and simulator step throughput this
/// PR introduces. Future perf PRs extend the measurements and compare.
fn emit_baseline(_c: &mut Criterion) {
    // The emitter is a multi-minute fixed workload with a file side effect;
    // honor the harness filter so targeted runs don't pay for it (and don't
    // silently rewrite the committed baseline).
    if let Some(filter) = criterion::cli_filter() {
        if !"baseline".contains(filter.as_str()) {
            println!("baseline emitter skipped (filter {filter:?})");
            return;
        }
    }
    let rr = round_robin_schedule();
    let rnd = seeded_random_schedule();

    let naive_rr = time_best(2, || {
        naive::all_timely_pairs(&rr, universe(), I, J, CAP).len()
    });
    let naive_rnd = time_best(2, || {
        naive::all_timely_pairs(&rnd, universe(), I, J, CAP).len()
    });
    let mut az = TimelinessAnalyzer::new(universe());
    let mut out = Vec::new();
    let engine_rr = time_best(5, || {
        out.clear();
        az.all_timely_pairs_into(&rr, I, J, CAP, &mut out);
        out.len()
    });
    let engine_rnd = time_best(5, || {
        out.clear();
        az.all_timely_pairs_into(&rnd, I, J, CAP, &mut out);
        out.len()
    });
    let matrix_steal = time_best(2, || {
        sweep_matrix(&rnd, universe(), CAP, usize::MAX)
            .cells()
            .iter()
            .map(|c| c.timely_pairs)
            .sum::<u64>()
    });

    // Simulator step throughput: the u64 word path (every register of the
    // paper's protocols) against the boxed representation it replaced,
    // via a non-u64 newtype that still goes through Box<dyn Any>.
    let word = time_best(3, run_register_loop::<u64>);
    let boxed = time_best(3, run_register_loop::<BoxedWord>);

    // The two automaton ABIs on the n = 8 kanti convergence workload: the
    // async poll path against the explicit state machine.
    const SIM_STEPS: u64 = 2_000_000;
    let kanti_sched = kanti_schedule(SIM_STEPS);
    let kanti_async = time_best(3, || run_kanti_workload(&kanti_sched, false));
    let kanti_machine = time_best(3, || run_kanti_workload(&kanti_sched, true));
    let async_ns = kanti_async * 1e6 / SIM_STEPS as f64;
    let machine_ns = kanti_machine * 1e6 / SIM_STEPS as f64;

    // The agreement stack on both ABIs: the E3 (t,k,n) = (4,3,8) workload
    // to all-decided, plus the typed fleet on the plain and SoA replay
    // drives over the decision prefix. Timed drive-only (see
    // `run_agreement_workload`).
    let ag_sched = agreement_schedule(200_000);
    let (decided_at, _) = run_agreement_workload(&ag_sched, AgreementMode::MachineSlot);
    assert_eq!(
        decided_at,
        run_agreement_workload(&ag_sched, AgreementMode::Async).0,
        "ABIs must decide at the same step (differential identity)"
    );
    let ag_prefix = Schedule::from_steps(ag_sched.as_slice()[..decided_at as usize].to_vec());
    let ag_async = agreement_time_best(5, &ag_sched, AgreementMode::Async);
    let ag_machine = agreement_time_best(5, &ag_sched, AgreementMode::MachineSlot);
    let ag_fleet = agreement_time_best(5, &ag_prefix, AgreementMode::FleetReplay);
    let ag_soa = agreement_time_best(5, &ag_prefix, AgreementMode::FleetReplaySoa);
    let ag_async_ns = ag_async * 1e6 / decided_at as f64;
    let ag_machine_ns = ag_machine * 1e6 / decided_at as f64;
    let ag_fleet_ns = ag_fleet * 1e6 / decided_at as f64;
    let ag_soa_ns = ag_soa * 1e6 / decided_at as f64;

    // What register metadata costs off the run path, on the same E3 cell:
    // building the stack (every register allocated, every machine made)
    // and snapshotting a decided run — and the lean detector's n² counter
    // block at n = 1024, allocated and dropped.
    let (build_us, report_us) = stack_build_and_report_us(&ag_sched);
    const LEAN_ALLOC_N: usize = 1024;
    let lean_alloc_ms = time_best(5, || {
        let mut sim = st_sim::Sim::new(Universe::new(LEAN_ALLOC_N).unwrap());
        st_fd::LeanOmega::alloc(&mut sim, LEAN_ALLOC_N / 16, st_fd::TimeoutPolicy::Increment);
        sim
    });

    // The n-scaling curve: the lean stack on both fleet replay drives
    // over the E9 bursty shape, a fixed 4M-step prefix per size (see
    // `run_lean_fleet`). The SoA row is the acceptance lever: ≥ 2× over
    // the plain replay at n ≥ 256, where a slice is one pure read run.
    let lean_rows = LEAN_SIZES
        .iter()
        .map(|&n| {
            let sched = lean_bursty_schedule(n, LEAN_STEPS);
            let plain = lean_ns_per_step(2, n, &sched, false);
            let soa = lean_ns_per_step(2, n, &sched, true);
            format!(
                "      {{\"n\": {n}, \"plain_ns_per_step\": {plain:.2}, \
                 \"soa_ns_per_step\": {soa:.2}, \"soa_speedup\": {:.2}}}",
                plain / soa
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // The paper-detector curve: the verbatim Figure 2 stack on wide sets,
    // plain vs SoA, at the sizes the wide port unlocked.
    let wide_rows = WIDE_SIZES
        .iter()
        .map(|&n| {
            let sched = wide_bursty_schedule(n, WIDE_STEPS);
            let plain = wide_ns_per_step(2, n, &sched, false);
            let soa = wide_ns_per_step(2, n, &sched, true);
            format!(
                "      {{\"n\": {n}, \"words\": {}, \"plain_ns_per_step\": {plain:.2}, \
                 \"soa_ns_per_step\": {soa:.2}, \"soa_speedup\": {:.2}}}",
                st_core::words_for(n),
                plain / soa
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    // The interleaved counterpart of the bursty curve at n = 256: a
    // round-robin schedule, where the SoA drive batches through its
    // strided fast path instead of whole-dwell runs.
    let rr256 = RoundRobin::new(Universe::new(256).unwrap()).take_schedule(LEAN_STEPS);
    let inter_plain = lean_ns_per_step(2, 256, &rr256, false);
    let inter_soa = lean_ns_per_step(2, 256, &rr256, true);

    // The scenario-campaign engine on the E3-shaped reference grid:
    // scenarios/sec sequential vs a 4-worker stealing pool. Outcomes are
    // thread-count independent (st-campaign's differential determinism
    // test); only wall-clock moves, and only when the host has cores to
    // give — `hardware_threads` records which regime produced the numbers.
    let campaign = campaign_reference_grid();
    let campaign_scenarios = campaign.len();
    let campaign_w1 = time_best(3, || campaign.run_parallel(1).len());
    let campaign_w4 = time_best(3, || campaign.run_parallel(4).len());
    let campaign_sps_w1 = campaign_scenarios as f64 * 1e3 / campaign_w1;
    let campaign_sps_w4 = campaign_scenarios as f64 * 1e3 / campaign_w4;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Resume overhead on the same grid: a complete store (every scenario
    // skipped — the pure bookkeeping cost), a half store (half the
    // scenarios re-run), and the store's serialize→parse round trip.
    let mut full_store = st_campaign::OutcomeStore::new();
    campaign.run_resumed(1, "bench", None, Some(&mut full_store));
    let store_bytes = full_store.to_json_string().len();
    let resume_skip_all = time_best(5, || {
        campaign
            .run_resumed(1, "bench", Some(&full_store), None)
            .len()
    });
    let mut half_store = full_store.clone();
    half_store.retain(|idx, _| idx % 2 == 0);
    let resume_half = time_best(3, || {
        campaign
            .run_resumed(1, "bench", Some(&half_store), None)
            .len()
    });
    let store_roundtrip = time_best(5, || {
        st_campaign::OutcomeStore::from_json_str(&full_store.to_json_string())
            .expect("own bytes")
            .len()
    });

    // The always-on invariant checker's cost on one E3-shaped agreement
    // scenario: the checked default (schedule recording + claim replay)
    // against the kept pre-checker fast path. Honest denominators: both
    // paths run to the same decision step.
    let inv_scenario = invariant_scenario();
    let inv_outcome = inv_scenario.run();
    assert!(inv_outcome.violations.is_empty(), "bench scenario is clean");
    let inv_steps = inv_outcome
        .data
        .as_agreement()
        .and_then(|a| a.decided_at)
        .expect("bench scenario decides");
    let inv_checked = time_best(5, || inv_scenario.run().violations.len());
    let inv_unchecked = time_best(5, || inv_scenario.run_unchecked().violations.len());
    let inv_checked_ns = inv_checked * 1e6 / inv_steps as f64;
    let inv_unchecked_ns = inv_unchecked * 1e6 / inv_steps as f64;

    // Coverage-guided fuzzing against an equal-size static grid (the
    // guidance overhead), and the shrinker's oracle-run rate on the
    // starved fixture.
    let fuzz_grid = fuzz_static_grid();
    let fuzz_ms = time_best(3, || {
        st_campaign::FuzzSession::new(fuzz_session_config())
            .run(None, None)
            .executed
    });
    let fuzz_static_ms = time_best(3, || fuzz_grid.run_parallel(1).len());
    let fuzz_sps = FUZZ_BUDGET as f64 * 1e3 / fuzz_ms;
    let fuzz_static_sps = FUZZ_BUDGET as f64 * 1e3 / fuzz_static_ms;
    let starved = starved_scenario();
    let starved_outcome = starved.run();
    let shrink_report = st_campaign::Shrinker::new()
        .shrink(&starved, &starved_outcome)
        .expect("fixture violates");
    let shrink_runs = shrink_report.runs;
    let shrink_ms = time_best(3, || {
        st_campaign::Shrinker::new()
            .shrink(&starved, &starved_outcome)
            .expect("fixture violates")
            .runs
    });
    let shrink_rps = shrink_runs as f64 * 1e3 / shrink_ms;

    let json = format!(
        "{{\n  \"schema\": \"st-bench/timeliness-v10\",\n  \
         \"workload\": {{\"n\": {N}, \"schedule_len\": {LEN}, \"bound_cap\": {CAP}, \"i\": {I}, \"j\": {J}}},\n  \
         \"all_timely_pairs_ms\": {{\n    \
           \"round_robin\": {{\"naive\": {naive_rr:.2}, \"engine\": {engine_rr:.2}, \"speedup\": {:.1}}},\n    \
           \"seeded_random\": {{\"naive\": {naive_rnd:.2}, \"engine\": {engine_rnd:.2}, \"speedup\": {:.1}}}\n  }},\n  \
         \"sweep_matrix_full_ms\": {{\"work_steal\": {matrix_steal:.2}}},\n  \
         \"sim_register_rw_100k_ms\": {{\"boxed\": {boxed:.2}, \"word\": {word:.2}, \"speedup\": {:.2}}},\n  \
         \"sim_step_throughput\": {{\n    \
           \"workload\": {{\"n\": {SIM_N}, \"k\": {SIM_K}, \"t\": {SIM_T}, \"steps\": {SIM_STEPS}, \"schedule\": \"SetTimely\"}},\n    \
           \"async_ns_per_step\": {async_ns:.2},\n    \
           \"automaton_ns_per_step\": {machine_ns:.2},\n    \
           \"speedup\": {:.2}\n  }},\n  \
         \"agreement_step_throughput\": {{\n    \
           \"workload\": {{\"n\": {AG_N}, \"k\": {AG_K}, \"t\": {AG_T}, \"decided_at_step\": {decided_at}, \"schedule\": \"SetTimely\", \"experiment\": \"E3\"}},\n    \
           \"async_ns_per_step\": {ag_async_ns:.2},\n    \
           \"machine_slot_ns_per_step\": {ag_machine_ns:.2},\n    \
           \"fleet_replay_ns_per_step\": {ag_fleet_ns:.2},\n    \
           \"fleet_replay_soa_ns_per_step\": {ag_soa_ns:.2},\n    \
           \"machine_slot_speedup\": {:.2},\n    \
           \"speedup\": {:.2}\n  }},\n  \
         \"agreement_stack_build\": {{\n    \
           \"workload\": {{\"n\": {AG_N}, \"k\": {AG_K}, \"t\": {AG_T}, \"experiment\": \"E3\", \"recording\": true}},\n    \
           \"build_us\": {build_us:.2},\n    \
           \"report_us\": {report_us:.2}\n  }},\n  \
         \"lean_alloc\": {{\n    \
           \"workload\": {{\"n\": {LEAN_ALLOC_N}, \"registers\": {}, \"measured\": \"Sim::new + LeanOmega::alloc + drop\"}},\n    \
           \"alloc_ms\": {lean_alloc_ms:.3}\n  }},\n  \
         \"lean_n_scaling\": {{\n    \
           \"workload\": {{\"fleet\": \"LeanConsensus over LeanOmega\", \"t\": \"n/16\", \
             \"schedule\": \"Bursty(n^2+n+2)\", \"steps\": {LEAN_STEPS}, \
             \"soa_slice_len\": 1024}},\n    \
           \"curve\": [\n{lean_rows}\n    ]\n  }},\n  \
         \"wide_fd_n_scaling\": {{\n    \
           \"workload\": {{\"fleet\": \"KSetAgreement over KAntiOmega (Figure 2, wide sets)\", \
             \"k\": 1, \"t\": \"n/16\", \"schedule\": \"Bursty(n^2+n+1)\", \"steps\": {WIDE_STEPS}, \
             \"soa_slice_len\": 1024}},\n    \
           \"curve\": [\n{wide_rows}\n    ]\n  }},\n  \
         \"lean_interleaved_n256\": {{\n    \
           \"workload\": {{\"n\": 256, \"schedule\": \"RoundRobin\", \"steps\": {LEAN_STEPS}}},\n    \
           \"plain_ns_per_step\": {inter_plain:.2},\n    \
           \"soa_ns_per_step\": {inter_soa:.2},\n    \
           \"soa_speedup\": {:.2}\n  }},\n  \
         \"campaign_throughput\": {{\n    \
           \"workload\": {{\"grid\": \"E3-shaped agreement campaign\", \"tasks\": {}, \"seeds\": {CAMPAIGN_SEEDS}, \"scenarios\": {campaign_scenarios}}},\n    \
           \"hardware_threads\": {hardware_threads},\n    \
           \"sequential_ms\": {campaign_w1:.2},\n    \
           \"four_workers_ms\": {campaign_w4:.2},\n    \
           \"scenarios_per_sec_1w\": {campaign_sps_w1:.1},\n    \
           \"scenarios_per_sec_4w\": {campaign_sps_w4:.1},\n    \
           \"speedup\": {:.2}\n  }},\n  \
         \"campaign_resume\": {{\n    \
           \"workload\": {{\"grid\": \"E3-shaped agreement campaign\", \"scenarios\": {campaign_scenarios}}},\n    \
           \"store_bytes\": {store_bytes},\n    \
           \"full_run_ms\": {campaign_w1:.2},\n    \
           \"resume_skip_all_ms\": {resume_skip_all:.3},\n    \
           \"resume_half_store_ms\": {resume_half:.2},\n    \
           \"store_roundtrip_ms\": {store_roundtrip:.3},\n    \
           \"skip_overhead_us_per_scenario\": {:.1}\n  }},\n  \
         \"invariant_overhead\": {{\n    \
           \"workload\": {{\"n\": {AG_N}, \"k\": {AG_K}, \"t\": {AG_T}, \"decided_at_step\": {inv_steps}, \"schedule\": \"SetTimely\", \"experiment\": \"E3\"}},\n    \
           \"unchecked_ns_per_step\": {inv_unchecked_ns:.2},\n    \
           \"checked_ns_per_step\": {inv_checked_ns:.2},\n    \
           \"overhead_ratio\": {:.3}\n  }},\n  \
         \"campaign_fuzz\": {{\n    \
           \"workload\": {{\"shape\": \"catalog n=5 conforming seeds\", \"budget\": {FUZZ_BUDGET}, \"step_budget\": {FUZZ_STEP_BUDGET}, \"master_seed\": 3}},\n    \
           \"fuzz_guided_ms\": {fuzz_ms:.2},\n    \
           \"static_grid_ms\": {fuzz_static_ms:.2},\n    \
           \"scenarios_per_sec_guided\": {fuzz_sps:.1},\n    \
           \"scenarios_per_sec_static\": {fuzz_static_sps:.1},\n    \
           \"guidance_overhead_ratio\": {:.3},\n    \
           \"shrink\": {{\"oracle_runs\": {shrink_runs}, \"ms\": {shrink_ms:.2}, \"runs_per_sec\": {shrink_rps:.1}}}\n  }}\n}}\n",
        naive_rr / engine_rr,
        naive_rnd / engine_rnd,
        boxed / word,
        async_ns / machine_ns,
        ag_async_ns / ag_machine_ns,
        ag_async_ns / ag_fleet_ns,
        LEAN_ALLOC_N * LEAN_ALLOC_N + LEAN_ALLOC_N,
        inter_plain / inter_soa,
        CAMPAIGN_GRID.len(),
        campaign_w1 / campaign_w4,
        resume_skip_all * 1e3 / campaign_scenarios as f64,
        inv_checked_ns / inv_unchecked_ns,
        fuzz_ms / fuzz_static_ms,
    );
    let path = criterion::workspace_root().join("BENCH_timeliness.json");
    std::fs::write(&path, &json).expect("write BENCH_timeliness.json");
    println!("baseline written to {}:\n{json}", path.display());
}

/// `u64` wrapped so the arena stores it boxed: the pre-fast-path layout.
#[derive(Clone, Debug)]
struct BoxedWord(u64);

trait Counter: Clone + std::fmt::Debug + 'static {
    fn zero() -> Self;
    fn bump(self) -> Self;
}

impl Counter for u64 {
    fn zero() -> Self {
        0
    }
    fn bump(self) -> Self {
        self + 1
    }
}

impl Counter for BoxedWord {
    fn zero() -> Self {
        BoxedWord(0)
    }
    fn bump(self) -> Self {
        BoxedWord(self.0 + 1)
    }
}

fn run_register_loop<T: Counter>() -> u64 {
    use st_sim::{RunConfig, Sim};
    let u = Universe::new(2).unwrap();
    let mut sim = Sim::new(u);
    let reg = sim.alloc("x", T::zero());
    for p in u.processes() {
        sim.spawn(p, move |ctx| async move {
            loop {
                let v = ctx.read(reg).await;
                ctx.write(reg, v.bump()).await;
            }
        })
        .unwrap();
    }
    let mut src = RoundRobin::new(u);
    sim.run(&mut src, RunConfig::steps(100_000)).unwrap();
    sim.steps_executed()
}

criterion_group!(
    benches,
    matrix_sweeps,
    sim_step_throughput,
    agreement_step_throughput,
    lean_fleet_throughput,
    campaign_throughput,
    invariant_overhead,
    campaign_resume_overhead,
    fuzz_throughput,
    emit_baseline
);
criterion_main!(benches);
