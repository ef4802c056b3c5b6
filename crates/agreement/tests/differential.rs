//! Differential tests: the async agreement stack against its state-machine
//! ports, on identical schedules — mirroring `st-fd/tests/differential.rs`.
//!
//! The machine ports ([`PaxosMachine`], [`KSetAgreementMachine`]) are only
//! admissible as "the same algorithm" if they are **observationally
//! identical** step-for-step: the same probe sequences at the same step
//! indices (winnerset publications and decided-instance probes), the same
//! decisions at the same steps, the same per-process operation counts, the
//! same per-register access statistics, and the same final register
//! contents. This suite enforces that on the four schedule families the
//! experiments use: round-robin, seeded-random, the Figure 1 starvation
//! schedule, and crash schedules (a prefix that stops scheduling a
//! process).

use st_agreement::{AgreementStack, KSetAgreement, Paxos, PaxosMachine, StackAbi};
use st_core::{ProcessId, Schedule, ScheduleCursor, StepSource, Universe, Value};
use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy};
use st_sched::{Figure1, SeededRandom};
use st_sim::{RegisterStats, RunConfig, RunReport, Sim};

/// How a protocol is executed: the async transcription, the state machine
/// in a dyn slot, or the typed fleet on the replay drive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Async,
    MachineSlot,
    FleetReplay,
}

fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|v| 100 + 3 * v).collect()
}

// ---------------------------------------------------------------------------
// Paxos: dueling proposers, every process attempts until it decides.
// ---------------------------------------------------------------------------

/// What one run is observed through: its report, its per-register access
/// statistics, and the final register contents.
type Observation = (RunReport, Vec<RegisterStats>, Vec<String>);

/// The run's per-register access statistics, checked to be worth
/// comparing: an empty or all-zero list would make the comparison vacuous.
fn access_stats(sim: &Sim) -> Vec<RegisterStats> {
    let stats = sim.register_stats();
    assert!(
        stats.iter().any(|s| s.reads > 0),
        "no register was ever read"
    );
    stats
}

/// Runs `n` dueling proposers over `schedule` in the chosen mode; returns
/// the report and register statistics plus the final record/decision
/// register contents.
fn run_paxos(n: usize, schedule: &Schedule, mode: Mode) -> Observation {
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let paxos = Paxos::alloc(&mut sim, "px");
    let budget = schedule.len() as u64;
    let proposals = inputs(n);
    match mode {
        Mode::Async => {
            for p in universe.processes() {
                let paxos = paxos.clone();
                let proposal = proposals[p.index()];
                sim.spawn(p, move |ctx| async move {
                    let mut state = st_agreement::ProposerState::default();
                    loop {
                        if let st_agreement::AttemptOutcome::Decided(v) =
                            paxos.attempt(&ctx, &mut state, proposal).await
                        {
                            ctx.decide(v);
                            return;
                        }
                    }
                })
                .unwrap();
            }
            let mut src = ScheduleCursor::new(schedule.clone());
            sim.run(&mut src, RunConfig::steps(budget)).unwrap();
        }
        Mode::MachineSlot => {
            for p in universe.processes() {
                sim.spawn_automaton(p, paxos.machine(proposals[p.index()]))
                    .unwrap();
            }
            let mut src = ScheduleCursor::new(schedule.clone());
            sim.run(&mut src, RunConfig::steps(budget)).unwrap();
        }
        Mode::FleetReplay => {
            let mut fleet: Vec<PaxosMachine> = universe
                .processes()
                .map(|p| paxos.machine(proposals[p.index()]))
                .collect();
            sim.run_automata_replay(&mut fleet, schedule, RunConfig::steps(budget))
                .unwrap();
        }
    }
    let mut registers: Vec<String> = paxos
        .peek_records(&sim)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    registers.push(format!("{:?}", paxos.peek_decision(&sim)));
    (sim.report(), access_stats(&sim), registers)
}

fn assert_paxos_identical(n: usize, schedule: Schedule, label: &str) {
    let (async_rep, async_stats, async_regs) = run_paxos(n, &schedule, Mode::Async);
    for mode in [Mode::MachineSlot, Mode::FleetReplay] {
        let (machine_rep, machine_stats, machine_regs) = run_paxos(n, &schedule, mode);
        assert_eq!(
            async_rep.steps, machine_rep.steps,
            "{label}/{mode:?}: step counts diverged"
        );
        assert_eq!(
            async_rep.probes.events(),
            machine_rep.probes.events(),
            "{label}/{mode:?}: probe sequences diverged"
        );
        assert_eq!(
            async_rep.decisions, machine_rep.decisions,
            "{label}/{mode:?}: decisions diverged"
        );
        assert_eq!(
            async_rep.finished, machine_rep.finished,
            "{label}/{mode:?}: completion flags diverged"
        );
        assert_eq!(
            async_rep.op_counts, machine_rep.op_counts,
            "{label}/{mode:?}: per-process op counts diverged"
        );
        assert_eq!(
            async_stats, machine_stats,
            "{label}/{mode:?}: register access statistics diverged"
        );
        assert_eq!(
            async_regs, machine_regs,
            "{label}/{mode:?}: final register contents diverged"
        );
    }
}

fn round_robin(n: usize, len: usize) -> Schedule {
    Schedule::from_indices((0..len).map(|s| s % n))
}

#[test]
fn paxos_round_robin_identical() {
    for n in [1usize, 2, 3, 5] {
        // Fine-grained alternation: dueling proposers may preempt each
        // other forever (livelock is allowed under adversarial schedules)
        // — heavy exercise for the preemption paths of both ABIs.
        assert_paxos_identical(n, round_robin(n, 400), &format!("paxos rr n={n}"));
        // Bursty round-robin: each process gets 2n + 2 consecutive steps,
        // enough for one uncontended ballot — everyone decides.
        let burst = 2 * n + 2;
        let bursty = Schedule::from_indices((0..(8 * n * burst)).map(|s| (s / burst) % n));
        let (rep, ..) = run_paxos(n, &bursty, Mode::Async);
        assert!(
            rep.decisions.iter().all(|d| d.is_some()),
            "n={n}: bursty workload must decide everywhere"
        );
        assert_paxos_identical(n, bursty, &format!("paxos rr-burst n={n}"));
    }
}

#[test]
fn paxos_seeded_random_identical() {
    for seed in [2u64, 0xDEAD, 0xFEED_5EED] {
        let u = Universe::new(4).unwrap();
        let s = SeededRandom::new(u, seed).take_schedule(2_000);
        assert_paxos_identical(4, s, &format!("paxos rnd seed={seed}"));
    }
}

#[test]
fn paxos_figure1_identical() {
    let s =
        Figure1::new(ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)).take_schedule(2_000);
    assert_paxos_identical(3, s, "paxos fig1");
}

#[test]
fn paxos_crash_identical() {
    // p0 runs four steps (mid-ballot: decision check, announce, a read,
    // the phase-2 write), then is never scheduled again — the model's
    // crash. Survivors must behave identically across ABIs.
    let mut steps: Vec<usize> = vec![0, 0, 0, 0];
    steps.extend((0..600).map(|s| 1 + s % 2));
    assert_paxos_identical(3, Schedule::from_indices(steps), "paxos crash");
}

// ---------------------------------------------------------------------------
// The full k-set agreement stack: FD + k parallel Paxos instances.
// ---------------------------------------------------------------------------

/// Runs the full (t,k,n) FD + k-parallel-Paxos stack over `schedule` in the
/// chosen mode; returns the report plus all final register contents
/// (heartbeats, counters, Paxos records, decision registers).
fn run_kset(n: usize, k: usize, t: usize, schedule: &Schedule, mode: Mode) -> Observation {
    let task = st_core::AgreementTask::new(t, k, n).unwrap();
    let budget = schedule.len() as u64;
    let (sim, fd, kset);
    match mode {
        Mode::Async | Mode::MachineSlot => {
            let abi = if mode == Mode::Async {
                StackAbi::Async
            } else {
                StackAbi::Machine
            };
            let mut stack =
                AgreementStack::build_abi(task, &inputs(n), TimeoutPolicy::Increment, false, abi);
            let mut src = ScheduleCursor::new(schedule.clone());
            stack
                .sim_mut()
                .run(&mut src, RunConfig::steps(budget))
                .unwrap();
            fd = stack.fd().unwrap().clone();
            kset = stack.kset().unwrap().clone();
            sim = stack.into_sim();
        }
        Mode::FleetReplay => {
            // Same allocation order as the harness: FD first, then the
            // instances — identical register layout by construction.
            let universe = task.universe();
            let mut s = Sim::new(universe);
            let f = KAntiOmega::alloc(&mut s, KAntiOmegaConfig::new(k, t));
            let ks = KSetAgreement::alloc(&mut s, k);
            let proposals = inputs(n);
            let mut fleet: Vec<_> = universe
                .processes()
                .map(|p| ks.machine(&f, proposals[p.index()]))
                .collect();
            s.run_automata_replay(&mut fleet, schedule, RunConfig::steps(budget))
                .unwrap();
            sim = s;
            fd = f;
            kset = ks;
        }
    }

    let mut registers = Vec::new();
    let universe = task.universe();
    for p in universe.processes() {
        registers.push(fd.peek_heartbeat(&sim, p).to_string());
    }
    for rank in 0..fd.set_count() {
        for q in universe.processes() {
            registers.push(fd.peek_counter(&sim, rank, q).to_string());
        }
    }
    for instance in kset.instances() {
        for rec in instance.peek_records(&sim) {
            registers.push(format!("{rec:?}"));
        }
        registers.push(format!("{:?}", instance.peek_decision(&sim)));
    }
    (sim.report(), access_stats(&sim), registers)
}

fn assert_kset_identical(n: usize, k: usize, t: usize, schedule: Schedule, label: &str) {
    let (async_rep, async_stats, async_regs) = run_kset(n, k, t, &schedule, Mode::Async);
    for mode in [Mode::MachineSlot, Mode::FleetReplay] {
        let (machine_rep, machine_stats, machine_regs) = run_kset(n, k, t, &schedule, mode);
        assert_eq!(
            async_rep.steps, machine_rep.steps,
            "{label}/{mode:?}: step counts diverged"
        );
        // Winnerset publications and decided-instance probes: the stack's
        // observable behavior, including publication step indices.
        assert_eq!(
            async_rep.probes.events(),
            machine_rep.probes.events(),
            "{label}/{mode:?}: probe sequences diverged"
        );
        assert_eq!(
            async_rep.decisions, machine_rep.decisions,
            "{label}/{mode:?}: decisions diverged"
        );
        assert_eq!(
            async_rep.finished, machine_rep.finished,
            "{label}/{mode:?}: completion flags diverged"
        );
        assert_eq!(
            async_rep.op_counts, machine_rep.op_counts,
            "{label}/{mode:?}: per-process op counts diverged"
        );
        assert_eq!(
            async_stats, machine_stats,
            "{label}/{mode:?}: register access statistics diverged"
        );
        assert_eq!(
            async_regs, machine_regs,
            "{label}/{mode:?}: final register contents diverged"
        );
    }
}

#[test]
fn kset_round_robin_identical() {
    assert_kset_identical(3, 1, 1, round_robin(3, 30_000), "kset rr n=3 k=1 t=1");
    assert_kset_identical(4, 2, 2, round_robin(4, 40_000), "kset rr n=4 k=2 t=2");
}

#[test]
fn kset_seeded_random_identical() {
    for seed in [1u64, 0xBEEF] {
        let u = Universe::new(4).unwrap();
        let s = SeededRandom::new(u, seed).take_schedule(40_000);
        assert_kset_identical(4, 1, 2, s.clone(), "kset rnd k=1 t=2");
        assert_kset_identical(4, 2, 3, s, "kset rnd k=2 t=3");
    }
}

#[test]
fn kset_figure1_identical() {
    let s =
        Figure1::new(ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)).take_schedule(30_000);
    assert_kset_identical(3, 1, 1, s.clone(), "kset fig1 k=1 t=1");
    assert_kset_identical(3, 1, 2, s, "kset fig1 k=1 t=2");
}

#[test]
fn kset_crash_identical() {
    // Stop scheduling p2 mid-run: the surviving processes' observable
    // behavior must stay identical across ABIs.
    let n = 3;
    let mut steps: Vec<usize> = (0..10_000).map(|s| s % n).collect();
    steps.extend((0..20_000).map(|s| s % (n - 1)));
    assert_kset_identical(3, 1, 2, Schedule::from_indices(steps), "kset crash n=3");
}

/// The machine stack actually decides (the differential above is not
/// vacuous): on a round-robin schedule long enough for the FD to converge,
/// every process decides, with at most k distinct proposed values.
#[test]
fn kset_machine_decides_on_round_robin() {
    let (n, k, t) = (4usize, 2usize, 2usize);
    let (rep, ..) = run_kset(n, k, t, &round_robin(n, 40_000), Mode::MachineSlot);
    let decided: std::collections::BTreeSet<Value> =
        rep.decisions.iter().flatten().map(|d| d.value).collect();
    assert!(
        rep.decisions.iter().all(|d| d.is_some()),
        "all must decide: {:?}",
        rep.decisions
    );
    assert!(!decided.is_empty() && decided.len() <= k);
    for v in &decided {
        assert!(inputs(n).contains(v), "unproposed value {v}");
    }
}
