//! A run's state is a plain value: the `Sim` (register arena, trace, op
//! counts) and the fleet, cloned at a seeded step in the middle of an E3
//! cell's run, run on exactly as the original does — and apart from it.

use st_agreement::{KSetAgreement, KSetAgreementMachine};
use st_core::{ProcSet, ProcessId, Schedule, StepSource, Universe, Value};
use st_fd::{KAntiOmega, KAntiOmegaConfig};
use st_sched::GeneratorSpec;
use st_sim::{RunConfig, Sim};

/// The E3 cell of the campaign's allocation budget: `(n, k, t) = (8, 3, 4)`.
const N: usize = 8;
const K: usize = 3;
const T: usize = 4;
const STEPS: usize = 60_000;

struct Cell {
    sim: Sim,
    fleet: Vec<KSetAgreementMachine>,
    fd: KAntiOmega,
    kset: KSetAgreement,
}

fn cell() -> Cell {
    let universe = Universe::new(N).unwrap();
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(K, T));
    let kset = KSetAgreement::alloc(&mut sim, K);
    let fleet = universe
        .processes()
        .map(|p| kset.machine(&fd, 1000 + 7 * p.index() as Value))
        .collect();
    Cell {
        sim,
        fleet,
        fd,
        kset,
    }
}

/// A `{p0..p_{k-1}}`-timely schedule observed by `t + 1` processes.
fn schedule(seed: u64) -> Schedule {
    let p: ProcSet = (0..K).map(ProcessId::new).collect();
    let q: ProcSet = (0..=T).map(ProcessId::new).collect();
    let spec = GeneratorSpec::set_timely(p, q, 2 * (T + 1), GeneratorSpec::seeded_random(0));
    spec.build(Universe::new(N).unwrap(), seed)
        .take_schedule(STEPS)
}

/// Everything a run can be observed through: the report, the per-register
/// statistics, and every register's contents.
fn observe(cell: &Cell, sim: &Sim) -> Vec<String> {
    let universe = sim.universe();
    let mut seen = vec![
        format!("{:?}", sim.report()),
        format!("{:?}", sim.memory().stats()),
    ];
    for p in universe.processes() {
        seen.push(cell.fd.peek_heartbeat(sim, p).to_string());
    }
    for rank in 0..cell.fd.set_count() {
        for q in universe.processes() {
            seen.push(cell.fd.peek_counter(sim, rank, q).to_string());
        }
    }
    for instance in cell.kset.instances() {
        seen.push(format!("{:?}", instance.peek_records(sim)));
        seen.push(format!("{:?}", instance.peek_decision(sim)));
    }
    seen
}

#[test]
fn a_cloned_e3_run_runs_on_like_the_original_and_apart_from_it() {
    for seed in 1..=3u64 {
        let schedule = schedule(seed);
        // A seeded fork step, somewhere in the middle third.
        let fork = STEPS / 3 + (seed as usize * 7_919) % (STEPS / 3);
        let (head, tail) = (schedule.prefix(fork), schedule.suffix(fork));
        let budget = RunConfig::steps(STEPS as u64);

        let mut original = cell();
        original
            .sim
            .run_automata_replay(&mut original.fleet, &head, budget)
            .unwrap();
        let mut sim = original.sim.clone();
        let mut fleet = original.fleet.clone();
        let at_fork = observe(&original, &sim);
        assert_eq!(observe(&original, &original.sim), at_fork);

        original
            .sim
            .run_automata_replay(&mut original.fleet, &tail, budget)
            .unwrap();
        let finished = observe(&original, &original.sim);
        assert_ne!(finished, at_fork, "seed {seed}: the tail moves the run");
        assert_eq!(
            observe(&original, &sim),
            at_fork,
            "seed {seed}: running the original moved its clone"
        );

        sim.run_automata_replay(&mut fleet, &tail, budget).unwrap();
        assert_eq!(observe(&original, &sim), finished, "seed {seed}");
        assert!(
            sim.decided_set().len() >= N - T,
            "seed {seed}: the run is long enough to decide"
        );
    }
}
