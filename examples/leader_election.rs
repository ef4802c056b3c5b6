//! Leader election for a replicated control plane.
//!
//! The `k = 1` corner of the paper is the classic leader oracle Ω
//! (footnote 2): the Figure 2 winnerset becomes a single eventually-stable,
//! eventually-correct leader. This example runs a 5-node "control plane"
//! where every node runs one `k = 1`, `t = n − 1` Figure 2 machine, the
//! current leader crashes twice, and the oracle re-elects among survivors
//! each time — the standard failover story of leader-based replication,
//! driven entirely by set timeliness.
//!
//! Run with: `cargo run --example leader_election`

use set_timeliness::core::{ProcSet, ProcessId, Universe};
use set_timeliness::fd::{KAntiOmega, KAntiOmegaConfig, WINNERSET_PROBE};
use set_timeliness::sched::{CrashAfter, CrashPlan, SeededRandom, SetTimely};
use set_timeliness::sim::{RunConfig, Sim};

/// The leader a winnerset publication names: at `k = 1` the winnerset is a
/// singleton, published as its bitset.
fn leader(bits: u64) -> u64 {
    ProcSet::from_bits(bits)
        .min()
        .expect("a k = 1 winnerset has one member")
        .index() as u64
}

fn main() {
    let n = 5;
    let universe = Universe::new(n).expect("valid universe");
    let mut sim = Sim::new(universe);
    let omega = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, n - 1));
    let mut fleet: Vec<_> = universe.processes().map(|_| omega.machine()).collect();

    // Failover script: p0 crashes at step 150k, then p1 at step 450k.
    // Synchrony: {p2} stays timely with respect to a majority — it is the
    // final leader candidate the oracle can settle on.
    let plan = CrashPlan::new()
        .crash(ProcessId::new(0), 150_000)
        .crash(ProcessId::new(1), 450_000);
    let filler = CrashAfter::new(SeededRandom::new(universe, 7), plan.clone());
    let timely = ProcSet::from_indices([2]);
    let observed = ProcSet::from_indices([1, 2, 3, 4]);
    let mut source = SetTimely::new(timely, observed, 8, filler).with_crashes(plan);

    sim.run_automata(&mut fleet, &mut source, RunConfig::steps(1_200_000))
        .unwrap();
    let report = sim.report();

    // The winnerset is published only when it changes, so each timeline is
    // the node's leadership changes.
    println!("leadership timeline (changes only), per node:");
    for node in universe.processes() {
        let rendered: Vec<String> = report
            .probes
            .timeline(node, WINNERSET_PROBE)
            .iter()
            .map(|&(step, bits)| format!("p{}@{step}", leader(bits)))
            .collect();
        println!("  {node}: {}", rendered.join(" -> "));
    }

    let survivors = ProcSet::from_indices([2, 3, 4]);
    let final_leaders: Vec<Option<u64>> = survivors
        .iter()
        .map(|p| report.probes.last_value(p, WINNERSET_PROBE).map(leader))
        .collect();
    println!("\nfinal leader at each survivor: {final_leaders:?}");
    assert!(
        final_leaders.iter().all(|&l| l == final_leaders[0]),
        "survivors must agree on the leader"
    );
    let leader = final_leaders[0].expect("survivors elected someone");
    assert!(
        survivors.contains(ProcessId::new(leader as usize)),
        "the final leader must be a survivor"
    );
    println!("converged on a correct leader: p{leader}");
}
