//! Property tests for the Figure 2 algorithm: structural invariants that
//! must hold in **every** run, conforming or adversarial.

use proptest::prelude::*;
use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy, WINNERSET_PROBE};
use st_sim::{RunConfig, Sim};

prop_compose! {
    fn arb_schedule(n: usize)(steps in prop::collection::vec(0..n, 200..4_000)) -> Schedule {
        Schedule::from_indices(steps)
    }
}

fn run_fd(
    n: usize,
    k: usize,
    t: usize,
    policy: TimeoutPolicy,
    sched: Schedule,
) -> (Sim, KAntiOmega) {
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t).with_policy(policy));
    let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
    let len = sched.len() as u64;
    let mut src = ScheduleCursor::new(sched);
    sim.run_automata(&mut fleet, &mut src, RunConfig::steps(len))
        .unwrap();
    (sim, fd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every published winnerset has exactly k members, all within Π_n —
    /// hence every fdOutput has exactly n − k members (line 5).
    #[test]
    fn winnersets_always_have_size_k(
        sched in arb_schedule(4),
        k in 1usize..=3,
        policy_double in any::<bool>(),
    ) {
        let n = 4;
        let t = 3;
        prop_assume!(k <= t);
        let policy = if policy_double { TimeoutPolicy::Double } else { TimeoutPolicy::Increment };
        let (sim, _fd) = run_fd(n, k, t, policy, sched);
        let report = sim.report();
        let full = ProcSet::full(Universe::new(n).unwrap());
        for p in (0..n).map(ProcessId::new) {
            for (_, bits) in report.probes.timeline(p, WINNERSET_PROBE) {
                let ws = ProcSet::from_bits(bits);
                prop_assert_eq!(ws.len(), k);
                prop_assert!(ws.is_subset(full));
            }
        }
    }

    /// Heartbeats are monotone and counters never decrease (Lemma 10), in
    /// any run.
    #[test]
    fn counters_are_monotone(sched in arb_schedule(3), k in 1usize..=2) {
        let n = 3;
        let t = 2;
        let universe = Universe::new(n).unwrap();
        let mut sim = Sim::new(universe);
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, t));
        let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
        let mut src = ScheduleCursor::new(sched.clone());
        let mut prev_counters: Vec<Vec<u64>> = Vec::new();
        let mut prev_hb: Vec<u64> = vec![0; n];
        // Drive in chunks, checking monotonicity at each checkpoint.
        for _ in 0..8 {
            sim.run_automata(&mut fleet, &mut src, RunConfig::steps(sched.len() as u64 / 8)).unwrap();
            let counters: Vec<Vec<u64>> = (0..fd.set_count())
                .map(|rank| {
                    (0..n)
                        .map(|q| fd.peek_counter(&sim, rank, ProcessId::new(q)))
                        .collect()
                })
                .collect();
            if !prev_counters.is_empty() {
                for (rank, row) in counters.iter().enumerate() {
                    for (q, &v) in row.iter().enumerate() {
                        prop_assert!(v >= prev_counters[rank][q], "counter regressed");
                    }
                }
            }
            for (q, prev) in prev_hb.iter_mut().enumerate() {
                let hb = fd.peek_heartbeat(&sim, ProcessId::new(q));
                prop_assert!(hb >= *prev, "heartbeat regressed");
                *prev = hb;
            }
            prev_counters = counters;
        }
    }

    /// A process that never runs never writes: its heartbeat stays 0 and
    /// its counter column stays 0 (write discipline, Lemma 12 premise).
    #[test]
    fn silent_process_stays_silent(raw in prop::collection::vec(0..2usize, 500..2_000)) {
        // Only p0 and p1 ever scheduled; p2 silent.
        let sched = Schedule::from_indices(raw);
        let (sim, fd) = run_fd(3, 1, 2, TimeoutPolicy::Increment, sched);
        prop_assert_eq!(fd.peek_heartbeat(&sim, ProcessId::new(2)), 0);
        for rank in 0..fd.set_count() {
            prop_assert_eq!(fd.peek_counter(&sim, rank, ProcessId::new(2)), 0);
        }
    }

    /// Step accounting matches the published cost model: a full iteration
    /// with e expirations costs steps_per_iteration(e).
    #[test]
    fn iteration_cost_model(k in 1usize..=2) {
        let n = 3;
        let universe = Universe::new(n).unwrap();
        let mut sim = Sim::new(universe);
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, 2));
        let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
        // Run p0 solo until the iteration completes.
        let one = Schedule::from_indices([0]);
        let mut steps = 0u64;
        while fleet[0].iterations() == 0 {
            sim.run_automata_replay(&mut fleet, &one, RunConfig::steps(1)).unwrap();
            steps += 1;
            prop_assert!(steps < 10_000, "iteration never completed");
        }
        // First iteration: every set timer expires (timer=1 → 0), so
        // e = C(n,k) expirations... except sets containing p0, whose timer
        // was reset by p0's own heartbeat in the same iteration.
        let m = fd.set_count() as u64;
        let n_u = n as u64;
        let min_cost = fd.steps_per_iteration(0);
        let max_cost = fd.steps_per_iteration(m as usize);
        prop_assert!(steps >= min_cost && steps <= max_cost,
            "cost {steps} outside [{min_cost}, {max_cost}] (m={m}, n={n_u})");
    }
}
