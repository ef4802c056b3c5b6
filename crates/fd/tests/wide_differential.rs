//! Differential tests for the width-generic detector: `KAntiOmega<W>` at
//! `W = 2` and at `W = 16` (`LEAN_WIDTH`, the width every lean fleet runs
//! at) against the classic `W = 1` instance on identical schedules, and the
//! paper's Figure 2 machinery actually converging beyond the 64-process
//! wall.
//!
//! On shared ground (`n ≤ 64`) the widths must be observationally
//! identical: same steps, same register traffic, same final register
//! contents, and probe sequences that decode to the same winnersets at the
//! same step indices (the payload *encoding* differs by design — bits at
//! `W = 1`, colex rank at `W > 1`; see [`st_fd::WINNERSET_PROBE`]).

use st_core::subsets::wide_unrank;
use st_core::{ProcSet, Schedule, StepSource, Universe};
use st_fd::convergence::wide_winnerset_stabilization;
use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy, LEAN_WIDTH, WINNERSET_PROBE};
use st_sched::SeededRandom;
use st_sim::{RegisterStats, RunConfig, RunReport, Sim};

fn round_robin(n: usize, len: usize) -> Schedule {
    Schedule::from_indices((0..len).map(|s| s % n))
}

/// The run's per-register access statistics, checked to be worth
/// comparing: an empty or all-zero list would make the comparison vacuous.
fn access_stats(sim: &Sim) -> Vec<RegisterStats> {
    let stats = sim.memory().stats();
    assert!(
        stats.iter().any(|s| s.reads > 0),
        "no register was ever read"
    );
    stats
}

/// Runs a machine fleet of width `W` on the replay drive and returns the
/// report and register statistics plus the final heartbeat/counter register
/// contents and the final per-process winnersets (as sorted member
/// indices).
fn run_wide<const W: usize>(
    n: usize,
    config: KAntiOmegaConfig,
    schedule: &Schedule,
) -> (RunReport, Vec<RegisterStats>, Vec<u64>, Vec<Vec<usize>>) {
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::<W>::alloc_wide(&mut sim, config);
    let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
    sim.run_automata_replay(
        &mut fleet,
        schedule,
        RunConfig::steps(schedule.len() as u64),
    )
    .unwrap();
    let mut registers = Vec::new();
    for p in universe.processes() {
        registers.push(fd.peek_heartbeat(&sim, p));
    }
    for rank in 0..fd.set_count() {
        for q in universe.processes() {
            registers.push(fd.peek_counter(&sim, rank, q));
        }
    }
    let winnersets = fleet
        .iter()
        .map(|m| m.winnerset().iter().map(|p| p.index()).collect())
        .collect();
    (sim.report(), access_stats(&sim), registers, winnersets)
}

/// W = 2 and the lean width must each replay W = 1 exactly, modulo the
/// documented probe encoding.
fn assert_widths_identical(n: usize, k: usize, t: usize, schedule: Schedule, label: &str) {
    assert_width_replays_w1::<2>(n, k, t, &schedule, label);
    assert_width_replays_w1::<LEAN_WIDTH>(n, k, t, &schedule, label);
}

fn assert_width_replays_w1<const W: usize>(
    n: usize,
    k: usize,
    t: usize,
    schedule: &Schedule,
    label: &str,
) {
    let label = format!("{label} W={W}");
    let universe = Universe::new(n).unwrap();
    for policy in [TimeoutPolicy::Increment, TimeoutPolicy::Double] {
        let config = KAntiOmegaConfig::new(k, t).with_policy(policy);
        let (rep1, stats1, regs1, ws1) = run_wide::<1>(n, config, schedule);
        let (rep2, stats2, regs2, ws2) = run_wide::<W>(n, config, schedule);

        assert_eq!(rep1.steps, rep2.steps, "{label}/{policy:?}: steps");
        assert_eq!(
            rep1.op_counts, rep2.op_counts,
            "{label}/{policy:?}: op counts"
        );
        assert_eq!(
            stats1, stats2,
            "{label}/{policy:?}: register access statistics"
        );
        assert_eq!(regs1, regs2, "{label}/{policy:?}: final register contents");
        assert_eq!(ws1, ws2, "{label}/{policy:?}: final winnersets");

        // Probe sequences: same (step, pid, key) skeleton; payloads decode
        // to the same set (bits at W = 1, colex rank at W > 1).
        let e1 = rep1.probes.events();
        let e2 = rep2.probes.events();
        assert_eq!(e1.len(), e2.len(), "{label}/{policy:?}: probe counts");
        for (a, b) in e1.iter().zip(e2.iter()) {
            assert_eq!(
                (a.step, a.pid, a.key),
                (b.step, b.pid, b.key),
                "{label}/{policy:?}: probe skeleton diverged"
            );
            assert_eq!(a.key, WINNERSET_PROBE);
            let narrow: Vec<usize> = ProcSet::from_bits(a.value)
                .iter()
                .map(|p| p.index())
                .collect();
            let wide: Vec<usize> = wide_unrank::<W>(universe, k, b.value)
                .iter()
                .map(|p| p.index())
                .collect();
            assert_eq!(
                narrow, wide,
                "{label}/{policy:?}: probe payloads decode to different sets"
            );
        }
    }
}

#[test]
fn w2_replays_w1_on_round_robin() {
    assert_widths_identical(3, 1, 1, round_robin(3, 30_000), "rr n=3 k=1 t=1");
    assert_widths_identical(5, 2, 3, round_robin(5, 50_000), "rr n=5 k=2 t=3");
}

#[test]
fn w2_replays_w1_on_seeded_random() {
    for seed in [1u64, 0xDEAD] {
        let u = Universe::new(4).unwrap();
        let s = SeededRandom::new(u, seed).take_schedule(40_000);
        assert_widths_identical(4, 1, 2, s.clone(), "rnd k=1 t=2");
        assert_widths_identical(4, 2, 3, s, "rnd k=2 t=3");
    }
}

#[test]
fn wide_detector_converges_beyond_64() {
    // The paper's detector past the ProcSet wall: n = 66 needs W = 2. On a
    // round-robin (synchronous) schedule the winnersets must stabilize to
    // one common singleton (k = 1), published in the rank encoding.
    let n = 66;
    let universe = Universe::new(n).unwrap();
    let config = KAntiOmegaConfig::new(1, 4);
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::<2>::alloc_wide(&mut sim, config);
    let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
    // ~4 full rotations of one-iteration bursts: enough for the increment
    // policy to settle on round-robin.
    let iteration = fd.steps_per_iteration(0);
    let budget = 4 * n as u64 * iteration;
    let schedule = round_robin(n, budget as usize);
    sim.run_automata_replay(&mut fleet, &schedule, RunConfig::steps(budget))
        .unwrap();

    let report = sim.report();
    let stab = wide_winnerset_stabilization(&report, universe.processes())
        .expect("round-robin at n=66 must stabilize");
    let winner = wide_unrank::<2>(universe, 1, stab.winnerset_rank);
    assert_eq!(winner.len(), 1, "k = 1 winnerset is a singleton");
    // Every machine's final local winnerset agrees with the published rank.
    for m in &fleet {
        assert_eq!(m.winnerset(), winner);
        assert_eq!(m.fd_output(), winner.complement(universe));
    }
    // The last probe of each process is the rank itself (wide encoding).
    for p in universe.processes() {
        assert_eq!(
            report.probes.last_value(p, WINNERSET_PROBE),
            Some(stab.winnerset_rank)
        );
    }
}
