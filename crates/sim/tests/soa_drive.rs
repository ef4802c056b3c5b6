//! Unit tests for the struct-of-arrays replay drive
//! ([`Sim::run_automata_replay_soa`]): identity to the plain replay on a
//! purpose-built two-phase machine, the scalar fallback on impure slices,
//! delegation under stop conditions, and the typed
//! [`SimError::FleetDriveOnSpawnedSim`] precondition shared by every fleet
//! drive.
//!
//! (The workspace-wide differential suites live with the protocols, in
//! `st-agreement/tests/soa_differential.rs`; this file covers drive
//! mechanics with a minimal machine.)

mod common;

use common::{StepFn, SumScan};
use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
use st_sim::{Reg, RunConfig, RunStatus, Sim, SimError, Status, StepAccess, StopWhen};

fn universe(n: usize) -> Universe {
    Universe::new(n).unwrap()
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Builds a Sim with a shared `m`-word array (seeded with distinct values)
/// and one `SumScan` per process.
fn build(n: usize, m: usize, limit: u64) -> (Sim, Vec<Reg<u64>>, Vec<SumScan>) {
    build_with_short(n, m, limit, None)
}

/// [`build`], except that process `short` (if any) scans only the first
/// `m - 2` words.
fn build_with_short(
    n: usize,
    m: usize,
    limit: u64,
    short: Option<usize>,
) -> (Sim, Vec<Reg<u64>>, Vec<SumScan>) {
    let mut sim = Sim::new(universe(n));
    // Sequential allocations are contiguous (arena property): the first
    // register is a valid base for offset reads, with distinct seeds.
    let shared: Vec<Reg<u64>> = (0..m)
        .map(|i| sim.alloc(format!("shared{i}"), 10 + i as u64))
        .collect();
    let outs = sim.alloc_array("out", n, 0u64);
    let fleet = (0..n)
        .map(|i| {
            let words = if short == Some(i) { m - 2 } else { m };
            SumScan::new(shared[0], outs[i], words, limit)
        })
        .collect();
    (sim, outs, fleet)
}

/// Full observation of a run: step count, probes, decisions, op counts,
/// register stats, and the output registers.
fn observe(sim: &Sim, outs: &[Reg<u64>]) -> (u64, Vec<String>, String, Vec<u64>, String, Vec<u64>) {
    let rep = sim.report();
    let stats = sim.register_stats();
    // A run that read nothing would compare statistics vacuously.
    assert!(
        stats.iter().any(|s| s.reads > 0),
        "no register was ever read"
    );
    (
        rep.steps,
        rep.probes
            .events()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect(),
        format!("{:?}", rep.decisions),
        rep.op_counts.clone(),
        format!("{stats:?}"),
        outs.iter().map(|&r| sim.peek(r)).collect(),
    )
}

/// The SoA drive is observationally identical to the plain replay across
/// slice lengths, on schedules that make slices pure, impure, and mixed.
#[test]
fn soa_drive_equals_plain_replay() {
    let (n, m, limit) = (4usize, 6usize, 5u64);
    let schedules: Vec<(&str, Schedule)> = vec![
        ("rr", Schedule::from_indices((0..500).map(|s| s % n))),
        (
            "bursty",
            Schedule::from_indices((0..500).map(|s| (s / 13) % n)),
        ),
        (
            "skewed",
            Schedule::from_indices((0..500).map(|s| if s % 5 < 4 { 0 } else { 1 + s % (n - 1) })),
        ),
    ];
    for (name, sched) in &schedules {
        let plain = {
            let (mut sim, outs, mut fleet) = build(n, m, limit);
            sim.run_automata_replay(&mut fleet, sched, RunConfig::steps(1_000))
                .unwrap();
            observe(&sim, &outs)
        };
        for slice_len in [1usize, 2, 7, 64, 2_000] {
            let (mut sim, outs, mut fleet) = build(n, m, limit);
            sim.run_automata_replay_soa_batched(
                &mut fleet,
                sched,
                slice_len,
                RunConfig::steps(1_000),
            )
            .unwrap();
            assert_eq!(
                plain,
                observe(&sim, &outs),
                "{name}/slice={slice_len}: SoA diverged from plain replay"
            );
        }
    }
}

/// Dwell-shaped schedules make every slice single-process, which routes
/// through the uniform-slice fast path (contiguous-run allotments, no
/// per-step bucketing). The path must stay observationally identical to
/// plain replay across all its branches: whole-slice batched runs, the
/// scalar fallback when the slice outruns the read run (covering the
/// write phase mid-dwell), and the finished-machine skip once a dwelling
/// machine decides.
#[test]
fn soa_uniform_slice_fast_path_equals_plain_replay() {
    let (n, m, limit) = (3usize, 6usize, 3u64);
    // Dwell blocks of uneven lengths: process 0 dwells past its decision
    // (round = m reads + 1 write = 7 steps; limit 3 => done at step 21,
    // the rest of its 40-step block exercises the finished skip), the
    // others dwell in lengths misaligned with every slice length below.
    let blocks: [(usize, usize); 6] = [(0, 40), (1, 13), (2, 9), (1, 20), (2, 30), (1, 11)];
    let sched =
        Schedule::from_indices(blocks.iter().flat_map(|&(p, len)| (0..len).map(move |_| p)));
    let plain = {
        let (mut sim, outs, mut fleet) = build(n, m, limit);
        sim.run_automata_replay(&mut fleet, &sched, RunConfig::steps(200))
            .unwrap();
        observe(&sim, &outs)
    };
    for slice_len in [1usize, 4, 8, 64, 512] {
        let (mut sim, outs, mut fleet) = build(n, m, limit);
        sim.run_automata_replay_soa_batched(&mut fleet, &sched, slice_len, RunConfig::steps(200))
            .unwrap();
        assert_eq!(
            plain,
            observe(&sim, &outs),
            "slice={slice_len}: uniform-slice fast path diverged from plain replay"
        );
    }
}

/// Probes attach to the correct global step index even when a batch call
/// consumes several steps at once: the probe lands on the step of the last
/// read of the scan, exactly as in the scalar drive.
#[test]
fn soa_probe_steps_match_plain() {
    let (n, m) = (2usize, 4usize);
    let sched = Schedule::from_indices((0..40).map(|s| s % n));
    let probes = |soa: bool| {
        let (mut sim, _outs, mut fleet) = build(n, m, 3);
        if soa {
            sim.run_automata_replay_soa_batched(&mut fleet, &sched, 8, RunConfig::steps(40))
                .unwrap();
        } else {
            sim.run_automata_replay(&mut fleet, &sched, RunConfig::steps(40))
                .unwrap();
        }
        sim.report().probes.events().to_vec()
    };
    let plain = probes(false);
    assert!(!plain.is_empty(), "scan boundaries must probe");
    assert_eq!(plain, probes(true));
}

/// A stop condition also routes through the delegating path and is honored.
#[test]
fn soa_drive_honors_stop_conditions() {
    let n = 2;
    let sched = Schedule::from_indices(vec![0usize; 200]);
    let (mut sim, _outs, mut fleet) = build(n, 3, 2);
    let status = sim
        .run_automata_replay_soa_batched(
            &mut fleet,
            &sched,
            16,
            RunConfig::steps(200).stop_when(StopWhen::AnyDecided),
        )
        .unwrap();
    assert_eq!(status, RunStatus::Stopped);
    assert_eq!(sim.decisions().iter().flatten().count(), 1);
    assert!(sim.steps_executed() < 200, "must stop at the decision");
}

/// Completed machines' remaining allotments are no-ops in both drives.
#[test]
fn soa_drive_finished_machines_idle() {
    let n = 2;
    // p0 finishes early (limit 1), then keeps being scheduled.
    let sched = Schedule::from_indices((0..120).map(|s| s % n));
    let run = |soa: bool| {
        let u = universe(n);
        let mut sim = Sim::new(u);
        let shared = sim.alloc_array("shared", 3, 7u64);
        let outs = sim.alloc_array("out", n, 0u64);
        let mut fleet = vec![
            SumScan::new(shared[0], outs[0], 3, 1),
            SumScan::new(shared[0], outs[1], 3, 20),
        ];
        if soa {
            sim.run_automata_replay_soa_batched(&mut fleet, &sched, 10, RunConfig::steps(120))
                .unwrap();
        } else {
            sim.run_automata_replay(&mut fleet, &sched, RunConfig::steps(120))
                .unwrap();
        }
        (
            sim.is_finished(pid(0)),
            sim.op_count(pid(0)),
            sim.op_count(pid(1)),
            observe(&sim, &outs),
        )
    };
    let plain = run(false);
    assert!(plain.0, "p0 must finish");
    assert_eq!(plain, run(true));
}

/// Every fleet drive returns the typed
/// [`SimError::FleetDriveOnSpawnedSim`] — naming the drive and the spawned
/// process — instead of executing over a Sim that owns spawned slots.
#[test]
fn fleet_drives_return_typed_error_on_spawned_sim() {
    let check = |err: SimError, want_drive: &str| match err {
        SimError::FleetDriveOnSpawnedSim { drive, process } => {
            assert_eq!(drive, want_drive);
            assert_eq!(process, pid(1));
            let msg = err.to_string();
            assert!(
                msg.contains(want_drive),
                "display must name the drive: {msg}"
            );
        }
        other => panic!("expected FleetDriveOnSpawnedSim, got {other:?}"),
    };
    let spawned_sim = || {
        let mut sim = Sim::new(universe(2));
        let pause_once = StepFn(|mem: &mut StepAccess<'_>| {
            mem.pause();
            Status::Done
        });
        sim.spawn_automaton(pid(1), pause_once).unwrap();
        let shared = sim.alloc_array("shared", 2, 0u64);
        let outs = sim.alloc_array("out", 2, 0u64);
        let fleet: Vec<SumScan> = (0..2)
            .map(|i| SumScan::new(shared[0], outs[i], 2, 1))
            .collect();
        (sim, fleet)
    };
    let sched = Schedule::from_indices([0usize, 1]);

    let (mut sim, mut fleet) = spawned_sim();
    let mut src = ScheduleCursor::new(sched.clone());
    check(
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(2))
            .unwrap_err(),
        "run_automata",
    );

    let (mut sim, mut fleet) = spawned_sim();
    check(
        sim.run_automata_replay(&mut fleet, &sched, RunConfig::steps(2))
            .unwrap_err(),
        "run_automata_replay",
    );

    let (mut sim, mut fleet) = spawned_sim();
    check(
        sim.run_automata_replay_soa(&mut fleet, &sched, 4, RunConfig::steps(2))
            .unwrap_err(),
        "run_automata_replay_soa",
    );

    let (mut sim, mut fleet) = spawned_sim();
    check(
        sim.run_automata_replay_soa_batched(&mut fleet, &sched, 4, RunConfig::steps(2))
            .unwrap_err(),
        "run_automata_replay_soa_batched",
    );

    // The error is recoverable: none of the calls executed a step or
    // touched a register.
    let (sim, _fleet) = spawned_sim();
    assert_eq!(sim.steps_executed(), 0);
}

/// The round window: schedules that repeat a fixed permutation of the
/// whole fleet route through strided allotments of as many whole rounds as
/// every live read run admits, whatever the slice length, and must stay
/// observationally identical to plain replay — across rotations and a
/// shuffle of the permutation, a period that is not a permutation, a switch to a rotation mid-prefix, ragged
/// tails, a budget cut mid-round, one machine whose shorter scan binds the
/// window mid-scan of the others, slices shorter than a round (windows span
/// slices), and n = 2 and 33.
#[test]
fn soa_interleaved_fast_path_equals_plain_replay() {
    let (m, limit) = (6usize, 8u64);
    for n in [2usize, 5, 33] {
        let len = 80 * n;
        let switch = 7 * n + n / 2;
        let schedules: Vec<(&str, Schedule)> = vec![
            ("rr", Schedule::from_indices((0..len).map(|s| s % n))),
            (
                "rotated",
                Schedule::from_indices((0..len).map(|s| (s + 2) % n)),
            ),
            (
                "reversed-perm",
                Schedule::from_indices((0..len).map(|s| n - 1 - s % n)),
            ),
            (
                "rotation-mid-prefix",
                Schedule::from_indices((0..len).map(|s| (s + usize::from(s >= switch)) % n)),
            ),
            // Period n, but one process twice a round: not a window.
            (
                "periodic-non-perm",
                Schedule::from_indices((0..len).map(|s| (s % n) % (n - 1).max(1))),
            ),
            // The last round is cut short: the period holds, the round
            // does not.
            (
                "ragged-tail",
                Schedule::from_indices((0..len - 3).map(|s| s % n)),
            ),
        ];
        let fleet = |short: bool| build_with_short(n, m, limit, short.then_some(n / 2));
        for (name, sched) in &schedules {
            for short in [false, true] {
                for budget in [len as u64, 37 * n as u64 + 1] {
                    let cfg = RunConfig::steps(budget);
                    let plain = {
                        let (mut sim, outs, mut fleet) = fleet(short);
                        sim.run_automata_replay(&mut fleet, sched, cfg).unwrap();
                        observe(&sim, &outs)
                    };
                    for slice_len in [1, n - 1, n, 5 * n, 64, 1_000] {
                        let (mut sim, outs, mut fleet) = fleet(short);
                        sim.run_automata_replay_soa_batched(&mut fleet, sched, slice_len, cfg)
                            .unwrap();
                        assert_eq!(
                            plain,
                            observe(&sim, &outs),
                            "n={n} {name} short={short} budget={budget} slice={slice_len}: \
                             round window diverged"
                        );
                    }
                }
            }
        }
    }
}

/// Round-robin is where the round window pays: each machine's whole scan
/// (`m` rounds, its read run) is one strided allotment even with one round
/// per slice — and stays so once a machine has finished.
#[test]
fn soa_round_window_batches_whole_scans() {
    let (n, m) = (64usize, 40usize);
    let scans = |i: usize| if i == 0 { 1 } else { 3 };
    let mut sim = Sim::new(universe(n));
    let shared = sim.alloc_array("shared", m, 7u64);
    let outs = sim.alloc_array("out", n, 0u64);
    let mut fleet: Vec<SumScan> = (0..n)
        .map(|i| SumScan::new(shared[0], outs[i], m, scans(i) as u64))
        .collect();
    let steps = 3 * (m + 1) * n;
    let sched = Schedule::from_indices((0..steps).map(|s| s % n));
    sim.run_automata_replay_soa(&mut fleet, &sched, n, RunConfig::steps(steps as u64))
        .unwrap();
    let widest = fleet.iter().flat_map(|f| &f.batches).copied().max();
    assert!(widest >= Some(2), "no window of two rounds: {widest:?}");
    assert_eq!(
        widest,
        Some(m),
        "the widest window stops short of the read run"
    );
    for (i, machine) in fleet.iter().enumerate() {
        assert_eq!(
            machine.batches,
            vec![m; scans(i)],
            "process {i}: a scan was not one allotment"
        );
    }
}

/// Finished machines inside an interleaved slice: the permutation still
/// matches (the schedule keeps naming the finished process), its allotment
/// is a no-op, and everything stays identical to plain replay.
#[test]
fn soa_interleaved_with_finished_machines_equals_plain() {
    let n = 4;
    let sched = Schedule::from_indices((0..480).map(|s| s % n));
    let run = |batched: bool| {
        let u = universe(n);
        let mut sim = Sim::new(u);
        let shared = sim.alloc_array("shared", 5, 3u64);
        let outs = sim.alloc_array("out", n, 0u64);
        // p0 decides after one round; the others keep scanning.
        let mut fleet: Vec<SumScan> = (0..n)
            .map(|i| SumScan::new(shared[0], outs[i], 5, if i == 0 { 1 } else { 15 }))
            .collect();
        if batched {
            sim.run_automata_replay_soa_batched(&mut fleet, &sched, 6 * n, RunConfig::steps(480))
                .unwrap();
        } else {
            sim.run_automata_replay(&mut fleet, &sched, RunConfig::steps(480))
                .unwrap();
        }
        observe(&sim, &outs)
    };
    assert_eq!(run(false), run(true));
}

/// The delegating entry is observationally identical to the raw batched
/// engine on both sides of [`SOA_DELEGATE_BELOW_N`] — delegation is a pure
/// performance heuristic.
#[test]
fn soa_delegation_threshold_preserves_identity() {
    use st_sim::SOA_DELEGATE_BELOW_N;
    let (m, limit) = (6usize, 3u64);
    for n in [SOA_DELEGATE_BELOW_N - 1, SOA_DELEGATE_BELOW_N] {
        let sched = Schedule::from_indices((0..n * 40).map(|s| s % n));
        let steps = (n * 40) as u64;
        let plain = {
            let (mut sim, outs, mut fleet) = build(n, m, limit);
            sim.run_automata_replay(&mut fleet, &sched, RunConfig::steps(steps))
                .unwrap();
            observe(&sim, &outs)
        };
        for batched in [false, true] {
            let (mut sim, outs, mut fleet) = build(n, m, limit);
            if batched {
                sim.run_automata_replay_soa_batched(
                    &mut fleet,
                    &sched,
                    64,
                    RunConfig::steps(steps),
                )
                .unwrap();
            } else {
                sim.run_automata_replay_soa(&mut fleet, &sched, 64, RunConfig::steps(steps))
                    .unwrap();
            }
            assert_eq!(
                plain,
                observe(&sim, &outs),
                "n={n} batched={batched}: delegation changed observations"
            );
        }
    }
}

/// A fresh (never-spawned) Sim accepts every fleet drive; the typed error
/// appears only when slots exist — i.e. `ProcSet::full` of drives is
/// usable after plain construction.
#[test]
fn fleet_drives_accept_unspawned_sim() {
    let sched = Schedule::from_indices([0usize, 1, 0, 1]);
    let mut sim = Sim::new(universe(2));
    let shared = sim.alloc_array("shared", 2, 1u64);
    let outs = sim.alloc_array("out", 2, 0u64);
    let mut fleet: Vec<SumScan> = (0..2)
        .map(|i| SumScan::new(shared[0], outs[i], 2, 1))
        .collect();
    sim.run_automata_replay_soa(&mut fleet, &sched, 2, RunConfig::steps(4))
        .unwrap();
    assert_eq!(sim.steps_executed(), 4);
    let _ = ProcSet::full(universe(2));
}
