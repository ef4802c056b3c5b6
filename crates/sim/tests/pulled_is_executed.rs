//! Pulled is executed: every drive executes exactly the steps it takes from
//! its source — no more (a stop rule is checked before the pull, the budget
//! caps the pulls) and no fewer (every pulled step runs, a finished or
//! idle process's included) — and a replay drive executes exactly the
//! first `steps` entries of its schedule.
//!
//! Nothing in the simulator records the executed schedule: a caller that
//! needs it rebuilds it from its generator (a scenario's counterexample,
//! E2's membership certificate) or measures it from its own choices (the
//! adaptive adversary's witness). Both rest on this contract. The table
//! holds every drive to it, under every stop rule, with the budget cutting
//! the run and with the source running dry: a test-side source records each
//! pull, and the run's state must equal a plain replay of exactly the
//! recorded prefix. It runs at n = 3, where `run_automata` steps its
//! blocks scalar, and at [`SOA_DELEGATE_BELOW_N`], where it batches them,
//! on a schedule longer than one 64 Ki-step block, so that the budget and
//! the source's end fall mid-block.

mod common;

use common::SumScan;
use st_core::stepsource::FromFn;
use st_core::{ProcSet, ProcessId, Schedule, StepSource, Universe};
use st_sim::{Reg, RegisterStats, RunConfig, RunStatus, Sim, StopWhen, SOA_DELEGATE_BELOW_N};

const SCAN_WORDS: usize = 4;
/// Rounds before each process decides and finishes: p0 early in the run,
/// p1 midway, the others never.
fn limit(i: usize) -> u64 {
    [2, 5].get(i).copied().unwrap_or(u64::MAX)
}

/// Every entry point a step can come through.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// `run_automata` over a typed fleet.
    Fleet,
    /// `run_automata_replay`.
    Replay,
    /// `run_automata_replay_soa`, the batched engine at any n.
    ReplaySoa,
    /// `run_adaptive`, the chooser reading the schedule.
    Adaptive,
}

const DRIVES: [Drive; 4] = [
    Drive::Fleet,
    Drive::Replay,
    Drive::ReplaySoa,
    Drive::Adaptive,
];

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Observed {
    steps: u64,
    ops: Vec<u64>,
    probes: Vec<String>,
    decisions: Vec<Option<(u64, u64)>>,
    finished: Vec<bool>,
    outs: Vec<u64>,
    register_stats: Vec<RegisterStats>,
}

/// A `Sim` of `n` processes with the shared scan array and one output
/// register per process.
fn arena(n: usize) -> (Sim, Reg<u64>, Vec<Reg<u64>>) {
    let mut sim = Sim::new(Universe::new(n).unwrap());
    let shared: Vec<Reg<u64>> = (0..SCAN_WORDS)
        .map(|i| sim.alloc(format!("shared{i}"), 10 + i as u64))
        .collect();
    let outs = (0..n)
        .map(|i| sim.alloc(format!("out[{i}]"), 0u64))
        .collect::<Vec<_>>();
    (sim, shared[0], outs)
}

fn fleet(base: Reg<u64>, outs: &[Reg<u64>]) -> Vec<SumScan> {
    (0..outs.len())
        .map(|i| SumScan::new(base, outs[i], SCAN_WORDS, limit(i)))
        .collect()
}

fn observe(sim: &Sim, outs: &[Reg<u64>]) -> Observed {
    let report = sim.report();
    Observed {
        steps: sim.steps_executed(),
        ops: report.op_counts,
        probes: report
            .probes
            .events()
            .iter()
            .map(|e| format!("{e:?}"))
            .collect(),
        decisions: report
            .decisions
            .iter()
            .map(|d| d.map(|d| (d.value, d.step)))
            .collect(),
        finished: report.finished,
        outs: outs.iter().map(|&r| sim.peek(r)).collect(),
        register_stats: sim.memory().stats(),
    }
}

/// Runs `drive` over `schedule` under `cfg` and returns the run's status
/// (none for `run_adaptive`), what it left observable, and the steps its
/// source gave up — pulls, or the chooser's choices — or, for a replay
/// drive, `None`.
fn drive(
    n: usize,
    drive: Drive,
    schedule: &Schedule,
    cfg: RunConfig,
) -> (Option<RunStatus>, Observed, Option<Vec<ProcessId>>) {
    let (mut sim, base, outs) = arena(n);
    let mut pulled = Vec::new();
    let mut next = schedule.iter();
    let mut src = FromFn(|| {
        let step = next.next()?;
        pulled.push(step);
        Some(step)
    });
    let mut machines = fleet(base, &outs);
    let status = match drive {
        Drive::Fleet => Some(sim.run_automata(&mut machines, &mut src, cfg)),
        Drive::Replay => Some(sim.run_automata_replay(&mut machines, schedule, cfg)),
        Drive::ReplaySoa => Some(sim.run_automata_replay_soa(&mut machines, schedule, 4, cfg)),
        Drive::Adaptive => {
            let budget = cfg.max_steps.min(schedule.len() as u64);
            sim.run_adaptive(&mut machines, budget, |_| src.next_step().unwrap())
                .unwrap();
            None
        }
    };
    let status = status.map(|s| s.expect("the schedule stays within the universe"));
    // Without a stop rule the batched engine runs: on the raw engine entry
    // at any n, on `run_automata` from the threshold on.
    let engine = match drive {
        Drive::Fleet => n >= SOA_DELEGATE_BELOW_N,
        Drive::ReplaySoa => true,
        Drive::Replay | Drive::Adaptive => false,
    };
    let batched = machines.iter().any(|m| !m.batches.is_empty());
    assert_eq!(
        batched,
        engine && cfg.stop == StopWhen::Never,
        "{drive:?}, n = {n}"
    );
    let replays = matches!(drive, Drive::Replay | Drive::ReplaySoa);
    (status, observe(&sim, &outs), (!replays).then_some(pulled))
}

/// The plain replay of exactly `prefix`, no stop rule: what a run that
/// executed `prefix` must have left behind.
fn replay_of(n: usize, prefix: &Schedule) -> Observed {
    let (mut sim, base, outs) = arena(n);
    let mut machines = fleet(base, &outs);
    let cfg = RunConfig::steps(prefix.len() as u64);
    let status = sim.run_automata_replay(&mut machines, prefix, cfg);
    assert_eq!(status, Ok(RunStatus::MaxSteps));
    observe(&sim, &outs)
}

/// Round-robin, dwells of 8, then an irregular tail — the batched
/// engine's round windows, dwell windows and bucketed slices — in
/// stretches of `8n` steps, repeated to `len`.
fn schedule(n: usize, len: usize) -> Schedule {
    let stretch = 8 * n;
    Schedule::from_indices((0..len).map(|s| {
        let at = s % stretch;
        match (s / stretch) % 3 {
            0 => at % n,
            1 => (at / 8) % n,
            _ => (at * 7 + at / 5) % n,
        }
    }))
}

#[test]
fn every_drive_executes_exactly_what_it_pulls() {
    for (n, len) in [(3, 120), (SOA_DELEGATE_BELOW_N, (1 << 16) + 1_000)] {
        every_drive_executes_exactly_what_it_pulls_at(n, len);
    }
}

fn every_drive_executes_exactly_what_it_pulls_at(n: usize, len: usize) {
    let schedule = schedule(n, len);
    let len = len as u64;
    let stops = [
        StopWhen::Never,
        StopWhen::AllDecided(ProcSet::from_indices([0])),
        StopWhen::AnyDecided,
        StopWhen::AllFinished(ProcSet::from_indices([0, 1])),
    ];
    let mut ends = Vec::new();
    for stop in stops {
        // The budget cuts the run (in the first block, in the last), or the
        // source runs dry first.
        for budget in [len / 2, len - 7, len + 9] {
            let cfg = RunConfig::steps(budget).stop_when(stop);
            for d in DRIVES {
                if matches!(d, Drive::Adaptive) && stop != StopWhen::Never {
                    // `run_adaptive` has no stop rule: every choice runs.
                    continue;
                }
                let what = format!("n = {n}, {d:?}, {stop:?}, budget {budget}");
                let (status, seen, pulled) = drive(n, d, &schedule, cfg);
                let ran = seen.steps as usize;
                let prefix = schedule.prefix(ran);
                if let Some(pulled) = pulled {
                    assert_eq!(pulled.as_slice(), prefix.as_slice(), "{what}");
                }
                assert_eq!(seen, replay_of(n, &prefix), "{what}");
                ends.extend(status.map(|s| (s, stop)));
            }
        }
    }
    // The table reaches every way a run can end, and each stop rule fires
    // mid-run.
    for status in [RunStatus::MaxSteps, RunStatus::SourceEnded] {
        assert!(
            ends.iter().any(|&(s, _)| s == status),
            "n = {n}: no run ended {status:?}"
        );
    }
    for stop in &stops[1..] {
        assert!(
            ends.contains(&(RunStatus::Stopped, *stop)),
            "n = {n}: {stop:?} never fired"
        );
    }
}
