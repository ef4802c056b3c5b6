//! Large-n fleets: the E9-shaped cells through `Scenario::run` on both
//! replay drives, and the drives alone on a pre-materialised schedule.

use std::hint::black_box;

use st_agreement::LeanConsensus;
use st_campaign::{FleetReplayDrive, GeneratorSpec, Scenario, Workload};
use st_core::{ProcessId, StepSource, Universe};
use st_fd::{LeanOmega, TimeoutPolicy};
use st_sim::{Memory, RunConfig, Sim, WriteDiscipline};

use crate::metrics::{FLEET_CELLS, FLEET_DRIVES};
use crate::trace::Tracer;

/// SoA slice length: within one FD scan's read run for n ≥ 64.
const SLICE_LEN: usize = 1024;

/// The schedule shape a fleet workload runs its cells on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Dwell of one full lean FD iteration per turn (E9's shape).
    Bursty,
    /// Stride-n round-robin.
    Interleaved,
}

impl Shape {
    fn generator(self, n: usize) -> GeneratorSpec {
        match self {
            Shape::Bursty => GeneratorSpec::bursty((n * n + n + 2) as u64),
            Shape::Interleaved => GeneratorSpec::round_robin(),
        }
    }
}

/// Same resilience fraction at every size, as E9.
fn resilience(n: usize) -> usize {
    (n / 16).max(1)
}

fn drive_of(name: &str) -> FleetReplayDrive {
    match name {
        "plain" => FleetReplayDrive::Plain,
        _ => FleetReplayDrive::Soa {
            slice_len: SLICE_LEN,
        },
    }
}

/// One cell on one drive; wide cells run half the step budget (their steps
/// cost about twice a lean step).
fn cell_scenario(
    cell: &str,
    n: usize,
    drive: &str,
    shape: Shape,
    steps: u64,
    seed: u64,
) -> Scenario {
    let policy = TimeoutPolicy::Increment;
    let t = resilience(n);
    let drive_kind = drive_of(drive);
    let (workload, budget) = match cell {
        "lean_conv" => (
            Workload::LeanConvergence {
                t,
                policy,
                drive: drive_kind,
            },
            steps,
        ),
        "lean_agree" => (
            Workload::LeanAgreement {
                t,
                policy,
                drive: drive_kind,
            },
            steps,
        ),
        "wide_fd" => (
            Workload::WideFdConvergence {
                k: 1,
                t,
                policy,
                drive: drive_kind,
            },
            steps / 2,
        ),
        other => unreachable!("unknown fleet cell {other}"),
    };
    Scenario::new(
        format!("{cell}.n{n}.{drive}"),
        Universe::new(n).expect("fleet sizes are in range"),
        shape.generator(n),
        workload,
        budget,
        seed,
    )
}

/// What one pass over the cells did.
pub struct CellsResult {
    /// Steps simulated, summed over cells and drives.
    pub steps: u64,
    /// Cells whose drive pair disagreed or that recorded a violation.
    pub failed: u64,
    /// Fingerprint input: per cell, the steps of its plain run.
    pub cell_steps: Vec<u64>,
}

/// Runs every cell on both drives (`steps` per lean cell) and compares each
/// pair. Pieces: `sim.fleet.<cell>.n<n>.<drive>`, count = steps executed.
pub fn run_cells(tracer: &Tracer, shape: Shape, steps: u64, seed: u64) -> CellsResult {
    let mut result = CellsResult {
        steps: 0,
        failed: 0,
        cell_steps: Vec::new(),
    };
    for (cell, n) in FLEET_CELLS {
        let pair: Vec<_> = FLEET_DRIVES
            .iter()
            .map(|drive| {
                let scenario = cell_scenario(cell, n, drive, shape, steps, seed);
                tracer.piece(
                    &format!("sim.fleet.{}", scenario.label),
                    &format!("{cell}.n{n}"),
                    || {
                        let budget = scenario.budget;
                        (scenario.run(), budget)
                    },
                )
            })
            .collect();
        let executed = |o: &st_campaign::ScenarioOutcome| match &o.data {
            st_campaign::OutcomeData::Lean(l) => l.steps,
            st_campaign::OutcomeData::WideFd(w) => w.steps,
            _ => 0,
        };
        let same = pair[0].data == pair[1].data;
        let clean = pair.iter().all(|o| o.violations.is_empty());
        if !(same && clean) {
            result.failed += 1;
        }
        result.steps += pair.iter().map(executed).sum::<u64>();
        result.cell_steps.push(executed(&pair[0]));
    }
    result
}

/// The drives alone at n = 256 (a `LeanConsensus` fleet over `LeanOmega`,
/// as the `lean_agree.n256` cell builds it) on `steps` pre-materialised
/// steps of `shape`, and the arena's span read.
pub fn drive_probes(tracer: &Tracer, shape: Shape, steps: u64, reps: usize) {
    const N: usize = 256;
    let universe = Universe::new(N).expect("in range");
    let schedule = shape
        .generator(N)
        .build(universe, 0)
        .take_schedule(steps as usize);
    let replay = |soa: bool| {
        let mut sim = Sim::new(universe);
        let fd = LeanOmega::alloc(&mut sim, resilience(N), TimeoutPolicy::Increment);
        let cons = LeanConsensus::alloc(&mut sim);
        let mut fleet: Vec<_> = universe
            .processes()
            .map(|p| cons.machine(&fd, 100 + p.index() as u64))
            .collect();
        let cfg = RunConfig::steps(steps);
        let name = if soa {
            "sim.soa.replay.n256"
        } else {
            "sim.runner.replay_plain.n256"
        };
        tracer.counted(name, "drive.n256", || {
            if soa {
                sim.run_automata_replay_soa(&mut fleet, &schedule, SLICE_LEN, cfg)
            } else {
                sim.run_automata_replay(&mut fleet, &schedule, cfg)
            }
            .expect("generator schedules stay within the universe");
            ((), steps)
        });
    };

    const WORDS: usize = 1 << 16;
    const SPAN: usize = 1024;
    const SWEEPS: usize = 16;
    let mut memory = Memory::new();
    let base = memory.alloc("w0", WriteDiscipline::MultiWriter, 0u64);
    for i in 1..WORDS {
        memory.alloc(
            format!("w{i}"),
            WriteDiscipline::SingleWriter(ProcessId::new(0)),
            i as u64,
        );
    }
    let mut dest = [0u64; SPAN];

    for _ in 0..reps {
        replay(false);
        replay(true);
        tracer.counted("sim.memory.span_read", "arena", || {
            for _ in 0..SWEEPS {
                for offset in (0..WORDS).step_by(SPAN) {
                    memory
                        .read_word_span(base, offset, &mut dest)
                        .expect("the span stays inside the arena");
                    black_box(&dest);
                }
            }
            ((), (SWEEPS * WORDS) as u64)
        });
    }
}
