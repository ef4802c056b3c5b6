//! The E3-shaped agreement grid and the cost ladder on its largest cell.
//!
//! The ladder times, on the one `(n, k, t) = (8, 3, 4)` scenario, every
//! rung between one register operation and one checked `Scenario::run`, so
//! that `campaign.scenario.unchecked_ns_per_step` is an attributed budget:
//! generator build + step pull + stack build + machine-slot run, and what
//! is left over (`unattributed`: outcome assembly, reports, labels).

use std::hint::black_box;

use st_agreement::{AgreementStack, KSetAgreement, StackAbi};
use st_campaign::{Campaign, GeneratorSpec, Scenario, ScenarioOutcome, Workload};
use st_core::{AgreementTask, ProcSet, ProcessId, ScheduleCursor, StepSource, Universe};
use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy};
use st_sim::{Memory, RunConfig, Sim, WriteDiscipline};

use crate::trace::Tracer;

/// `(n, k, t)` of the grid's tasks — the grid `st-bench` calls E3-shaped.
pub const E3_TASKS: [(usize, usize, usize); 4] = [(3, 1, 1), (4, 2, 2), (5, 2, 3), (8, 3, 4)];

/// Per-scenario step budget; every conforming scenario decides far below it.
const BUDGET: u64 = 400_000;

fn e3_scenario(n: usize, k: usize, t: usize, seed: u64) -> Scenario {
    let p: ProcSet = (0..k.min(t)).map(ProcessId::new).collect();
    let q: ProcSet = (0..=t).map(ProcessId::new).collect();
    Scenario::new(
        format!("t{t}k{k}n{n}/seed{seed}"),
        Universe::new(n).expect("grid sizes are in range"),
        GeneratorSpec::set_timely(p, q, 2 * (t + 1), GeneratorSpec::seeded_random(0)),
        Workload::Agreement {
            t,
            k,
            inputs: (0..n as u64).map(|v| 1000 + 7 * v).collect(),
            policy: TimeoutPolicy::Increment,
            certify: None,
        },
        BUDGET,
        seed,
    )
}

/// The four tasks × `seeds_per_task` consecutive scenario seeds from `base`.
pub fn e3_grid(base: u64, seeds_per_task: u64) -> Campaign {
    let mut campaign = Campaign::new();
    for (n, k, t) in E3_TASKS {
        for i in 0..seeds_per_task {
            campaign.push(e3_scenario(n, k, t, base.wrapping_add(i)));
        }
    }
    campaign
}

/// The ladder's cell: the grid's largest task at one seed.
pub fn e3_cell(seed: u64) -> Scenario {
    let (n, k, t) = E3_TASKS[3];
    e3_scenario(n, k, t, seed)
}

/// Checks agreement outcomes the way every grid workload does: each
/// scenario decided cleanly and no invariant fired. Returns the number of
/// scenarios that did not, and the simulated steps of those that did.
pub fn judge(outcomes: &[ScenarioOutcome]) -> (u64, u64) {
    let mut failed = 0;
    let mut steps = 0;
    for o in outcomes {
        match o.data.as_agreement() {
            Some(a) if a.clean && o.violations.is_empty() => {
                steps += a.decided_at.expect("clean runs decided");
            }
            _ => failed += 1,
        }
    }
    (failed, steps)
}

/// Times every rung `reps` times on `cell`, then `grid` on one and on two
/// workers.
pub fn ladder(tracer: &Tracer, cell: &Scenario, grid: &Campaign, reps: usize) {
    let id = cell.label.as_str();
    let universe = cell.universe;
    let Workload::Agreement {
        t,
        k,
        inputs,
        policy,
        ..
    } = &cell.workload
    else {
        panic!("the ladder cell is an agreement scenario");
    };
    let task = AgreementTask::new(*t, *k, universe.n()).expect("grid tasks are valid");
    let build_stack = || AgreementStack::build_abi(task, inputs, *policy, false, StackAbi::Machine);

    // The steps the scenario executes: its own generator, to all-decided.
    let steps = build_stack()
        .run(
            &mut cell.generator.build(universe, cell.seed),
            cell.budget,
            ProcSet::EMPTY,
        )
        .report
        .steps;
    let prefix = cell
        .generator
        .build(universe, cell.seed)
        .take_schedule(steps as usize);

    let mut memory = Memory::new();
    let regs: Vec<_> = (0..64)
        .map(|i| memory.alloc(format!("r{i}"), WriteDiscipline::MultiWriter, 0u64))
        .collect();
    const WORD_OPS: u64 = 200_000;
    const BUILDS: u64 = 200;

    for _ in 0..reps {
        tracer.counted("sim.memory.word_rw", id, || {
            let writer = ProcessId::new(0);
            for i in 0..WORD_OPS as usize / 2 {
                let reg = regs[i & 63];
                let v = memory.read_word(reg).expect("allocated above");
                memory
                    .write_word(writer, reg, v + 1)
                    .expect("multi-writer word register");
            }
            ((), WORD_OPS)
        });
        tracer.counted("sched.build", id, || {
            for _ in 0..BUILDS {
                black_box(cell.generator.build(universe, cell.seed));
            }
            ((), BUILDS)
        });
        let mut source = cell.generator.build(universe, cell.seed);
        let pulled = tracer.counted("sched.pull", id, || {
            (source.take_schedule(steps as usize), steps)
        });
        assert_eq!(pulled, prefix, "generators are deterministic");
        let stack = tracer.counted("agreement.stack_build", id, || (build_stack(), 1));
        let mut cursor = ScheduleCursor::new(prefix.clone());
        let run = tracer.counted("sim.runner.machine_slot", id, || {
            let run = stack.run(&mut cursor, cell.budget, ProcSet::EMPTY);
            let executed = run.report.steps;
            (run, executed)
        });
        assert_eq!(run.report.steps, steps);

        let mut sim = Sim::new(universe);
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(*k, *t).with_policy(*policy));
        let kset = KSetAgreement::alloc(&mut sim, *k);
        let mut fleet: Vec<_> = universe
            .processes()
            .map(|p| kset.machine(&fd, inputs[p.index()]))
            .collect();
        tracer.counted("sim.runner.replay_plain", id, || {
            sim.run_automata_replay(&mut fleet, &prefix, RunConfig::steps(steps))
                .expect("the prefix stays within the universe");
            ((), steps)
        });

        tracer.counted("campaign.scenario.unchecked", id, || {
            (black_box(cell.run_unchecked()), steps)
        });
        let checked = tracer.counted("campaign.scenario.checked", id, || (cell.run(), steps));
        assert!(checked.violations.is_empty(), "the ladder cell is clean");
    }

    let scenarios = grid.len() as u64;
    for _ in 0..reps.min(2) {
        tracer.counted("campaign.campaign.run_parallel_1w", "grid", || {
            (black_box(grid.run_parallel(1)), scenarios)
        });
        tracer.counted("campaign.campaign.run_parallel_2w", "grid", || {
            (black_box(grid.run_parallel(2)), scenarios)
        });
    }
}
