//! The deterministic executor and run controller.
//!
//! A [`Sim`] owns the register arena, the spawned process automata, and the
//! trace. Driving it with a [`StepSource`] executes the schedule: each step
//! grants exactly one register operation to the scheduled process. The
//! executor is single-threaded and fully deterministic — the schedule is the
//! only source of nondeterminism in a run, which is precisely the model of
//! the paper.

use std::cell::{Cell, RefCell, RefMut};

use st_core::{AgreementOutcome, ProcSet, ProcessId, Schedule, StepSource, Universe, Value};

use crate::automaton::{Automaton, Status, StepAccess};
use crate::ctx::SimShared;
use crate::error::SimError;
use crate::memory::{Memory, RegisterStats};
use crate::register::{Reg, RegValue, WriteDiscipline};
use crate::soa::{Allotment, BatchAccess, PhaseBatch};
use crate::trace::{Decision, ProbeLog, TraceInner};

/// Result of executing a single step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The process took its step (one register operation, a pause, or
    /// local computation only) and is still running.
    Progressed,
    /// The process's automaton completed ([`Status::Done`]) during this
    /// step.
    Finished,
    /// The scheduled process has no live automaton (never spawned, already
    /// finished, or crashed): the step is a no-op, as for a halted process
    /// in the model.
    Idle,
}

/// Why a [`Sim::run`] call returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// The stop condition fired.
    Stopped,
    /// The step budget was exhausted.
    MaxSteps,
    /// The step source ran out of steps.
    SourceEnded,
    /// A process was blocked on something other than a simulator step.
    /// No drive produces it: it exists so that outcome stores written when
    /// the simulator could report it still decode.
    Stuck(ProcessId),
}

/// Stop conditions checked after every executed step.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StopWhen {
    /// Never stop early; run until the budget or the source ends.
    #[default]
    Never,
    /// Stop once every member of the set has decided.
    AllDecided(ProcSet),
    /// Stop once every member of the set has finished (its automaton
    /// returned [`Status::Done`]).
    AllFinished(ProcSet),
    /// Stop at the first decision by any process.
    AnyDecided,
}

/// Universe-size threshold below which
/// [`run_automata_replay_soa`](Sim::run_automata_replay_soa) delegates to
/// the plain replay instead of batching.
///
/// Below this n, per-slice allotments are too short to stay inside one
/// phase's read run on realistic schedules: batching degenerates to the
/// scalar fallback and only pays the bucketing overhead. The crossover sits
/// well below 64 (SoA is ahead in the smallest recorded cells,
/// `sim.fleet.lean_conv.n64.*` in `BENCHMARK.json`); 32 keeps a safety
/// margin on schedules with long dwells, which batch profitably at any n
/// via the uniform-slice fast path — a dwell of length ≥ n/2 still clears
/// the threshold's break-even on the workloads measured.
pub const SOA_DELEGATE_BELOW_N: usize = 32;

/// The one precondition of the phase-batched replay drives
/// ([`Sim::run_automata_replay_soa`]): a slice of at least one step.
pub fn check_slice_len(slice_len: usize) -> Result<(), String> {
    if slice_len == 0 {
        return Err("field \"slice_len\": slice_len must be positive, got 0".into());
    }
    Ok(())
}

/// Configuration of one `run` call.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Hard cap on executed steps for this call.
    pub max_steps: u64,
    /// Early-stop condition.
    pub stop: StopWhen,
}

impl RunConfig {
    /// Runs up to `max_steps` with no early stop.
    pub fn steps(max_steps: u64) -> Self {
        RunConfig {
            max_steps,
            stop: StopWhen::Never,
        }
    }

    /// Sets the stop condition.
    pub fn stop_when(mut self, stop: StopWhen) -> Self {
        self.stop = stop;
        self
    }

    /// The step budget as a count of schedule entries.
    fn budget(self) -> usize {
        usize::try_from(self.max_steps).unwrap_or(usize::MAX)
    }
}

/// Snapshot of a run: decisions, probe log and per-process operation
/// counts — not the executed schedule, which no drive holds: a caller that
/// needs it rebuilds it from its source (see [`Sim::run`]).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Total steps executed so far.
    pub steps: u64,
    /// Per-process decision (indexed by process index).
    pub decisions: Vec<Option<Decision>>,
    /// Per-process completion flag.
    pub finished: Vec<bool>,
    /// The probe log.
    pub probes: ProbeLog,
    /// Per-process completed register operations.
    pub op_counts: Vec<u64>,
}

impl RunReport {
    /// Decided value of process `p`, if any.
    pub fn decision_value(&self, p: ProcessId) -> Option<Value> {
        self.decisions[p.index()].map(|d| d.value)
    }

    /// The set of processes that decided.
    pub fn decided_set(&self) -> ProcSet {
        self.decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| ProcessId::new(i))
            .collect()
    }

    /// Step of the latest decision among `among`, if all of them decided.
    pub fn all_decided_step(&self, among: ProcSet) -> Option<u64> {
        let mut max = 0;
        for p in among.iter() {
            max = max.max(self.decisions[p.index()]?.step);
        }
        Some(max)
    }

    /// Packages the run as an [`AgreementOutcome`] for the `st-core`
    /// checkers.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` length differs from the number of processes.
    pub fn agreement_outcome(&self, inputs: &[Value], correct: ProcSet) -> AgreementOutcome {
        assert_eq!(
            inputs.len(),
            self.decisions.len(),
            "inputs length must be n"
        );
        AgreementOutcome {
            inputs: inputs.to_vec(),
            decisions: self.decisions.iter().map(|d| d.map(|x| x.value)).collect(),
            correct,
        }
    }
}

struct Slot {
    /// The live automaton; `None` once it finished or crashed.
    body: Option<Box<dyn Automaton>>,
    spawned: bool,
}

/// The deterministic shared-memory simulator.
///
/// # Examples
///
/// ```
/// use st_core::{Universe, ProcessId, ScheduleCursor, Schedule};
/// use st_sim::{Automaton, Reg, RunConfig, Sim, Status, StepAccess};
///
/// /// Reads the token, then writes it back incremented and decides.
/// struct Bump { token: Reg<u64>, read: Option<u64> }
///
/// impl Automaton for Bump {
///     fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
///         match self.read {
///             None => {
///                 self.read = Some(mem.read_word(self.token));
///                 Status::Running
///             }
///             Some(v) => {
///                 mem.write_word(self.token, v + 1);
///                 mem.decide(v + 1);
///                 Status::Done
///             }
///         }
///     }
/// }
///
/// let mut sim = Sim::new(Universe::new(2).unwrap());
/// let token = sim.alloc("token", 0u64);
/// for pid in sim.universe().processes() {
///     sim.spawn_automaton(pid, Bump { token, read: None }).unwrap();
/// }
/// let mut src = ScheduleCursor::new(Schedule::from_indices([0, 0, 1, 1]));
/// sim.run(&mut src, RunConfig::steps(10)).unwrap();
/// let report = sim.report();
/// assert_eq!(report.decision_value(ProcessId::new(0)), Some(1));
/// assert_eq!(report.decision_value(ProcessId::new(1)), Some(2));
/// ```
pub struct Sim {
    shared: SimShared,
    slots: Vec<Slot>,
    universe: Universe,
    finished: Vec<bool>,
    steps: u64,
}

impl Sim {
    /// Creates a simulator for `universe`.
    pub fn new(universe: Universe) -> Self {
        let n = universe.n();
        Sim {
            shared: SimShared {
                memory: RefCell::new(Memory::new()),
                trace: RefCell::new(TraceInner::new(n)),
                decided: Cell::new(0),
                decided_count: Cell::new(0),
                op_counts: (0..n).map(|_| Cell::new(0)).collect(),
            },
            slots: (0..n)
                .map(|_| Slot {
                    body: None,
                    spawned: false,
                })
                .collect(),
            universe,
            finished: vec![false; n],
            steps: 0,
        }
    }

    /// The simulated universe.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// Allocates a multi-writer register.
    pub fn alloc<T: RegValue>(&mut self, name: impl Into<String>, init: T) -> Reg<T> {
        self.shared
            .memory
            .borrow_mut()
            .alloc(name, WriteDiscipline::MultiWriter, init)
    }

    /// Allocates a single-writer register owned by `owner`.
    pub fn alloc_sw<T: RegValue>(
        &mut self,
        name: impl Into<String>,
        owner: ProcessId,
        init: T,
    ) -> Reg<T> {
        self.shared
            .memory
            .borrow_mut()
            .alloc(name, WriteDiscipline::SingleWriter(owner), init)
    }

    /// Allocates a block of `count` consecutive registers — see
    /// [`Memory::alloc_block`]: one initial value, a per-index write
    /// discipline, and a per-index name recipe that is stored, not run.
    /// Returns the handle of the first register; the `i`-th is
    /// [`Reg::at`]`(i)`. This is how the detectors allocate their counter
    /// matrices without formatting `|Π^k_n|·n` names per run.
    pub fn alloc_block<T: RegValue>(
        &mut self,
        count: usize,
        init: T,
        discipline: impl Fn(usize) -> WriteDiscipline + 'static,
        name: impl Fn(usize) -> String + 'static,
    ) -> Reg<T> {
        self.shared
            .memory
            .borrow_mut()
            .alloc_block(count, init, discipline, name)
    }

    /// Allocates `count` multi-writer registers named `name[0..count]`.
    pub fn alloc_array<T: RegValue>(&mut self, name: &str, count: usize, init: T) -> Vec<Reg<T>> {
        let name = name.to_owned();
        let base = self.alloc_block(
            count,
            init,
            |_| WriteDiscipline::MultiWriter,
            move |i| format!("{name}[{i}]"),
        );
        (0..count).map(|i| base.at(i)).collect()
    }

    /// Allocates one single-writer register per process, `name[p]` owned by
    /// `p` — the layout of `Heartbeat[p]` in Figure 2.
    pub fn alloc_per_process<T: RegValue>(&mut self, name: &str, init: T) -> Vec<Reg<T>> {
        let name = name.to_owned();
        let n = self.universe.n();
        let base = self.alloc_block(
            n,
            init,
            |i| WriteDiscipline::SingleWriter(ProcessId::new(i)),
            move |i| format!("{name}[{i}]"),
        );
        (0..n).map(|i| base.at(i)).collect()
    }

    /// Spawns the automaton of `pid` (see [`Automaton`]): the one way to
    /// fill a slot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AlreadySpawned`] if `pid` was spawned before.
    pub fn spawn_automaton<A: Automaton + 'static>(
        &mut self,
        pid: ProcessId,
        automaton: A,
    ) -> Result<(), SimError> {
        if self.slots[pid.index()].spawned {
            return Err(SimError::AlreadySpawned { process: pid });
        }
        let slot = &mut self.slots[pid.index()];
        slot.body = Some(Box::new(automaton));
        slot.spawned = true;
        Ok(())
    }

    /// Executes one step by `p`: the kernel gives its machine (if any) a
    /// scoped direct view of the arena for this one step.
    ///
    /// Steps of processes without a live automaton are no-ops (the halted
    /// automaton self-loops), but still count — they are real steps of the
    /// schedule.
    pub fn step_with(&mut self, p: ProcessId) -> StepOutcome {
        assert!(self.universe.contains(p), "{p} outside {}", self.universe);
        let (mut kernel, slots) = self.kernel();
        kernel.step(p, slots)
    }

    /// The scalar step kernel over this simulation's state, plus the slots
    /// it may dispatch into (split so both can be borrowed at once).
    fn kernel(&mut self) -> (StepKernel<'_>, &mut [Slot]) {
        let kernel = StepKernel {
            shared: &self.shared,
            memory: self.shared.memory.borrow_mut(),
            ops: vec![0; self.finished.len()],
            finished: &mut self.finished,
            steps: self.steps,
            steps_out: &mut self.steps,
        };
        (kernel, &mut self.slots)
    }

    /// Drives the simulation from `src` under `cfg`. Can be called again to
    /// continue the same simulation with a different source or budget.
    ///
    /// The run goes through the step kernel, which holds the register-arena
    /// borrow for the **whole call** instead of re-entering the `RefCell`
    /// on every step: one direct `step` dispatch per scheduled step.
    ///
    /// Pulled is executed: the stop rule is checked before each pull and
    /// the budget caps the pulls, so the steps taken from `src` are exactly
    /// the steps executed — as for every drive (`tests/pulled_is_executed.rs`;
    /// a replay drive executes its schedule's first `steps` entries).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] if `src` names a process
    /// outside the simulated universe. Steps produced before the offending
    /// one have executed normally; the simulation remains usable.
    pub fn run<S: StepSource>(
        &mut self,
        src: &mut S,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        let (mut kernel, slots) = self.kernel();
        kernel.run(slots, budgeted(src, cfg), cfg)
    }

    /// Drives the simulation for `budget` steps on a schedule chosen **from
    /// the register contents**: before every step `choose` is shown the
    /// arena and names the process that takes it. This is the drive of a
    /// state-dependent scheduler — `st-agreement`'s adaptive adversary,
    /// which must see every Paxos record to pick its victims — and, like
    /// [`run`](Self::run), it goes through the step kernel: the arena
    /// borrow and the op counts are held for the whole call, and `choose`
    /// reads the very arena the machines step on, paying per step only for
    /// what it looks at.
    ///
    /// What `choose` may assume: [`Memory::version`] counts completed
    /// writes and nothing else, so whatever it derived from register
    /// contents holds until the version moves (reads outnumber writes
    /// ~n·|Π^k_n| to 1 in the paper's stack); and nothing is allocated
    /// while the kernel holds the arena, so handles and the register count
    /// are fixed for the call.
    ///
    /// Every choice is executed, and booked exactly as
    /// [`step_with`](Self::step_with) books a step. Can be called again to
    /// continue the same simulation, as [`run`](Self::run) can.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] if `choose` names a
    /// process outside the simulated universe — the steps chosen before it
    /// have executed normally and the simulation remains usable.
    pub fn run_adaptive<F: FnMut(&Memory) -> ProcessId>(
        &mut self,
        budget: u64,
        mut choose: F,
    ) -> Result<(), SimError> {
        let n = self.universe.n();
        let (mut kernel, slots) = self.kernel();
        for _ in 0..budget {
            let p = choose(&kernel.memory);
            check_in_universe(p, n)?;
            kernel.step(p, slots);
        }
        Ok(())
    }

    /// Drives a homogeneous fleet of automata — `automata[i]` is the
    /// machine of process `i` — with **static dispatch**: `A` is a concrete
    /// type, so the automaton's `step` inlines into the executor loop and
    /// the per-step cost collapses to the cursor pull, the step bump, and
    /// the inlined body. This is the fastest execution mode of the
    /// simulator (a slot is a `Box<dyn Automaton>`: every step is a virtual
    /// call).
    ///
    /// The fleet is caller-owned: inspect the machines after (between) runs
    /// for their local state. Steps of processes whose machine has
    /// completed ([`Status::Done`]) are no-ops, as for finished slots;
    /// decisions, probes, and accounting flow into the same trace as the
    /// slot-based modes. Crashes are expressed by the schedule (stop
    /// scheduling the process), as in the model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] if `src` names a process
    /// outside the simulated universe (steps before the offending one have
    /// executed normally), and [`SimError::FleetDriveOnSpawnedSim`] —
    /// before executing anything — if any process was spawned into a slot
    /// (the two ownership modes do not mix within one `Sim`).
    ///
    /// # Panics
    ///
    /// Panics if `automata.len() != n`.
    pub fn run_automata<A: Automaton, S: StepSource>(
        &mut self,
        automata: &mut [A],
        src: &mut S,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        self.check_fleet_drive("run_automata", automata.len())?;
        self.kernel().0.run(automata, budgeted(src, cfg), cfg)
    }

    /// [`run_automata`](Self::run_automata) over a pre-materialized
    /// [`Schedule`], equivalent to driving a fresh
    /// [`ScheduleCursor`](st_core::ScheduleCursor) over it — but the fleet
    /// loop iterates the schedule's step slice directly, fusing the cursor
    /// pull and the budget check into the loop condition. This is the
    /// highest-throughput scalar drive the simulator has; the
    /// step-throughput bench runs the Figure 2 workload through it.
    ///
    /// Returns [`RunStatus::SourceEnded`] if the schedule ran out before
    /// `cfg.max_steps`, [`RunStatus::Stopped`]/[`RunStatus::MaxSteps`]
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] if the replayed prefix
    /// names a process outside the universe. The schedule is validated
    /// **before** any step executes (it is finite and materialized), so an
    /// `Err` leaves the simulation untouched.
    /// [`SimError::FleetDriveOnSpawnedSim`] as for
    /// [`run_automata`](Self::run_automata).
    ///
    /// # Panics
    ///
    /// As for [`run_automata`](Self::run_automata).
    pub fn run_automata_replay<A: Automaton>(
        &mut self,
        automata: &mut [A],
        schedule: &Schedule,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        let prefix = self.replay_prefix("run_automata_replay", automata.len(), schedule, cfg)?;
        self.replay_scalar(automata, prefix, cfg)
    }

    /// Shared prologue of the replay drives: the fleet preconditions, then
    /// the schedule prefix the budget admits, validated against the
    /// universe once — before anything executes.
    fn replay_prefix<'s>(
        &self,
        drive: &'static str,
        fleet_len: usize,
        schedule: &'s Schedule,
        cfg: RunConfig,
    ) -> Result<&'s [ProcessId], SimError> {
        self.check_fleet_drive(drive, fleet_len)?;
        let prefix = &schedule.as_slice()[..schedule.len().min(cfg.budget())];
        let n = self.universe.n();
        prefix.iter().try_for_each(|&p| check_in_universe(p, n))?;
        Ok(prefix)
    }

    /// The plain replay of a validated prefix: the kernel loop straight off
    /// the borrowed step slice.
    fn replay_scalar<A: Automaton>(
        &mut self,
        automata: &mut [A],
        prefix: &[ProcessId],
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        let (mut kernel, _) = self.kernel();
        kernel.run(automata, prefix.iter().copied(), cfg)
    }

    /// [`run_automata_replay`](Self::run_automata_replay) batched **per
    /// phase** over struct-of-arrays fleet state: the second replay drive,
    /// for [`PhaseBatch`] automata.
    ///
    /// Wherever the schedule repeats one permutation of the whole fleet
    /// for at least two rounds (round-robin and every rotation of it), the
    /// drive takes a **round window**: as many whole rounds as keep
    /// repeating and fit inside every live machine's read run, each
    /// machine's share one strided allotment (its offset in the round,
    /// stride n), whatever `slice_len` is. A window shorter than two rounds
    /// (a phase turnover) runs one round scalar. The rest of the schedule
    /// is processed in contiguous slices of `slice_len` steps. A slice that
    /// schedules a single process (the common case under dwell-shaped
    /// generators like `Bursty`) is one contiguous step run; otherwise the
    /// drive buckets the steps per process. Every batch checks *purity*:
    /// each scheduled machine must report (via [`PhaseBatch::read_run`])
    /// that its whole allotment consists of value-independent register
    /// reads. A pure batch touches no register, so its reads commute — the
    /// drive executes each machine's allotment in a single
    /// [`PhaseBatch::step_reads`] call, machines grouped by
    /// [`PhaseBatch::phase_class`] so each phase's tight scan loop runs
    /// back to back across the fleet, and then re-sorts the batch's probe
    /// events into global step order. A slice that is not pure (it contains
    /// a write, a phase turnover the machine cannot bound, or a completed
    /// machine's no-op allotment mixed with too-short runs) is executed
    /// scalar, in original order — exactly the plain replay.
    ///
    /// Observational identity to
    /// [`run_automata_replay`](Self::run_automata_replay) on the same
    /// schedule — probes (keys, values, step indices), decisions, op
    /// counts, per-register access statistics, final register contents — is
    /// a contract, enforced by differential tests on every schedule family.
    ///
    /// When the drive wins: large fleets (n ≥ 64) of scan-heavy machines,
    /// where allotments are long read runs and the batch loop
    /// amortizes the per-step dispatch into a
    /// [`read_word_span`](crate::Memory::read_word_span). At small n a
    /// slice rarely stays inside one phase's read run, so batching would
    /// degenerate to the scalar fallback and merely pay the bucketing
    /// overhead — this entry therefore **delegates** universes below
    /// [`SOA_DELEGATE_BELOW_N`] to the plain replay outright (identical
    /// semantics, no batching tax); see the drive decision table in the
    /// crate docs. Use
    /// [`run_automata_replay_soa_batched`](Self::run_automata_replay_soa_batched)
    /// to force batching at any n (differential tests do).
    ///
    /// Batching needs [`StopWhen::Never`]; any other stop condition runs
    /// the plain replay (whose semantics are identical) over the same
    /// validated prefix.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] (before executing
    /// anything) if the replayed prefix names a process outside the
    /// universe; [`SimError::FleetDriveOnSpawnedSim`] as for
    /// [`run_automata`](Self::run_automata).
    ///
    /// # Panics
    ///
    /// Panics if `automata.len() != n`, or where [`check_slice_len`]
    /// refuses `slice_len`.
    pub fn run_automata_replay_soa<A: PhaseBatch>(
        &mut self,
        automata: &mut [A],
        schedule: &Schedule,
        slice_len: usize,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        check_slice_len(slice_len).unwrap_or_else(|e| panic!("{e}"));
        let drive = "run_automata_replay_soa";
        let prefix = self.replay_prefix(drive, automata.len(), schedule, cfg)?;
        if self.universe.n() < SOA_DELEGATE_BELOW_N {
            return self.replay_scalar(automata, prefix, cfg);
        }
        self.replay_batched(automata, prefix, slice_len, cfg)
    }

    /// [`run_automata_replay_soa`](Self::run_automata_replay_soa) without
    /// the small-n delegation: always buckets and batches, whatever the
    /// universe size. Same contract, same errors, same panics.
    ///
    /// This is the raw batching engine. Prefer the delegating entry for
    /// real workloads; this one exists so differential suites can pin the
    /// batching machinery itself (purity detection, probe re-sorting,
    /// uniform slices, round windows) on small universes where failures
    /// are easy to shrink.
    pub fn run_automata_replay_soa_batched<A: PhaseBatch>(
        &mut self,
        automata: &mut [A],
        schedule: &Schedule,
        slice_len: usize,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        check_slice_len(slice_len).unwrap_or_else(|e| panic!("{e}"));
        let drive = "run_automata_replay_soa_batched";
        let prefix = self.replay_prefix(drive, automata.len(), schedule, cfg)?;
        self.replay_batched(automata, prefix, slice_len, cfg)
    }

    /// The batching engine over a validated prefix (see
    /// [`run_automata_replay_soa`](Self::run_automata_replay_soa)).
    fn replay_batched<A: PhaseBatch>(
        &mut self,
        automata: &mut [A],
        prefix: &[ProcessId],
        slice_len: usize,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        if !matches!(cfg.stop, StopWhen::Never) {
            return self.replay_scalar(automata, prefix, cfg);
        }
        let n = self.universe.n();
        let (mut kernel, _) = self.kernel();
        let shared = kernel.shared;
        let first_step = kernel.steps;
        // Reused buffers: per-process step-index allotments and the
        // processes a bucketed slice touches (first-appearance order), a
        // membership scratchpad for the round check, and the phase-sorted
        // execution order of a round window.
        let mut allotments: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut touched: Vec<usize> = Vec::with_capacity(slice_len.min(n));
        let mut seen: Vec<bool> = vec![false; n];
        let mut order: Vec<(u8, usize, usize)> = Vec::with_capacity(n);
        let mut rest = prefix;
        while !rest.is_empty() {
            // Each turn takes the next `span` of steps and either batches
            // it or leaves it to the scalar loop below.
            let (span, batched) = if rest.len() >= 2 * n
                && rest[0] != rest[1]
                && rest[n] == rest[0]
                && rest[..n] == rest[n..2 * n]
                && is_permutation(&rest[..n], &mut seen)
            {
                // Round window: the next two rounds repeat one permutation
                // of the whole fleet (round-robin and every rotation of it;
                // the O(1) rejects come first, so dwells pay nothing here).
                // The window is every further round that repeats it, up to
                // the shortest read run of a live machine, whatever the
                // slice length: each machine's allotment is an arithmetic
                // progression (its offset in the round, stride n).
                let round = &rest[..n];
                let cap = (0..n)
                    .filter(|&idx| !kernel.finished[idx])
                    .map(|idx| automata[idx].read_run())
                    .fold(rest.len() / n, usize::min);
                if cap < 2 {
                    // A phase turnover: one round scalar, then look again.
                    (round, false)
                } else {
                    let more = rest[2 * n..cap * n].chunks_exact(n);
                    let rounds = 2 + more.take_while(|&next| next == round).count();
                    order.clear();
                    for (off, &p) in round.iter().enumerate() {
                        let idx = p.index();
                        if !kernel.finished[idx] {
                            order.push((automata[idx].phase_class(), idx, off));
                        }
                    }
                    order.sort_unstable();
                    let probe_mark = shared.trace.borrow().probes.len();
                    for &(_, idx, off) in &order {
                        let strided = Allotment::Strided {
                            start: kernel.steps + off as u64,
                            stride: n as u64,
                            len: rounds,
                        };
                        kernel.step_reads(idx, &mut automata[idx], strided);
                    }
                    restore_probe_order(shared, probe_mark);
                    (&rest[..rounds * n], true)
                }
            } else {
                let slice = &rest[..slice_len.min(rest.len())];
                let first = slice[0];
                if slice.iter().all(|&p| p == first) {
                    // Uniform slice: one process only (every dwell-shaped
                    // schedule — `Bursty`, long crash shadows — produces
                    // almost nothing else) is one contiguous allotment, no
                    // bucketing, and its probes are already in step order.
                    let idx = first.index();
                    let pure = kernel.finished[idx] || slice.len() <= automata[idx].read_run();
                    if pure && !kernel.finished[idx] {
                        let (start, len) = (kernel.steps, slice.len());
                        kernel.step_reads(idx, &mut automata[idx], Allotment::Run { start, len });
                    }
                    (slice, pure)
                } else {
                    for (off, &p) in slice.iter().enumerate() {
                        let idx = p.index();
                        if allotments[idx].is_empty() {
                            touched.push(idx);
                        }
                        allotments[idx].push(kernel.steps + off as u64);
                    }
                    let pure = touched.iter().all(|&idx| {
                        kernel.finished[idx] || allotments[idx].len() <= automata[idx].read_run()
                    });
                    if pure {
                        // Group the batch calls by phase: machines in the
                        // same control phase run the same scan loop back to
                        // back.
                        touched.sort_unstable_by_key(|&idx| (automata[idx].phase_class(), idx));
                        let probe_mark = shared.trace.borrow().probes.len();
                        for &idx in &touched {
                            if !kernel.finished[idx] {
                                let steps = Allotment::List(&allotments[idx]);
                                kernel.step_reads(idx, &mut automata[idx], steps);
                            }
                        }
                        restore_probe_order(shared, probe_mark);
                    }
                    for &idx in &touched {
                        allotments[idx].clear();
                    }
                    touched.clear();
                    (slice, pure)
                }
            };
            if batched {
                kernel.steps += span.len() as u64;
            } else {
                for &p in span {
                    kernel.step(p, automata);
                }
            }
            rest = &rest[span.len()..];
        }
        Ok(kernel.exhausted(first_step, cfg))
    }

    /// Preconditions of every fleet drive: one caller-owned automaton per
    /// process (asserted), and a `Sim` with no spawned slots (typed).
    fn check_fleet_drive(&self, drive: &'static str, fleet_len: usize) -> Result<(), SimError> {
        assert_eq!(fleet_len, self.universe.n(), "one automaton per process");
        match self.slots.iter().position(|s| s.spawned) {
            None => Ok(()),
            Some(i) => Err(SimError::FleetDriveOnSpawnedSim {
                drive,
                process: ProcessId::new(i),
            }),
        }
    }

    /// The set of processes that have decided so far (O(1) snapshot of the
    /// cached bitmask).
    pub fn decided_set(&self) -> ProcSet {
        ProcSet::from_bits(self.shared.decided.get())
    }

    /// Steps executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Number of probe events published so far.
    ///
    /// O(1), no trace materialization: pollers that only need to detect
    /// *new activity* (the Figure 2 winnerset probe publishes only on
    /// change, so a flat count means quiescence) use this instead of
    /// cloning a [`RunReport`] per poll interval.
    pub fn probe_count(&self) -> usize {
        self.shared.trace.borrow().probes.len()
    }

    /// Per-process decisions so far (indexed by process index).
    ///
    /// Copies only the `n`-element decision array — not the probe log a
    /// full [`Sim::report`] clones.
    pub fn decisions(&self) -> Vec<Option<Decision>> {
        self.shared.trace.borrow().decisions.clone()
    }

    /// Completed register operations of `p` so far (O(1)).
    pub fn op_count(&self, p: ProcessId) -> u64 {
        self.shared.op_counts[p.index()].get()
    }

    /// Non-step observation of a register (tests and instrumentation).
    ///
    /// # Panics
    ///
    /// Panics on foreign handles or type confusion; use
    /// [`try_peek`](Self::try_peek) for the non-panicking form.
    pub fn peek<T: RegValue>(&self, reg: Reg<T>) -> T {
        self.try_peek(reg)
            .unwrap_or_else(|e| panic!("peek failed: {e}"))
    }

    /// Non-step observation of a register, surfacing foreign handles and
    /// type confusion as typed errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRegister`] for handles outside this
    /// arena and [`SimError::TypeMismatch`] when `T` is not the register's
    /// allocated type.
    pub fn try_peek<T: RegValue>(&self, reg: Reg<T>) -> Result<T, SimError> {
        self.shared.memory.borrow().peek(reg)
    }

    /// [`peek`](Self::peek) of the word register allocated `offset` slots
    /// after `base` — the instrumentation twin of
    /// [`StepAccess::read_word_array`](crate::StepAccess::read_word_array)
    /// for protocols that index contiguous register arrays by offset.
    ///
    /// # Panics
    ///
    /// Panics if the slot falls outside the arena or is not a `u64`
    /// register.
    pub fn peek_word_array(&self, base: Reg<u64>, offset: usize) -> u64 {
        let reg: Reg<u64> = Reg::new((base.index() + offset) as u32);
        self.peek(reg)
    }

    /// Crashes `p`: its automaton is dropped and all its future steps become
    /// no-ops. (Schedule generators usually *stop scheduling* crashed
    /// processes instead, which is the model's notion of a crash; explicit
    /// crashing is for fault-injection tests.)
    pub fn crash(&mut self, p: ProcessId) {
        self.slots[p.index()].body = None;
    }

    /// Whether `p`'s automaton has completed.
    pub fn is_finished(&self, p: ProcessId) -> bool {
        self.finished[p.index()]
    }

    /// Snapshot of the current trace: decisions, completion flags, probes
    /// and per-process operation counts. Cost is O(n + probes) and
    /// independent of the number of registers — per-register statistics are
    /// a separate, on-demand query, [`register_stats`](Self::register_stats).
    pub fn report(&self) -> RunReport {
        let trace = self.shared.trace.borrow();
        RunReport {
            steps: self.steps,
            decisions: trace.decisions.clone(),
            finished: self.finished.clone(),
            probes: ProbeLog::new(trace.probes.clone()),
            op_counts: self.shared.op_counts.iter().map(Cell::get).collect(),
        }
    }

    /// Per-register access statistics (name, completed reads and writes),
    /// in allocation order. Computed when asked: every register's name is
    /// formatted from its block's recipe here, so this costs one `String`
    /// per register — which is why it is not part of
    /// [`report`](Self::report). Differential tests compare it across
    /// drives, and to the transcription fixture; no production path calls
    /// it.
    pub fn register_stats(&self) -> Vec<RegisterStats> {
        self.shared.memory.borrow().stats()
    }
}

/// Dispatch target of the step kernel: the simulation's own slots (one
/// virtual call per step) or a caller-owned typed fleet (the step body
/// inlines into the loop).
trait Machines {
    type Machine: Automaton + ?Sized;

    /// The machine of in-universe process `idx`, if it has one.
    fn machine(&mut self, idx: usize) -> Option<&mut Self::Machine>;
}

impl Machines for [Slot] {
    type Machine = dyn Automaton;

    fn machine(&mut self, idx: usize) -> Option<&mut Self::Machine> {
        self[idx].body.as_deref_mut()
    }
}

impl<A: Automaton> Machines for [A] {
    type Machine = A;

    fn machine(&mut self, idx: usize) -> Option<&mut A> {
        // Indexing, not `get_mut`: `idx` is in the universe, and a cold
        // panic path costs the fleet loop nothing where a live `None` arm
        // cost 20 % at n = 12 (1 ns/step).
        Some(&mut self[idx])
    }
}

/// The model's one execution rule — step `S[i]` of schedule `S` lets one
/// process perform one register operation — spelled once: every
/// drive executes its scalar steps through
/// [`step`](Self::step), directly or via the loop in [`run`](Self::run).
///
/// The kernel holds the register-arena borrow for its whole lifetime (a run
/// pays the `RefCell` once, not per step) and owns the step counter and
/// the local op counts, which it writes back to the [`Sim`] on drop, i.e.
/// on every exit path.
struct StepKernel<'a> {
    shared: &'a SimShared,
    memory: RefMut<'a, Memory>,
    /// Per-process operations completed under this kernel: the step path
    /// touches no shared counter.
    ops: Vec<u64>,
    finished: &'a mut [bool],
    /// Global index of the next step to execute.
    steps: u64,
    steps_out: &'a mut u64,
}

impl Drop for StepKernel<'_> {
    fn drop(&mut self) {
        *self.steps_out = self.steps;
        for (count, &ops) in self.shared.op_counts.iter().zip(&self.ops) {
            if ops != 0 {
                count.set(count.get() + ops);
            }
        }
    }
}

impl StepKernel<'_> {
    /// Executes one scheduled step of in-universe process `p`. Without a
    /// live machine the step still counts, but does nothing.
    #[inline]
    fn step<T: Machines + ?Sized>(&mut self, p: ProcessId, target: &mut T) -> StepOutcome {
        let step = self.steps;
        self.steps += 1;
        let idx = p.index();
        if self.finished[idx] {
            return StepOutcome::Idle;
        }
        let Some(machine) = target.machine(idx) else {
            return StepOutcome::Idle;
        };
        let mut access = StepAccess::new(p, step, &mut self.memory, self.shared);
        let status = machine.step(&mut access);
        let ops = access.op_performed() as u64;
        self.settle(idx, ops, status)
    }

    /// Books what process `idx`'s machine just did — `ops` completed
    /// register operations, and its completion on [`Status::Done`], after
    /// which it is never stepped again. Shared with the batched
    /// `step_reads` calls.
    #[inline]
    fn settle(&mut self, idx: usize, ops: u64, status: Status) -> StepOutcome {
        self.ops[idx] += ops;
        match status {
            Status::Running => StepOutcome::Progressed,
            Status::Done => {
                self.finished[idx] = true;
                StepOutcome::Finished
            }
        }
    }

    /// Executes `machine`'s whole allotment of pure reads in one
    /// [`PhaseBatch::step_reads`] call (the caller advances the step
    /// counter past the slice).
    fn step_reads<A: PhaseBatch>(&mut self, idx: usize, machine: &mut A, steps: Allotment<'_>) {
        let pid = ProcessId::new(idx);
        let mut access = BatchAccess::new(pid, steps, &mut self.memory, self.shared);
        let status = machine.step_reads(&mut access);
        let ops = access.ops();
        self.settle(idx, ops, status);
    }

    /// Drives `target` from `src` — cut to the step budget by the caller —
    /// until the stop rule fires, `src` runs dry, or it names a process
    /// outside the universe (earlier steps have executed). Monomorphized on
    /// whether the stop rule must be looked at between steps: without one a
    /// step is the pull, the index bump and the dispatch.
    fn run<T: Machines + ?Sized>(
        &mut self,
        target: &mut T,
        src: impl Iterator<Item = ProcessId>,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        if matches!(cfg.stop, StopWhen::Never) {
            self.run_loop::<false, T>(target, src, cfg)
        } else {
            self.run_loop::<true, T>(target, src, cfg)
        }
    }

    fn run_loop<const CHECK_STOP: bool, T: Machines + ?Sized>(
        &mut self,
        target: &mut T,
        mut src: impl Iterator<Item = ProcessId>,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        let n = self.finished.len();
        let first_step = self.steps;
        loop {
            // Checked before the pull, so a stateful source is not advanced
            // past the stop point.
            if CHECK_STOP && stop_met(&cfg.stop, self.shared, self.finished) {
                return Ok(RunStatus::Stopped);
            }
            let Some(p) = src.next() else {
                return Ok(self.exhausted(first_step, cfg));
            };
            check_in_universe(p, n)?;
            self.step(p, target);
        }
    }

    /// How a run from `first_step` whose budget-cut source is exhausted
    /// ended: the source ran out first iff the budget was not used up.
    fn exhausted(&self, first_step: u64, cfg: RunConfig) -> RunStatus {
        if self.steps - first_step < cfg.max_steps {
            RunStatus::SourceEnded
        } else {
            RunStatus::MaxSteps
        }
    }
}

/// Whether `round` names every process of its `round.len()`-process
/// universe exactly once. `seen` is all `false` before and after.
fn is_permutation(round: &[ProcessId], seen: &mut [bool]) -> bool {
    let distinct = round
        .iter()
        .all(|p| !std::mem::replace(&mut seen[p.index()], true));
    round.iter().for_each(|p| seen[p.index()] = false);
    distinct
}

/// Batching grouped each machine's probes of a slice together: restores
/// the plain drive's publication order from `probe_mark` on. Stable by
/// step, so the probes of one step (one machine) keep their order.
fn restore_probe_order(shared: &SimShared, probe_mark: usize) {
    let mut trace = shared.trace.borrow_mut();
    let tail = &mut trace.probes[probe_mark..];
    if !tail.is_empty() {
        tail.sort_by_key(|e| e.step);
    }
}

/// A cursor-style source as the kernel loop's step iterator, cut to the
/// budget: it never pulls more than `cfg.max_steps` steps from `src`.
fn budgeted<S: StepSource>(src: &mut S, cfg: RunConfig) -> impl Iterator<Item = ProcessId> + '_ {
    std::iter::from_fn(|| src.next_step()).take(cfg.budget())
}

/// Typed bounds check of a scheduled process id against the universe —
/// the run/replay entry points surface a malformed schedule as
/// [`SimError::ScheduleOutOfUniverse`] instead of panicking.
#[inline]
fn check_in_universe(p: ProcessId, n: usize) -> Result<(), SimError> {
    if p.index() < n {
        Ok(())
    } else {
        Err(SimError::ScheduleOutOfUniverse { process: p, n })
    }
}

fn stop_met(stop: &StopWhen, shared: &SimShared, finished: &[bool]) -> bool {
    // Decision conditions read the cached decision state (maintained by
    // the decide paths) — O(1) per executed step, no trace borrow. The
    // bitmask covers processes below the ProcSet capacity, which is all
    // an `AllDecided` set can name; `AnyDecided` uses the count so it
    // sees deciders beyond index 63 in large universes.
    match stop {
        StopWhen::Never => false,
        StopWhen::AllDecided(set) => set.bits() & !shared.decided.get() == 0,
        StopWhen::AllFinished(set) => set.iter().all(|p| finished[p.index()]),
        StopWhen::AnyDecided => shared.decided_count.get() != 0,
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sim[n={}, steps={}, registers={}]",
            self.universe.n(),
            self.steps,
            self.shared.memory.borrow().len()
        )
    }
}
