//! The deterministic executor and run controller.
//!
//! A [`Sim`] owns the register arena and the trace; the process automata are
//! a fleet its caller owns. Driving the fleet with a [`StepSource`] executes
//! the schedule: each step grants exactly one register operation to the
//! scheduled process. The executor is single-threaded and fully
//! deterministic — the schedule is the only source of nondeterminism in a
//! run, which is precisely the model of the paper.

use st_core::{AgreementOutcome, ProcSet, ProcessId, Schedule, StepSource, Universe, Value};

use crate::automaton::{Automaton, Status, StepAccess};
use crate::error::SimError;
use crate::memory::Memory;
use crate::register::{Reg, RegValue, WriteDiscipline};
use crate::soa::{Allotment, BatchAccess};
use crate::trace::{Decision, ProbeEvent, ProbeLog, TraceInner};

/// Why a drive returned.
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

/// Universe-size threshold below which [`Sim::run_automata`] runs its
/// blocks scalar instead of batching.
///
/// Below this n, per-slice allotments are too short to stay inside one
/// phase's read run on realistic schedules: batching degenerates to the
/// scalar fallback and only pays the bucketing overhead. The crossover sits
/// well below 64 (SoA is ahead in the smallest recorded cells,
/// `sim.fleet.lean_conv.n64.*` in `BENCHMARK.json`); 32 keeps a safety
/// margin on schedules with long dwells, which batch profitably at any n
/// via the dwell window — a dwell of length ≥ n/2 still clears the
/// threshold's break-even on the workloads measured.
pub const SOA_DELEGATE_BELOW_N: usize = 32;

/// Steps [`Sim::run_automata`] pulls from its source at a time under
/// [`StopWhen::Never`] (256 KiB of schedule): long enough that the
/// per-block costs — a fill call, the engine's set-up — vanish against the
/// steps, short enough to stay in cache between the fill and the run.
const BLOCK: usize = 1 << 16;

/// Steps of a bucketed slice on [`Sim::run_automata`].
const SLICE_LEN: usize = 64;

/// The one precondition of the raw batched engine
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
/// needs it rebuilds it from its source (see [`Sim::run_automata`]).
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
/// let mut fleet: Vec<_> = sim
///     .universe()
///     .processes()
///     .map(|_| Bump { token, read: None })
///     .collect();
/// let mut src = ScheduleCursor::new(Schedule::from_indices([0, 0, 1, 1]));
/// sim.run_automata(&mut fleet, &mut src, RunConfig::steps(10)).unwrap();
/// let report = sim.report();
/// assert_eq!(report.decision_value(ProcessId::new(0)), Some(1));
/// assert_eq!(report.decision_value(ProcessId::new(1)), Some(2));
/// ```
///
/// A run's state is a plain value: a clone of the `Sim` (arena, trace,
/// counts) and of the fleet is a snapshot that runs on independently.
#[derive(Clone)]
pub struct Sim {
    universe: Universe,
    memory: Memory,
    trace: TraceInner,
    /// Per-process completed register operations.
    op_counts: Vec<u64>,
    finished: Vec<bool>,
    /// Global index of the next step to execute.
    steps: u64,
}

impl Sim {
    /// Creates a simulator for `universe`.
    pub fn new(universe: Universe) -> Self {
        let n = universe.n();
        Sim {
            universe,
            memory: Memory::new(),
            trace: TraceInner::new(n),
            op_counts: vec![0; n],
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
        self.memory.alloc(name, WriteDiscipline::MultiWriter, init)
    }

    /// Allocates a single-writer register owned by `owner`.
    pub fn alloc_sw<T: RegValue>(
        &mut self,
        name: impl Into<String>,
        owner: ProcessId,
        init: T,
    ) -> Reg<T> {
        self.memory
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
        self.memory.alloc_block(count, init, discipline, name)
    }

    /// Allocates one single-writer register per process, `name[p]` owned by
    /// `p` — the layout of `Heartbeat[p]` in Figure 2. Returns process 0's
    /// register; process `p`'s is [`Reg::at`]`(p)`.
    pub fn alloc_per_process<T: RegValue>(&mut self, name: &str, init: T) -> Reg<T> {
        let name = name.to_owned();
        self.alloc_block(
            self.universe.n(),
            init,
            |i| WriteDiscipline::SingleWriter(ProcessId::new(i)),
            move |i| format!("{name}[{i}]"),
        )
    }

    /// Drives a fleet of automata — `automata[i]` is the machine of process
    /// `i` — from `src` under `cfg`. Can be called again, with the same
    /// fleet, to continue the same simulation with a different source or
    /// budget.
    ///
    /// A homogeneous fleet (`&mut [A]` of a concrete type) is stepped with
    /// **static dispatch**: the automaton's `step` inlines into the executor
    /// loop and the per-step cost collapses to the cursor pull, the step
    /// bump, and the inlined body. A heterogeneous fleet is a
    /// `Vec<Box<dyn Automaton>>`, one virtual call per step.
    ///
    /// The fleet is caller-owned: inspect the machines after (between) runs
    /// for their local state. Steps of processes whose machine has
    /// completed ([`Status::Done`]) are no-ops (the halted automaton
    /// self-loops) but still count: they are real steps of the schedule.
    /// Crashes are expressed by the schedule (stop scheduling the process),
    /// as in the model.
    ///
    /// Under [`StopWhen::Never`] the drive pulls `src` a block at a time,
    /// one [`StepSource::fill`] per 64 Ki steps, and from
    /// [`SOA_DELEGATE_BELOW_N`] processes on runs each block on the batched
    /// engine ([`soa`](crate::soa)): a machine's run of value-independent
    /// reads executes as one [`Automaton::step_reads`] call, observationally
    /// identical to stepping it. Under any other stop rule it pulls step by
    /// step.
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
    /// one have executed normally; the simulation remains usable. Under
    /// [`StopWhen::Never`] the source may have advanced to the end of the
    /// offending step's block.
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
        self.check_fleet(automata.len());
        if !matches!(cfg.stop, StopWhen::Never) {
            let pulls = std::iter::from_fn(|| src.next_step()).take(cfg.budget());
            return self.drive(automata, pulls, cfg);
        }
        let (n, first_step) = (self.universe.n(), self.steps);
        let mut block = Schedule::with_capacity(BLOCK.min(cfg.budget()));
        let mut left = cfg.budget();
        while left > 0 {
            let want = left.min(BLOCK);
            block.clear();
            let got = src.fill(&mut block, want);
            let steps = block.as_slice();
            let bad = steps.iter().position(|p| p.index() >= n);
            let valid = &steps[..bad.unwrap_or(got)];
            if n < SOA_DELEGATE_BELOW_N {
                valid.iter().for_each(|&p| self.step(p, automata));
            } else {
                self.replay_batched(automata, valid, SLICE_LEN);
            }
            if let Some(at) = bad {
                return Err(SimError::ScheduleOutOfUniverse {
                    process: steps[at],
                    n,
                });
            }
            if got < want {
                break;
            }
            left -= want;
        }
        Ok(self.exhausted(first_step, cfg))
    }

    /// Drives `automata` for `budget` steps on a schedule chosen **from the
    /// register contents**: before every step `choose` is shown the arena
    /// and names the process that takes it. This is the drive of a
    /// state-dependent scheduler — `st-agreement`'s adaptive adversary,
    /// which must see every Paxos record to pick its victims — and, like
    /// [`run_automata`](Self::run_automata), it goes through the step
    /// kernel: `choose` reads the very arena the machines step on, paying
    /// per step only for what it looks at.
    ///
    /// What `choose` may assume: [`Memory::version`] counts completed
    /// writes and nothing else, so whatever it derived from register
    /// contents holds until the version moves (reads outnumber writes
    /// ~n·|Π^k_n| to 1 in the paper's stack); and nothing is allocated
    /// during the call, so handles and the register count are fixed.
    ///
    /// Every choice is executed, and booked exactly as a step of
    /// [`run_automata`](Self::run_automata) is. Can be called again to
    /// continue the same simulation, as every drive can.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] if `choose` names a
    /// process outside the simulated universe — the steps chosen before it
    /// have executed normally and the simulation remains usable.
    ///
    /// # Panics
    ///
    /// As for [`run_automata`](Self::run_automata).
    pub fn run_adaptive<A: Automaton, F: FnMut(&Memory) -> ProcessId>(
        &mut self,
        automata: &mut [A],
        budget: u64,
        mut choose: F,
    ) -> Result<(), SimError> {
        self.check_fleet(automata.len());
        let n = self.universe.n();
        for _ in 0..budget {
            let p = choose(&self.memory);
            check_in_universe(p, n)?;
            self.step(p, automata);
        }
        Ok(())
    }

    /// The scalar reference: [`run_automata`](Self::run_automata)'s steps,
    /// one `step` call each, over a pre-materialized [`Schedule`] — the
    /// fleet loop iterates the schedule's step slice directly. It is the
    /// oracle the batched engine is held to, and what the benchmark's
    /// scalar cells time.
    ///
    /// Returns [`RunStatus::SourceEnded`] if the schedule ran out before
    /// `cfg.max_steps`, [`RunStatus::Stopped`]/[`RunStatus::MaxSteps`]
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleOutOfUniverse`] if the replayed prefix
    /// names a process outside the universe, before any step executes: an
    /// `Err` leaves the simulation untouched.
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
        let prefix = self.replay_prefix(automata.len(), schedule, cfg)?;
        self.drive(automata, prefix.iter().copied(), cfg)
    }

    /// Shared prologue of the replay drives: the fleet precondition, then
    /// the schedule prefix the budget admits, validated against the
    /// universe once — before anything executes.
    fn replay_prefix<'s>(
        &self,
        fleet_len: usize,
        schedule: &'s Schedule,
        cfg: RunConfig,
    ) -> Result<&'s [ProcessId], SimError> {
        self.check_fleet(fleet_len);
        let prefix = &schedule.as_slice()[..schedule.len().min(cfg.budget())];
        let n = self.universe.n();
        prefix.iter().try_for_each(|&p| check_in_universe(p, n))?;
        Ok(prefix)
    }

    /// The batched engine of [`run_automata`](Self::run_automata) over a
    /// pre-materialized [`Schedule`], at any n, its bucketed slices
    /// `slice_len` steps long (see the [`soa`](crate::soa) module): what the
    /// differential tests and the benchmark hold against
    /// [`run_automata_replay`](Self::run_automata_replay). Observational
    /// identity to it — probes (keys, values, step indices), decisions, op
    /// counts, per-register access statistics, final register contents — is
    /// a contract. Batching needs [`StopWhen::Never`]; under any other stop
    /// condition this is the scalar replay.
    ///
    /// # Errors
    ///
    /// As for [`run_automata_replay`](Self::run_automata_replay).
    ///
    /// # Panics
    ///
    /// Panics if `automata.len() != n`, or where [`check_slice_len`]
    /// refuses `slice_len`.
    pub fn run_automata_replay_soa<A: Automaton>(
        &mut self,
        automata: &mut [A],
        schedule: &Schedule,
        slice_len: usize,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        check_slice_len(slice_len).unwrap_or_else(|e| panic!("{e}"));
        let prefix = self.replay_prefix(automata.len(), schedule, cfg)?;
        if !matches!(cfg.stop, StopWhen::Never) {
            return self.drive(automata, prefix.iter().copied(), cfg);
        }
        let first_step = self.steps;
        self.replay_batched(automata, prefix, slice_len);
        Ok(self.exhausted(first_step, cfg))
    }

    /// The batching engine over a validated stretch of schedule (see the
    /// [`soa`](crate::soa) module), with no stop rule.
    fn replay_batched<A: Automaton>(
        &mut self,
        automata: &mut [A],
        steps: &[ProcessId],
        slice_len: usize,
    ) {
        let n = self.universe.n();
        // Reused buffers: per-process step-index allotments and the
        // processes a bucketed slice touches (first-appearance order), a
        // membership scratchpad for the round check, and the phase-sorted
        // execution order of a round window.
        let mut allotments: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut touched: Vec<usize> = Vec::with_capacity(slice_len.min(n));
        let mut seen: Vec<bool> = vec![false; n];
        let mut order: Vec<(u8, usize, usize)> = Vec::with_capacity(n);
        let mut rest = steps;
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
                // the shortest read run of a live machine: each machine's
                // allotment is an arithmetic progression (its offset in the
                // round, stride n).
                let round = &rest[..n];
                let cap = (0..n)
                    .filter(|&idx| !self.finished[idx])
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
                        if !self.finished[idx] {
                            order.push((automata[idx].phase_class(), idx, off));
                        }
                    }
                    order.sort_unstable();
                    let probe_mark = self.trace.probes.len();
                    for &(_, idx, off) in &order {
                        let strided = Allotment::Strided {
                            start: self.steps + off as u64,
                            stride: n as u64,
                            len: rounds,
                        };
                        self.step_reads(idx, &mut automata[idx], strided);
                    }
                    restore_probe_order(&mut self.trace.probes[probe_mark..]);
                    (&rest[..rounds * n], true)
                }
            } else if rest.len() >= 2 && rest[0] == rest[1] {
                // Dwell window: one process's run of steps (every
                // dwell-shaped schedule — `Bursty`, long crash shadows —
                // produces almost nothing else), up to its read run: one
                // contiguous allotment, no bucketing, its probes already in
                // step order. A finished machine's whole dwell is no-ops; a
                // machine with no read run left takes one step scalar.
                let first = rest[0];
                let idx = first.index();
                let cap = if self.finished[idx] {
                    rest.len()
                } else {
                    automata[idx].read_run().min(rest.len())
                };
                let len = rest[..cap].iter().take_while(|&&p| p == first).count();
                if len == 0 {
                    (&rest[..1], false)
                } else {
                    if !self.finished[idx] {
                        let run = Allotment::Run {
                            start: self.steps,
                            len,
                        };
                        self.step_reads(idx, &mut automata[idx], run);
                    }
                    (&rest[..len], true)
                }
            } else {
                // Bucketed slice: mixed steps, cut where a dwell begins.
                let max = slice_len.min(rest.len());
                let len = rest[..max]
                    .windows(2)
                    .position(|w| w[0] == w[1])
                    .unwrap_or(max);
                let slice = &rest[..len];
                for (off, &p) in slice.iter().enumerate() {
                    let idx = p.index();
                    if allotments[idx].is_empty() {
                        touched.push(idx);
                    }
                    allotments[idx].push(self.steps + off as u64);
                }
                let pure = touched.iter().all(|&idx| {
                    self.finished[idx] || allotments[idx].len() <= automata[idx].read_run()
                });
                if pure {
                    // Group the batch calls by phase: machines in the same
                    // control phase run the same scan loop back to back.
                    touched.sort_unstable_by_key(|&idx| (automata[idx].phase_class(), idx));
                    let probe_mark = self.trace.probes.len();
                    for &idx in &touched {
                        if !self.finished[idx] {
                            let steps = Allotment::List(&allotments[idx]);
                            self.step_reads(idx, &mut automata[idx], steps);
                        }
                    }
                    restore_probe_order(&mut self.trace.probes[probe_mark..]);
                }
                for &idx in &touched {
                    allotments[idx].clear();
                }
                touched.clear();
                (slice, pure)
            };
            if batched {
                self.steps += span.len() as u64;
            } else {
                for &p in span {
                    self.step(p, automata);
                }
            }
            rest = &rest[span.len()..];
        }
    }

    /// The precondition of every drive: one caller-owned automaton per
    /// process.
    fn check_fleet(&self, fleet_len: usize) {
        assert_eq!(fleet_len, self.universe.n(), "one automaton per process");
    }

    /// The set of processes that have decided so far (O(1) snapshot of the
    /// cached bitmask).
    pub fn decided_set(&self) -> ProcSet {
        ProcSet::from_bits(self.trace.decided)
    }

    /// Steps executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Per-process decisions so far (indexed by process index).
    ///
    /// Copies only the `n`-element decision array — not the probe log a
    /// full [`Sim::report`] clones.
    pub fn decisions(&self) -> Vec<Option<Decision>> {
        self.trace.decisions.clone()
    }

    /// Completed register operations of `p` so far (O(1)).
    pub fn op_count(&self, p: ProcessId) -> u64 {
        self.op_counts[p.index()]
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
        self.memory.peek(reg)
    }

    /// Whether `p`'s automaton has completed.
    pub fn is_finished(&self, p: ProcessId) -> bool {
        self.finished[p.index()]
    }

    /// Snapshot of the current trace: decisions, completion flags, probes
    /// and per-process operation counts. Cost is O(n + probes) and
    /// independent of the number of registers — per-register statistics are
    /// a separate, on-demand query, [`Memory::stats`] through
    /// [`memory`](Self::memory).
    pub fn report(&self) -> RunReport {
        RunReport {
            steps: self.steps,
            decisions: self.trace.decisions.clone(),
            finished: self.finished.clone(),
            probes: ProbeLog::new(self.trace.probes.clone()),
            op_counts: self.op_counts.clone(),
        }
    }

    /// The register arena, read-only: its per-register
    /// [`stats`](Memory::stats) and [`name`](Memory::name)s are how tests
    /// observe what a run did to shared memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }
}

/// The step kernel. The model's one execution rule — step `S[i]` of
/// schedule `S` lets one process perform one register operation — spelled
/// once: every drive executes its scalar steps through
/// [`step`](Self::step), directly or via the loop in [`drive`](Self::drive).
impl Sim {
    /// Executes one scheduled step of in-universe process `p`. Once its
    /// machine has completed the step still counts, but does nothing.
    #[inline]
    fn step<A: Automaton>(&mut self, p: ProcessId, automata: &mut [A]) {
        let step = self.steps;
        self.steps += 1;
        let idx = p.index();
        if self.finished[idx] {
            return;
        }
        let mut access = StepAccess::new(p, step, &mut self.memory, &mut self.trace);
        let status = automata[idx].step(&mut access);
        let ops = access.op_performed() as u64;
        self.settle(idx, ops, status);
    }

    /// Books what process `idx`'s machine just did — `ops` completed
    /// register operations, and its completion on [`Status::Done`], after
    /// which it is never stepped again. Shared with the batched
    /// `step_reads` calls.
    #[inline]
    fn settle(&mut self, idx: usize, ops: u64, status: Status) {
        self.op_counts[idx] += ops;
        if status == Status::Done {
            self.finished[idx] = true;
        }
    }

    /// Executes `machine`'s whole allotment of pure reads in one
    /// [`Automaton::step_reads`] call (the caller advances the step
    /// counter past the slice).
    fn step_reads<A: Automaton>(&mut self, idx: usize, machine: &mut A, steps: Allotment<'_>) {
        let pid = ProcessId::new(idx);
        let mut access = BatchAccess::new(pid, steps, &mut self.memory, &mut self.trace);
        let status = machine.step_reads(&mut access);
        let ops = access.ops();
        self.settle(idx, ops, status);
    }

    /// Drives `automata` from `src` — cut to the step budget by the caller —
    /// until the stop rule fires, `src` runs dry, or it names a process
    /// outside the universe (earlier steps have executed). Monomorphized on
    /// whether the stop rule must be looked at between steps: without one a
    /// step is the pull, the index bump and the dispatch.
    fn drive<A: Automaton>(
        &mut self,
        automata: &mut [A],
        src: impl Iterator<Item = ProcessId>,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        if matches!(cfg.stop, StopWhen::Never) {
            self.drive_loop::<false, A>(automata, src, cfg)
        } else {
            self.drive_loop::<true, A>(automata, src, cfg)
        }
    }

    fn drive_loop<const CHECK_STOP: bool, A: Automaton>(
        &mut self,
        automata: &mut [A],
        mut src: impl Iterator<Item = ProcessId>,
        cfg: RunConfig,
    ) -> Result<RunStatus, SimError> {
        let n = self.universe.n();
        let first_step = self.steps;
        loop {
            // Checked before the pull, so a stateful source is not advanced
            // past the stop point.
            if CHECK_STOP && self.stop_met(&cfg.stop) {
                return Ok(RunStatus::Stopped);
            }
            let Some(p) = src.next() else {
                return Ok(self.exhausted(first_step, cfg));
            };
            check_in_universe(p, n)?;
            self.step(p, automata);
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

    fn stop_met(&self, stop: &StopWhen) -> bool {
        // Decision conditions read the trace's cached decision state — O(1)
        // per executed step. The bitmask covers processes below the ProcSet
        // capacity, which is all an `AllDecided` set can name; `AnyDecided`
        // uses the count so it sees deciders beyond index 63 in large
        // universes.
        match stop {
            StopWhen::Never => false,
            StopWhen::AllDecided(set) => set.bits() & !self.trace.decided == 0,
            StopWhen::AllFinished(set) => set.iter().all(|p| self.finished[p.index()]),
            StopWhen::AnyDecided => self.trace.decided_count != 0,
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
/// the plain drive's publication order in the batch's `tail` of the probe
/// log. Stable by step, so the probes of one step (one machine) keep their
/// order.
fn restore_probe_order(tail: &mut [ProbeEvent]) {
    if !tail.is_empty() {
        tail.sort_by_key(|e| e.step);
    }
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

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sim[n={}, steps={}, registers={}]",
            self.universe.n(),
            self.steps,
            self.memory.len()
        )
    }
}
