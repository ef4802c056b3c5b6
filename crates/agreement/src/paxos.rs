//! Single-decree shared-memory Paxos over single-writer registers.
//!
//! The construction is Disk Paxos (Gafni–Lamport) specialized to one "disk"
//! whose blocks are SWMR registers: each process owns a record
//! `(mbal, bal, val)`; a proposer with ballot `b`
//!
//! 1. writes `mbal = b` to its record, reads all records, and **aborts** if
//!    any record carries `mbal > b`;
//! 2. adopts the value of the highest `bal` seen (or its own proposal if
//!    none), writes `(mbal = b, bal = b, val)`, re-reads all records, and
//!    aborts on any `mbal > b`;
//! 3. otherwise the value is **chosen**: it is published in a decision
//!    register.
//!
//! Safety (one chosen value per instance, always a proposed value) holds
//! under full asynchrony and any number of dueling proposers; termination
//! needs an eventually-unique proposer — exactly what the k-anti-Ω winnerset
//! provides to each instance in [`KSetAgreement`](crate::KSetAgreement).
//!
//! Ballots are made unique by the rule `b = round · n + pid + 1`, computed
//! with **checked arithmetic**: ballot uniqueness is the foundation of the
//! safety argument, so on `u64` exhaustion the proposer panics (documented
//! on [`Paxos::machine`]) instead of silently wrapping into a reused ballot.
//!
//! The proposer is [`PaxosMachine`]: the attempt loop as an explicit state
//! machine ([`st_sim::Automaton`]), one register operation per scheduled
//! step. It is held step for step to the loop transcription it was ported
//! from (the workspace's `tests/differential.rs`, on round-robin,
//! seeded-random, Figure 1 and crash schedules).

use st_core::Value;
use st_sim::{Automaton, Memory, Reg, RegValue, Sim, Status, StepAccess};

/// One process's Paxos record (a "disk block").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PaxosRecord {
    /// Highest ballot this process has entered (phase 1).
    pub mbal: u64,
    /// Ballot at which `val` was accepted (phase 2), 0 if none.
    pub bal: u64,
    /// Accepted value, `None` if never accepted.
    pub val: Option<Value>,
}

/// A record is four arena words, `mbal`, `bal` and `val`'s two, read or
/// written in one step.
impl RegValue for PaxosRecord {
    const WORDS: usize = 4;

    fn encode(self, words: &mut [u64]) {
        (self.mbal, (self.bal, self.val)).encode(words);
    }

    fn decode(words: &[u64]) -> Self {
        let (mbal, (bal, val)) = RegValue::decode(words);
        PaxosRecord { mbal, bal, val }
    }
}

/// A single-decree Paxos instance: `n` records plus a decision register.
/// Two handles and a count: cloning it into every proposer allocates nothing.
#[derive(Clone, Debug)]
pub struct Paxos {
    /// The record of process `q` is `records.at(q)`: the per-process block.
    records: Reg<PaxosRecord>,
    pub(crate) decision: Reg<Option<Value>>,
    n: u64,
}

impl Paxos {
    /// Allocates an instance in `sim`: one record per process (single
    /// writer) and one multi-writer decision register.
    pub fn alloc(sim: &mut Sim, name: &str) -> Self {
        let records = sim.alloc_per_process(&format!("{name}.rec"), PaxosRecord::default());
        let decision = sim.alloc(format!("{name}.decision"), None);
        Paxos {
            records,
            decision,
            n: sim.universe().n() as u64,
        }
    }

    /// The handle of process `q`'s record.
    fn record(&self, q: usize) -> Reg<PaxosRecord> {
        self.records.at(q)
    }

    /// Number of records (processes).
    fn len(&self) -> usize {
        self.n as usize
    }

    /// The ballot of `round` for proposer `me`: `b = round · n + me + 1`.
    ///
    /// # Panics
    ///
    /// Panics when the ballot space is exhausted (the product or sum
    /// overflows `u64`): wrapping would reuse a ballot number and break
    /// ballot uniqueness, the foundation of the safety argument. At one
    /// ballot per scheduled step this takes ~10⁴ simulated years on the
    /// reference host; exhaustion is a configuration bug, not a reachable
    /// protocol state.
    fn ballot(&self, round: u64, me: usize) -> u64 {
        round
            .checked_mul(self.n)
            .and_then(|x| x.checked_add(me as u64 + 1))
            .unwrap_or_else(|| {
                panic!(
                    "Paxos ballot space exhausted: round {round} · n {} + pid {me} + 1 \
                     overflows u64 (ballot uniqueness would break)",
                    self.n
                )
            })
    }

    /// Peeks the decision without a step (instrumentation).
    pub fn peek_decision(&self, sim: &Sim) -> Option<Value> {
        sim.peek(self.decision)
    }

    /// Peeks every record without steps (instrumentation; used by the
    /// adaptive adversary, which — like the model's adversary — sees all
    /// state).
    pub fn peek_records(&self, sim: &Sim) -> Vec<PaxosRecord> {
        (0..self.len()).map(|q| sim.peek(self.record(q))).collect()
    }

    /// The decision as `memory` holds it:
    /// [`peek_decision`](Self::peek_decision) for an observer that is
    /// handed the arena itself (the adaptive adversary, inside
    /// [`Sim::run_adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if `memory` is not the arena this instance was allocated in.
    pub fn decision_in(&self, memory: &Memory) -> Option<Value> {
        memory
            .peek(self.decision)
            .unwrap_or_else(|e| panic!("peek failed: {e}"))
    }

    /// Every record as `memory` holds it, in process order:
    /// [`peek_records`](Self::peek_records) without the `Vec`.
    ///
    /// # Panics
    ///
    /// The iterator panics if `memory` is not the arena this instance was
    /// allocated in.
    pub fn records_in<'m>(&self, memory: &'m Memory) -> impl Iterator<Item = PaxosRecord> + 'm {
        let records = self.records;
        (0..self.len()).map(move |q| {
            memory
                .peek(records.at(q))
                .unwrap_or_else(|e| panic!("peek failed: {e}"))
        })
    }

    /// The proposer as an explicit state machine ([`st_sim::Automaton`]):
    /// one complete ballot per attempt — decision check, phase 1, phase 2,
    /// publication, `2 + 2n` steps when uncontended — repeated until a
    /// decision is observed or chosen, then decide and halt. After a
    /// preemption the round has been advanced beyond every interfering
    /// ballot, so a lone repeating proposer always eventually decides.
    /// Drive one per process as a fleet
    /// ([`Sim::run_automata`](st_sim::Sim::run_automata)).
    ///
    /// # Panics
    ///
    /// Stepping the machine panics when the ballot space is exhausted
    /// (`round · n + pid + 1` overflows `u64`).
    pub fn machine(&self, proposal: Value) -> PaxosMachine {
        PaxosMachine {
            core: PaxosProposerCore::new(self.clone()),
            proposal,
        }
    }
}

/// Control state of a machine-ABI proposer: which operation of the current
/// attempt the next scheduled step performs. Every variant performs exactly
/// one register operation; the evaluation between phases (ballot choice,
/// value adoption, preemption checks) runs at the phase boundaries inside
/// the step that precedes it — exactly where the loop transcription ran
/// it.
#[derive(Clone, Copy, Debug)]
enum ProposerPhase {
    /// The attempt's fast path: read the decision register.
    CheckDecision,
    /// Phase 1 announce: write `(mbal = b)` to the own record.
    Phase1Write,
    /// Phase 1 scan: read record `q`, tracking the maximal `mbal` seen and
    /// the highest-ballot accepted value.
    Phase1Read {
        q: u32,
        max_seen: u64,
        best: Option<(u64, Value)>,
    },
    /// Phase 2 accept: write `(mbal = b, bal = b, val)` to the own record.
    Phase2Write { value: Value },
    /// Phase 2 scan: re-read record `q` looking for competition.
    Phase2Read { q: u32, max_seen: u64, value: Value },
    /// Chosen: publish the decision.
    Publish { value: Value },
}

/// What one machine step of a proposer core produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CoreStep {
    /// Mid-attempt: more steps to take.
    Busy,
    /// This step's operation observed or chose the decision.
    Decided(Value),
    /// A higher ballot interfered; the round has been advanced past it and
    /// the core has been reset for the next attempt.
    Preempted,
}

/// The single-attempt proposer engine shared by [`PaxosMachine`] and the
/// k-set agreement machine: one register operation per `step` call.
#[derive(Clone, Debug)]
pub(crate) struct PaxosProposerCore {
    paxos: Paxos,
    phase: ProposerPhase,
    /// The round of the next attempt's ballot.
    round: u64,
    /// The own record as last written (it is single-writer, so this cache
    /// is always exact).
    own: PaxosRecord,
    /// The current attempt's ballot.
    b: u64,
    /// Ballot attempts made (metrics).
    attempts: u64,
}

/// The next record index to scan after `q`, skipping the proposer's own.
fn next_other(q: usize, me: usize, n: usize) -> Option<u32> {
    let mut q = q + 1;
    if q == me {
        q += 1;
    }
    (q < n).then_some(q as u32)
}

/// The first record index to scan, skipping the proposer's own.
fn first_other(me: usize, n: usize) -> Option<u32> {
    let q = if me == 0 { 1 } else { 0 };
    (q < n).then_some(q as u32)
}

impl PaxosProposerCore {
    pub(crate) fn new(paxos: Paxos) -> Self {
        PaxosProposerCore {
            paxos,
            phase: ProposerPhase::CheckDecision,
            round: 0,
            own: PaxosRecord::default(),
            b: 0,
            attempts: 0,
        }
    }

    /// Ballot attempts made so far (metrics).
    pub(crate) fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Executes one step of the current attempt: exactly one register
    /// operation. After `Decided`/`Preempted` the core is reset, so the next
    /// `step` call begins a fresh attempt.
    pub(crate) fn step(&mut self, mem: &mut StepAccess<'_>, proposal: Value) -> CoreStep {
        let me = mem.pid().index();
        let n = self.paxos.len();
        match self.phase {
            ProposerPhase::CheckDecision => {
                self.attempts += 1;
                if let Some(v) = mem.read(self.paxos.decision) {
                    return CoreStep::Decided(v);
                }
                self.b = self.paxos.ballot(self.round, me);
                self.round += 1;
                self.own.mbal = self.b;
                self.phase = ProposerPhase::Phase1Write;
                CoreStep::Busy
            }
            ProposerPhase::Phase1Write => {
                mem.write(self.paxos.record(me), self.own);
                let best = self.own.val.map(|v| (self.own.bal, v));
                match first_other(me, n) {
                    Some(q) => {
                        self.phase = ProposerPhase::Phase1Read {
                            q,
                            max_seen: 0,
                            best,
                        };
                        CoreStep::Busy
                    }
                    // n == 1: nothing to scan, no competition possible.
                    None => {
                        self.enter_phase2(best, proposal);
                        CoreStep::Busy
                    }
                }
            }
            ProposerPhase::Phase1Read {
                q,
                mut max_seen,
                mut best,
            } => {
                let rec = mem.read(self.paxos.record(q as usize));
                max_seen = max_seen.max(rec.mbal);
                if let Some(v) = rec.val {
                    if best.is_none_or(|(bb, _)| rec.bal > bb) {
                        best = Some((rec.bal, v));
                    }
                }
                if let Some(next) = next_other(q as usize, me, n) {
                    self.phase = ProposerPhase::Phase1Read {
                        q: next,
                        max_seen,
                        best,
                    };
                    return CoreStep::Busy;
                }
                if max_seen > self.b {
                    return self.preempt(max_seen);
                }
                self.enter_phase2(best, proposal);
                CoreStep::Busy
            }
            ProposerPhase::Phase2Write { value } => {
                mem.write(self.paxos.record(me), self.own);
                match first_other(me, n) {
                    Some(q) => {
                        self.phase = ProposerPhase::Phase2Read {
                            q,
                            max_seen: 0,
                            value,
                        };
                        CoreStep::Busy
                    }
                    None => {
                        self.phase = ProposerPhase::Publish { value };
                        CoreStep::Busy
                    }
                }
            }
            ProposerPhase::Phase2Read {
                q,
                mut max_seen,
                value,
            } => {
                let rec = mem.read(self.paxos.record(q as usize));
                max_seen = max_seen.max(rec.mbal);
                if let Some(next) = next_other(q as usize, me, n) {
                    self.phase = ProposerPhase::Phase2Read {
                        q: next,
                        max_seen,
                        value,
                    };
                    return CoreStep::Busy;
                }
                if max_seen > self.b {
                    return self.preempt(max_seen);
                }
                self.phase = ProposerPhase::Publish { value };
                CoreStep::Busy
            }
            ProposerPhase::Publish { value } => {
                mem.write(self.paxos.decision, Some(value));
                self.phase = ProposerPhase::CheckDecision;
                CoreStep::Decided(value)
            }
        }
    }

    /// Grouping label of the current phase for the SoA drive (see
    /// [`Automaton::phase_class`]).
    pub(crate) fn phase_class(&self) -> u8 {
        match self.phase {
            ProposerPhase::CheckDecision => 0,
            ProposerPhase::Phase1Write => 1,
            ProposerPhase::Phase1Read { .. } => 2,
            ProposerPhase::Phase2Write { .. } => 3,
            ProposerPhase::Phase2Read { .. } => 4,
            ProposerPhase::Publish { .. } => 5,
        }
    }

    /// Guaranteed value-independent read steps ahead (see
    /// [`Automaton::read_run`]): the decision check is one read; a record
    /// scan is reads to its end (the bound `n − q − 1` under-counts by one
    /// when the proposer's own skipped record lies before `q` — a safe
    /// under-estimate, since the core does not know its process index until
    /// it is stepped). The scan-end branch (preempt or advance) may lead to
    /// a write, so the run stops there.
    pub(crate) fn read_run(&self) -> usize {
        let n = self.paxos.len();
        match self.phase {
            ProposerPhase::CheckDecision => 1,
            ProposerPhase::Phase1Read { q, .. } | ProposerPhase::Phase2Read { q, .. } => {
                (n - q as usize).saturating_sub(1).max(1)
            }
            ProposerPhase::Phase1Write
            | ProposerPhase::Phase2Write { .. }
            | ProposerPhase::Publish { .. } => 0,
        }
    }

    /// Phase-boundary bookkeeping between the phase 1 scan and the phase 2
    /// write: adopt the safest value and stage the accept record.
    fn enter_phase2(&mut self, best: Option<(u64, Value)>, proposal: Value) {
        let value = best.map(|(_, v)| v).unwrap_or(proposal);
        self.own = PaxosRecord {
            mbal: self.b,
            bal: self.b,
            val: Some(value),
        };
        self.phase = ProposerPhase::Phase2Write { value };
    }

    fn preempt(&mut self, max_seen: u64) -> CoreStep {
        // Past every round that could have produced a ballot ≤ `max_seen`.
        // Saturating: at the top of the round space the next `ballot` call
        // panics with the documented exhaustion message rather than a bare
        // arithmetic overflow here.
        self.round = self.round.max((max_seen / self.paxos.n).saturating_add(1));
        self.phase = ProposerPhase::CheckDecision;
        CoreStep::Preempted
    }
}

/// The standalone Paxos proposer on the state-machine ABI: attempts ballots
/// until a decision is observed or chosen, records it via
/// [`StepAccess::decide`], and halts. Construct with [`Paxos::machine`].
#[derive(Clone, Debug)]
pub struct PaxosMachine {
    core: PaxosProposerCore,
    proposal: Value,
}

impl PaxosMachine {
    /// Ballot attempts made so far (metrics).
    pub fn attempts(&self) -> u64 {
        self.core.attempts()
    }
}

impl Automaton for PaxosMachine {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        match self.core.step(mem, self.proposal) {
            CoreStep::Busy | CoreStep::Preempted => Status::Running,
            CoreStep::Decided(v) => {
                mem.decide(v);
                Status::Done
            }
        }
    }

    #[inline]
    fn phase_class(&self) -> u8 {
        self.core.phase_class()
    }

    #[inline]
    fn read_run(&self) -> usize {
        self.core.read_run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, ProcessId, Schedule, ScheduleCursor, Universe};
    use st_sim::{RunConfig, StopWhen};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn records_round_trip_through_four_words() {
        let mut seen = Vec::new();
        for word in [0, u64::MAX] {
            for val in [None, Some(0), Some(u64::MAX)] {
                let record = PaxosRecord {
                    mbal: word,
                    bal: !word,
                    val,
                };
                let mut words = [7; PaxosRecord::WORDS];
                record.encode(&mut words);
                assert_eq!(PaxosRecord::decode(&words), record);
                assert!(!seen.contains(&words), "{record:?} encodes like another");
                seen.push(words);
            }
        }
        let mut zero = [7; 4];
        PaxosRecord::default().encode(&mut zero);
        assert_eq!(zero, [0; 4], "a zero block holds default records");
    }

    /// n proposers with distinct values, interleaved by `schedule`; each
    /// repeatedly attempts until it decides.
    fn run_duel(n: usize, schedule: Vec<usize>, budget: u64) -> Vec<Option<Value>> {
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let paxos = Paxos::alloc(&mut sim, "px");
        let mut fleet: Vec<_> = u
            .processes()
            .map(|p| paxos.machine(100 + p.index() as Value))
            .collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(schedule));
        sim.run_automata(
            &mut fleet,
            &mut src,
            RunConfig::steps(budget).stop_when(StopWhen::AllDecided(ProcSet::full(u))),
        )
        .unwrap();
        let rep = sim.report();
        (0..n).map(|i| rep.decision_value(pid(i))).collect()
    }

    /// Runs `steps` steps of p0 over `fleet`.
    fn run_p0(sim: &mut Sim, fleet: &mut [PaxosMachine], steps: usize) {
        let mut src = ScheduleCursor::new(Schedule::from_indices(vec![0; steps]));
        sim.run_automata(fleet, &mut src, RunConfig::steps(steps as u64))
            .unwrap();
    }

    #[test]
    fn solo_proposer_decides_own_value() {
        let decisions = run_duel(3, vec![0; 60], 60);
        assert_eq!(decisions[0], Some(100));
    }

    #[test]
    fn sequential_proposers_agree() {
        // p0 completes, then p1, then p2: all must decide p0's value.
        let sched: Vec<usize> = std::iter::repeat_n(0, 40)
            .chain(std::iter::repeat_n(1, 40))
            .chain(std::iter::repeat_n(2, 40))
            .collect();
        let decisions = run_duel(3, sched, 200);
        assert_eq!(decisions, vec![Some(100), Some(100), Some(100)]);
    }

    #[test]
    fn agreement_under_many_interleavings() {
        for seed in 0..50u64 {
            let n = 3;
            let sched: Vec<usize> = (0..3000)
                .map(|i| (((seed + 1) * 2654435761).wrapping_mul(i + 1) % n as u64) as usize)
                .collect();
            let decisions = run_duel(n, sched, 3000);
            let decided: Vec<Value> = decisions.iter().flatten().copied().collect();
            if let Some(&first) = decided.first() {
                assert!(
                    decided.iter().all(|&v| v == first),
                    "seed {seed}: split decision {decisions:?}"
                );
                assert!((100..100 + n as Value).contains(&first), "invalid value");
            }
        }
    }

    #[test]
    fn preemption_advances_round() {
        // p1 runs a full ballot; p0 then attempts with a stale round and must
        // be preempted or adopt p1's value — never decide its own over a
        // chosen one.
        let sched: Vec<usize> = std::iter::repeat_n(1, 40)
            .chain(std::iter::repeat_n(0, 80))
            .collect();
        let decisions = run_duel(2, sched, 200);
        assert_eq!(decisions[1], Some(101));
        assert_eq!(decisions[0], Some(101), "p0 must adopt the chosen value");
    }

    #[test]
    fn crashed_leader_mid_ballot_is_recoverable() {
        // p0 writes phase 2 but crashes before publishing; p1 must adopt
        // p0's accepted value (it may be chosen).
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let paxos = Paxos::alloc(&mut sim, "px");
        let mut fleet = [paxos.machine(100), paxos.machine(101)];
        // p0: decision check (1) + phase1 write (1) + read other (1) +
        // phase2 write (1) = 4 steps, then crash (stop scheduling).
        let sched: Vec<usize> = [0usize, 0, 0, 0]
            .into_iter()
            .chain(std::iter::repeat_n(1, 60))
            .collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(sched));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(100))
            .unwrap();
        assert_eq!(
            sim.report().decision_value(pid(1)),
            Some(100),
            "p1 must adopt p0's phase-2 value"
        );
    }

    #[test]
    #[should_panic(expected = "ballot space exhausted")]
    fn ballot_overflow_panics_machine() {
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let paxos = Paxos::alloc(&mut sim, "px");
        let mut fleet = [paxos.machine(1), paxos.machine(2)];
        fleet[0].core.round = u64::MAX / 2 + 1;
        run_p0(&mut sim, &mut fleet, 1);
    }

    #[test]
    fn ballot_at_u64_boundary_is_exact() {
        // n = 2, me = 0, round = (u64::MAX − 1)/2 → b = u64::MAX exactly:
        // the checked rule admits the full ballot space, no early panic.
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let paxos = Paxos::alloc(&mut sim, "px");
        let mut fleet = [paxos.machine(1), paxos.machine(2)];
        fleet[0].core.round = (u64::MAX - 1) / 2;
        // The decision check, then the phase-1 announce.
        run_p0(&mut sim, &mut fleet, 2);
        assert_eq!(paxos.peek_records(&sim)[0].mbal, u64::MAX);
    }

    /// The proposer decides its own value when running solo, in one
    /// attempt, on the fleet drive too.
    #[test]
    fn machine_solo_proposer_decides_own_value() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let paxos = Paxos::alloc(&mut sim, "px");
        let mut fleet: Vec<PaxosMachine> =
            (0..3).map(|i| paxos.machine(100 + i as Value)).collect();
        let schedule = Schedule::from_indices(vec![0usize; 60]);
        sim.run_automata(
            &mut fleet,
            &mut ScheduleCursor::new(schedule),
            RunConfig::steps(60),
        )
        .unwrap();
        assert_eq!(sim.decisions()[0].map(|d| d.value), Some(100));
        assert_eq!(paxos.peek_decision(&sim), Some(100));
        assert_eq!(fleet[0].attempts(), 1);
    }

    #[test]
    fn validity_only_proposed_values() {
        for seed in 0..20u64 {
            let sched: Vec<usize> = (0..2000)
                .map(|i| ((seed * 7 + i * 13 + i / 5) % 4) as usize)
                .collect();
            let decisions = run_duel(4, sched, 2000);
            for d in decisions.iter().flatten() {
                assert!((100..104).contains(d));
            }
        }
    }
}
