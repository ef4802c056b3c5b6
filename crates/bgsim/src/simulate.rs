//! The Borowsky–Gafni simulation driver.
//!
//! `s` simulators (the real processes of the host simulator) jointly execute
//! `n_sim` simulated [`StepMachine`]s over a simulated single-writer-cell
//! memory:
//!
//! - **cells** — `cells[u][s]` is simulator `s`'s copy of simulated process
//!   `u`'s cell, tagged with a version; a simulated read of `u` takes the
//!   maximum-version copy. Copies are written in the machine's deterministic
//!   order, so versions never regress per copy.
//! - **reads** go through one [`SafeAgreement`] object per `(u, read index)`
//!   so every simulator advances `u`'s automaton with the *same* outcome —
//!   the copies stay in lockstep.
//! - **scheduling** — each simulator round-robins over the simulated
//!   processes, skipping those whose current read is unresolved. A crashed
//!   simulator blocks at most the one object whose unsafe zone it was in,
//!   hence at most one simulated process per crashed simulator stalls
//!   (Property (i) of the Theorem 26 proof); the round-robin over the rest
//!   keeps every set of `crashes + 1` simulated processes timely
//!   (Property (ii)).
//! - **decisions** — each simulated decision is published in a shared
//!   register (idempotent: all simulators compute the same value), and every
//!   simulator adopts the first simulated decision it encounters — the
//!   adoption rule of the reduction.
//!
//! A simulator is a [`BgSimulator`]: the loop above as an explicit state
//! machine, one phase per register operation, with the safe-agreement
//! proposal and resolution as [`SafeAgreementCall`] phases.

use st_core::{Schedule, Value};
use st_sim::{Automaton, Reg, RunReport, Sim, Status, StepAccess};

use crate::machine::{SimOp, StepMachine};
use crate::safe_agreement::{CallStep, Resolution, SafeAgreement, SafeAgreementCall};

/// Probe key: one event per simulated step a simulator completes; the value
/// is the simulated process index. Reconstructing the timeline of one
/// simulator gives (its linearization of) the simulated schedule.
pub const SIM_STEP_PROBE: &str = "sim-step";

fn encode(v: Option<Value>) -> Value {
    match v {
        None => 0,
        Some(x) => x
            .checked_add(1)
            .expect("simulated values must be < u64::MAX"),
    }
}

fn decode(e: Value) -> Option<Value> {
    e.checked_sub(1)
}

/// One simulated cell copy: `(version, value)`.
type CellCopy = (u64, Option<Value>);

/// A BG simulation instance: shared registers plus the machine templates.
/// Clone into each simulator.
#[derive(Clone)]
pub struct BgSimulation<M> {
    machines: Vec<M>,
    /// `cells[u][s]`: simulator `s`'s copy of `u`'s cell.
    cells: Vec<Vec<Reg<CellCopy>>>,
    /// `agreements[u][r]`: safe agreement for `u`'s `r`-th read.
    agreements: Vec<Vec<SafeAgreement>>,
    /// Simulated decision of `u`.
    decisions: Vec<Reg<Option<Value>>>,
    max_reads: usize,
}

impl<M: StepMachine + Clone> BgSimulation<M> {
    /// Allocates the simulation over `sim` (whose universe is the
    /// simulators). One machine per simulated process; each may perform at
    /// most `max_reads` simulated reads (register space is pre-allocated).
    pub fn alloc(sim: &mut Sim, machines: Vec<M>, max_reads: usize) -> Self {
        let width = sim.universe().n();
        let n_sim = machines.len();
        let cells = (0..n_sim)
            .map(|u| {
                (0..width)
                    .map(|s| {
                        sim.alloc_sw(
                            format!("bg.cell[{u}][{s}]"),
                            st_core::ProcessId::new(s),
                            (0u64, None),
                        )
                    })
                    .collect()
            })
            .collect();
        let agreements = (0..n_sim)
            .map(|u| {
                (0..max_reads)
                    .map(|r| SafeAgreement::alloc(sim, &format!("bg.sa[{u}][{r}]"), width))
                    .collect()
            })
            .collect();
        let decisions = (0..n_sim)
            .map(|u| sim.alloc(format!("bg.decision[{u}]"), None))
            .collect();
        BgSimulation {
            machines,
            cells,
            agreements,
            decisions,
            max_reads,
        }
    }

    /// Simulated decision registers, peeked without steps.
    pub fn peek_simulated_decisions(&self, sim: &Sim) -> Vec<Option<Value>> {
        self.decisions.iter().map(|&d| sim.peek(d)).collect()
    }

    /// The simulator automaton of one host process: runs its copies of all
    /// machines to completion (or forever, if blocked), adopting the first
    /// simulated decision as its own. Drive one per simulator as a fleet
    /// with [`Sim::run_automata`](st_sim::Sim::run_automata).
    pub fn simulator(&self) -> BgSimulator<M> {
        let n_sim = self.machines.len();
        BgSimulator {
            bg: self.clone(),
            machines: self.machines.clone(),
            versions: vec![0; n_sim],
            read_idx: vec![0; n_sim],
            proposed: vec![false; n_sim],
            halted: vec![false; n_sim],
            round: 0,
            all_done: true,
            decided: false,
            op: Op::Adopt,
        }
    }

    /// Extracts simulator `s`'s linearization of the simulated schedule from
    /// a run report.
    pub fn simulated_schedule(
        &self,
        report: &RunReport,
        simulator: st_core::ProcessId,
    ) -> Schedule {
        report
            .probes
            .timeline(simulator, SIM_STEP_PROBE)
            .into_iter()
            .map(|(_, u)| st_core::ProcessId::new(u as usize))
            .collect()
    }
}

impl<M> std::fmt::Debug for BgSimulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BgSimulation[n_sim={}, max_reads={}]",
            self.machines.len(),
            self.max_reads
        )
    }
}

/// The register operation a [`BgSimulator`]'s next step performs.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// The round's adoption sweep: read simulated decision
    /// `round % n_sim`.
    Adopt,
    /// Write simulated process `u`'s update into this simulator's copy of
    /// its cell.
    Update { u: usize, v: Value },
    /// Read simulator `s`'s copy of cell `w` for `u`'s pending read,
    /// keeping the highest-version copy seen.
    ReadCopy {
        u: usize,
        w: usize,
        s: usize,
        best: CellCopy,
    },
    /// Step the safe-agreement call on `u`'s current read.
    Agree { u: usize, call: SafeAgreementCall },
    /// Publish simulated process `u`'s decision `v`.
    Decide { u: usize, v: Value },
}

/// One simulator of a [`BgSimulation`] as an explicit state machine
/// ([`st_sim::Automaton`]): each round it reads one simulated decision
/// register (until it has adopted one), then gives every simulated
/// process that has not halted one simulated operation — an update, a read
/// agreed through safe agreement, or a decision. The local code between
/// two register operations runs at the end of the step that performed the
/// first. Construct via [`BgSimulation::simulator`].
pub struct BgSimulator<M> {
    bg: BgSimulation<M>,
    /// This simulator's copies of the simulated processes.
    machines: Vec<M>,
    /// Version of the last update written per simulated cell.
    versions: Vec<u64>,
    /// Per simulated process, the index of its current read's
    /// safe-agreement object.
    read_idx: Vec<usize>,
    /// Per simulated process, whether this simulator proposed for its
    /// current read.
    proposed: Vec<bool>,
    halted: Vec<bool>,
    round: usize,
    /// No simulated process got an operation this round yet.
    all_done: bool,
    /// This simulator adopted a simulated decision.
    decided: bool,
    op: Op,
}

impl<M: StepMachine> BgSimulator<M> {
    /// Runs the local code of the round from simulated process `from` on:
    /// finds the next register operation, or finishes the simulator when a
    /// whole round found every simulated process halted.
    fn seek(&mut self, mut from: usize) -> Status {
        loop {
            for u in from..self.machines.len() {
                if self.halted[u] {
                    continue;
                }
                self.all_done = false;
                self.op = match self.machines[u].pending() {
                    SimOp::Update(v) => Op::Update { u, v },
                    SimOp::ReadCell(w) => {
                        if self.read_idx[u] >= self.bg.max_reads {
                            // Read budget exhausted: treat as stalled.
                            self.halted[u] = true;
                            continue;
                        }
                        if self.proposed[u] {
                            Op::Agree {
                                u,
                                call: SafeAgreementCall::resolve(),
                            }
                        } else {
                            Op::ReadCopy {
                                u,
                                w,
                                s: 0,
                                best: (0, None),
                            }
                        }
                    }
                    SimOp::Decide(v) => Op::Decide { u, v },
                    SimOp::Halt => {
                        self.halted[u] = true;
                        continue;
                    }
                };
                return Status::Running;
            }
            if self.all_done {
                return Status::Done;
            }
            self.round += 1;
            self.all_done = true;
            if !self.decided {
                self.op = Op::Adopt;
                return Status::Running;
            }
            from = 0;
        }
    }

    /// Simulated process `u` completed an operation.
    fn advance(&mut self, mem: &mut StepAccess<'_>, u: usize, read: Option<Option<Value>>) {
        self.machines[u].advance(read);
        mem.probe(SIM_STEP_PROBE, u as u64);
    }
}

impl<M: StepMachine> Automaton for BgSimulator<M> {
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        let me = mem.pid().index();
        let next = match self.op {
            Op::Adopt => {
                let n_sim = self.machines.len();
                if let Some(v) = mem.read(self.bg.decisions[self.round % n_sim]) {
                    mem.decide(v);
                    self.decided = true;
                }
                0
            }
            Op::Update { u, v } => {
                self.versions[u] += 1;
                mem.write(self.bg.cells[u][me], (self.versions[u], Some(v)));
                self.advance(mem, u, None);
                u + 1
            }
            Op::ReadCopy { u, w, s, mut best } => {
                // My view of w's cell: the maximum version over the copies.
                let copy = mem.read(self.bg.cells[w][s]);
                if copy.0 > best.0 {
                    best = copy;
                }
                self.op = if s + 1 < self.bg.cells[w].len() {
                    Op::ReadCopy {
                        u,
                        w,
                        s: s + 1,
                        best,
                    }
                } else {
                    self.proposed[u] = true;
                    Op::Agree {
                        u,
                        call: SafeAgreementCall::propose(encode(best.1)),
                    }
                };
                return Status::Running;
            }
            Op::Agree { u, mut call } => {
                let object = &self.bg.agreements[u][self.read_idx[u]];
                match call.step(object, mem) {
                    CallStep::Busy => {}
                    CallStep::Proposed => call = SafeAgreementCall::resolve(),
                    CallStep::Resolved(Resolution::Agreed(enc)) => {
                        self.read_idx[u] += 1;
                        self.proposed[u] = false;
                        self.advance(mem, u, Some(decode(enc)));
                        return self.seek(u + 1);
                    }
                    // Blocked (possibly by a crashed simulator's unsafe
                    // zone): skip, retry next round.
                    CallStep::Resolved(_) => return self.seek(u + 1),
                }
                self.op = Op::Agree { u, call };
                return Status::Running;
            }
            Op::Decide { u, v } => {
                mem.write(self.bg.decisions[u], Some(v));
                if !self.decided {
                    mem.decide(v);
                    self.decided = true;
                }
                self.advance(mem, u, None);
                u + 1
            }
        };
        self.seek(next)
    }
}
