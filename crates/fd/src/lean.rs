//! Lean `k = 1` anti-Ω for large universes: the Figure 2 algorithm
//! specialized to singleton candidate sets, with `O(n)` local state.
//!
//! For `k = 1` the candidate sets of [`KAntiOmega`](crate::KAntiOmega) are
//! exactly the singletons `{p_a}`, so the structure collapses: the counter
//! matrix is `Counter[a][q]` (accused × accuser), the per-set timers are
//! per-process timers, and the winnerset is a single **leader index** — no
//! set representation needed at all. This module is that specialization,
//! built for the `n ∈ {256, 1024}` scaling experiments.
//!
//! Local state is `O(n)`: the line 3 selection folds over each row as the
//! line 2 scan streams past it, and only the process's own counter column
//! is retained for the line 18 accusations.
//! [`KAntiOmegaMachine`](crate::KAntiOmegaMachine) runs the same fold for
//! any `k` in `O(|Π^k_n| + n)` (only the async port keeps the paper's
//! `|Π^k_n| × n` snapshot), and on [`WideProcSet`](st_core::WideProcSet)
//! universes it reaches the same
//! [`MAX_PROCESSES`](st_core::process::MAX_PROCESSES). What still differs:
//!
//! - set representation: none here — no `Π^k_n` table, no bitset width to
//!   pick, no per-process table of the sets containing it; processes are
//!   tracked by index;
//! - probe encoding: the leader is published as a plain index under
//!   [`LEADER_PROBE`], not as a set bitmask or colex rank under
//!   [`WINNERSET_PROBE`](crate::WINNERSET_PROBE).
//!
//! The machine ships on the state-machine ABI only (it exists for fleet
//! drives at scales where per-step futures are the bottleneck) and
//! implements [`PhaseBatch`], so the SoA replay drive can stream its
//! line 2 scan — which is ~`n/(n+2)` of all its steps — as span reads.

use st_core::{ProcessId, Universe};
use st_sim::{Automaton, BatchAccess, PhaseBatch, Reg, Sim, Status, StepAccess, WriteDiscipline};

use crate::timeout::TimeoutPolicy;

/// Probe key under which every process publishes its current leader index
/// whenever it changes.
pub const LEADER_PROBE: &str = "leader";

/// The shared side of a lean anti-Ω instance: register handles and
/// parameters. Clone into every machine.
#[derive(Clone, Debug)]
pub struct LeanOmega {
    universe: Universe,
    /// Resilience: accusation counters take the `(t+1)`-st smallest entry.
    t: usize,
    policy: TimeoutPolicy,
    /// `Heartbeat[p]`, single-writer, contiguous from `heartbeat_base`.
    heartbeat_base: Reg<u64>,
    /// `Counter[a][q]` (accused-major), single-writer per column `q`,
    /// contiguous from `counter_base`: handle of `Counter[a·n + q]` is
    /// `counter_base + a·n + q`.
    counter_base: Reg<u64>,
}

impl LeanOmega {
    /// Allocates `n` heartbeats and the `n × n` accusation counter matrix
    /// in `sim`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ t ≤ n − 1` (the `k = 1` slice of Theorem 23's
    /// range).
    pub fn alloc(sim: &mut Sim, t: usize, policy: TimeoutPolicy) -> Self {
        let universe = sim.universe();
        let n = universe.n();
        assert!(
            (1..n).contains(&t),
            "lean anti-Ω requires 1 <= t <= n-1 (got t={t}, n={n})"
        );
        let heartbeat_base = sim.alloc_per_process("LeanHB", 0u64)[0];
        let counter_base = sim.alloc_block(
            n * n,
            0u64,
            move |i| WriteDiscipline::SingleWriter(ProcessId::new(i % n)),
            move |i| format!("LeanCnt[{},{}]", i / n, i % n),
        );
        LeanOmega {
            universe,
            t,
            policy,
            heartbeat_base,
            counter_base,
        }
    }

    /// The universe this instance was allocated for.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// The resilience parameter `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Shared-memory steps of one loop iteration for a process accusing
    /// `expired` singletons: `n²` counter reads + 1 heartbeat write + `n`
    /// heartbeat reads + `expired` counter writes.
    pub fn steps_per_iteration(&self, expired: usize) -> u64 {
        let n = self.universe.n() as u64;
        n * n + 1 + n + expired as u64
    }

    /// One process's machine. Spawn with
    /// [`Sim::spawn_automaton`](st_sim::Sim::spawn_automaton) or drive a
    /// `Vec` of them as a typed fleet.
    pub fn machine(&self) -> LeanOmegaMachine {
        let n = self.universe.n();
        LeanOmegaMachine {
            fd: self.clone(),
            phase: LeanPhase::ReadCounters,
            scan_idx: 0,
            col: 0,
            row: 0,
            hb_idx: 0,
            acc_idx: 0,
            my_hb: 0,
            prev_heartbeat: vec![0; n],
            timeout: vec![1; n],
            timer: vec![1; n],
            row_scratch: vec![0; n],
            cnt_me: vec![0; n],
            best_row: 0,
            best_acc: u64::MAX,
            leader: 0,
            published: None,
            iterations: 0,
            expired: Vec::new(),
            batch_buf: Vec::new(),
        }
    }

    /// Reads `Counter[a][q]` without taking a step (instrumentation).
    pub fn peek_counter(&self, sim: &Sim, a: usize, q: usize) -> u64 {
        let n = self.universe.n();
        sim.peek_word_array(self.counter_base, a * n + q)
    }

    /// Reads `Heartbeat[q]` without taking a step (instrumentation).
    pub fn peek_heartbeat(&self, sim: &Sim, q: usize) -> u64 {
        sim.peek_word_array(self.heartbeat_base, q)
    }
}

/// Control state of [`LeanOmegaMachine`]: which Figure 2 line the next
/// scheduled step executes (progress indices live in the machine fields).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LeanPhase {
    /// Line 2: the `n²`-read counter scan (`scan_idx`/`col`/`row`).
    ReadCounters,
    /// Line 7: write the bumped heartbeat.
    WriteHeartbeat,
    /// Lines 8–13: read `Heartbeat[q]` (`hb_idx`).
    ReadHeartbeats,
    /// Lines 16–19: accusation write for `expired[acc_idx]`.
    Accuse,
}

/// The lean `k = 1` anti-Ω machine. Construct via [`LeanOmega::machine`].
pub struct LeanOmegaMachine {
    fd: LeanOmega,
    phase: LeanPhase,
    /// Flat scan position `a·n + q` within the line 2 phase.
    scan_idx: u32,
    /// `scan_idx % n`, maintained incrementally.
    col: u32,
    /// `scan_idx / n`, maintained incrementally.
    row: u32,
    hb_idx: u32,
    acc_idx: u32,
    my_hb: u64,
    prev_heartbeat: Vec<u64>,
    timeout: Vec<u64>,
    timer: Vec<u64>,
    /// The current line 2 row, folded into the accusation at the row
    /// boundary — the whole matrix is never retained.
    row_scratch: Vec<u64>,
    /// `Counter[a][me]` snapshot (the line 18 accusation base).
    cnt_me: Vec<u64>,
    /// Running argmin of `(accusation[a], a)` over the completed rows.
    best_row: u32,
    best_acc: u64,
    leader: u32,
    published: Option<u32>,
    iterations: u64,
    /// Rows whose timers expired this iteration, ascending.
    expired: Vec<u32>,
    /// Landing buffer for span reads on the batched drive.
    batch_buf: Vec<u64>,
}

impl LeanOmegaMachine {
    /// Current leader index (line 4's argmin, as an index).
    pub fn leader(&self) -> usize {
        self.leader as usize
    }

    /// Completed loop iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Ingests one line 2 counter value (the value of flat slot
    /// `scan_idx`), folding rows into the accusation argmin at row
    /// boundaries. Returns `Some(leader)` when this value closed the whole
    /// scan and the leader changed (the caller publishes the probe through
    /// its access type), and advances the phase.
    fn ingest_counter(&mut self, me: usize, value: u64) -> Option<u32> {
        let n = self.fd.universe.n();
        let c = self.col as usize;
        self.row_scratch[c] = value;
        self.scan_idx += 1;
        if c + 1 < n {
            self.col += 1;
            return None;
        }
        self.fold_row(me)
    }

    /// Folds the just-completed line 2 row out of `row_scratch` — line 3
    /// (the (t+1)-st smallest of the row) and line 4 (strict-< argmin in
    /// ascending row order realizes the lexicographic tie-break) — and
    /// advances to the next row, or, at the scan boundary, runs lines 4–6
    /// and returns `Some(leader)` if the leader changed.
    fn fold_row(&mut self, me: usize) -> Option<u32> {
        let n = self.fd.universe.n();
        let row = self.row as usize;
        self.cnt_me[row] = self.row_scratch[me];
        let (_, &mut acc, _) = self.row_scratch.select_nth_unstable(self.fd.t);
        if acc < self.best_acc {
            self.best_acc = acc;
            self.best_row = self.row;
        }
        if row + 1 < n {
            self.col = 0;
            self.row += 1;
            return None;
        }
        // Scan boundary: lines 4–6.
        self.leader = self.best_row;
        self.my_hb += 1;
        self.phase = LeanPhase::WriteHeartbeat;
        if self.published != Some(self.leader) {
            self.published = Some(self.leader);
            Some(self.leader)
        } else {
            None
        }
    }

    /// Ingests one lines 8–13 heartbeat value (of process `hb_idx`),
    /// running timer resets and — at the phase boundary — the lines 14–15
    /// expiry pass, and advances the phase.
    fn ingest_heartbeat(&mut self, hb: u64) {
        let q = self.hb_idx as usize;
        if hb > self.prev_heartbeat[q] {
            self.timer[q] = self.timeout[q];
            self.prev_heartbeat[q] = hb;
        }
        if q + 1 < self.fd.universe.n() {
            self.hb_idx += 1;
            return;
        }
        self.expired.clear();
        for a in 0..self.timer.len() {
            self.timer[a] -= 1;
            if self.timer[a] == 0 {
                self.timeout[a] = self.fd.policy.grow(self.timeout[a]);
                self.timer[a] = self.timeout[a];
                self.expired.push(a as u32);
            }
        }
        if self.expired.is_empty() {
            self.next_iteration();
        } else {
            self.acc_idx = 0;
            self.phase = LeanPhase::Accuse;
        }
    }

    /// Closes the loop iteration and re-enters line 2.
    fn next_iteration(&mut self) {
        self.iterations += 1;
        self.phase = LeanPhase::ReadCounters;
        self.scan_idx = 0;
        self.col = 0;
        self.row = 0;
        self.hb_idx = 0;
        self.best_row = 0;
        self.best_acc = u64::MAX;
    }
}

impl Automaton for LeanOmegaMachine {
    #[inline]
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        match self.phase {
            LeanPhase::ReadCounters => {
                let me = mem.pid().index();
                let value = mem.read_word_array(self.fd.counter_base, self.scan_idx as usize);
                if let Some(leader) = self.ingest_counter(me, value) {
                    mem.probe(LEADER_PROBE, leader as u64);
                }
            }
            LeanPhase::WriteHeartbeat => {
                let me = mem.pid().index();
                mem.write_word_array(self.fd.heartbeat_base, me, self.my_hb);
                self.hb_idx = 0;
                self.phase = LeanPhase::ReadHeartbeats;
            }
            LeanPhase::ReadHeartbeats => {
                let hb = mem.read_word_array(self.fd.heartbeat_base, self.hb_idx as usize);
                self.ingest_heartbeat(hb);
            }
            LeanPhase::Accuse => {
                // Line 18: accuse from the line 2 snapshot of the own
                // column.
                let me = mem.pid().index();
                let n = self.fd.universe.n();
                let a = self.expired[self.acc_idx as usize] as usize;
                mem.write_word_array(self.fd.counter_base, a * n + me, self.cnt_me[a] + 1);
                if self.acc_idx as usize + 1 == self.expired.len() {
                    self.next_iteration();
                } else {
                    self.acc_idx += 1;
                }
            }
        }
        Status::Running
    }
}

impl PhaseBatch for LeanOmegaMachine {
    #[inline]
    fn phase_class(&self) -> u8 {
        match self.phase {
            LeanPhase::ReadCounters => 0,
            LeanPhase::WriteHeartbeat => 1,
            LeanPhase::ReadHeartbeats => 2,
            LeanPhase::Accuse => 3,
        }
    }

    #[inline]
    fn read_run(&self) -> usize {
        let n = self.fd.universe.n();
        match self.phase {
            LeanPhase::ReadCounters => n * n - self.scan_idx as usize,
            LeanPhase::ReadHeartbeats => n - self.hb_idx as usize,
            LeanPhase::WriteHeartbeat | LeanPhase::Accuse => 0,
        }
    }

    fn step_reads(&mut self, mem: &mut BatchAccess<'_>) -> Status {
        let l = mem.remaining();
        if l == 0 {
            return Status::Running;
        }
        let me = mem.pid().index();
        match self.phase {
            LeanPhase::ReadCounters => {
                // Span reads land row segment by row segment directly in
                // `row_scratch` — no intermediate buffer, no per-value
                // column bookkeeping; the fold consumes the row in place.
                // `read_run` caps the allotment at the scan boundary, so
                // the phase cannot turn over mid-batch.
                let n = self.fd.universe.n();
                let mut remaining = l;
                while remaining > 0 {
                    debug_assert!(matches!(self.phase, LeanPhase::ReadCounters));
                    let c = self.col as usize;
                    let seg = remaining.min(n - c);
                    let (base, at) = (self.fd.counter_base, self.scan_idx as usize);
                    mem.read_word_span(base, at, &mut self.row_scratch[c..c + seg]);
                    self.scan_idx += seg as u32;
                    remaining -= seg;
                    if c + seg < n {
                        self.col = (c + seg) as u32;
                    } else if let Some(leader) = self.fold_row(me) {
                        mem.probe(LEADER_PROBE, leader as u64);
                    }
                }
            }
            LeanPhase::ReadHeartbeats => {
                self.batch_buf.resize(l, 0);
                let mut buf = std::mem::take(&mut self.batch_buf);
                mem.read_word_span(self.fd.heartbeat_base, self.hb_idx as usize, &mut buf);
                for &hb in &buf {
                    self.ingest_heartbeat(hb);
                }
                self.batch_buf = buf;
            }
            LeanPhase::WriteHeartbeat | LeanPhase::Accuse => {
                unreachable!("step_reads in a write phase: read_run() is 0 here")
            }
        }
        Status::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{Schedule, ScheduleCursor, Universe};
    use st_sim::{RunConfig, Sim};

    fn round_robin(n: usize, steps: usize) -> Vec<usize> {
        (0..steps).map(|s| s % n).collect()
    }

    #[test]
    fn all_alive_converges_to_lowest_index() {
        let n = 5;
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
        let mut fleet: Vec<LeanOmegaMachine> = (0..n).map(|_| fd.machine()).collect();
        let schedule = Schedule::from_indices(round_robin(n, 40_000));
        let mut src = ScheduleCursor::new(schedule);
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(40_000))
            .unwrap();
        for m in &fleet {
            assert_eq!(m.leader(), 0, "synchronous run must elect p0");
            assert!(m.iterations() > 0);
        }
    }

    #[test]
    fn crashed_lowest_process_is_deposed() {
        // p0 never scheduled: rows accusing p0 grow at >= t+1 columns, so
        // the argmin moves off row 0.
        let n = 4;
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
        let mut fleet: Vec<LeanOmegaMachine> = (0..n).map(|_| fd.machine()).collect();
        let steps: Vec<usize> = (0..120_000).map(|s| 1 + (s % (n - 1))).collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(120_000))
            .unwrap();
        for m in fleet.iter().skip(1) {
            assert_ne!(m.leader(), 0, "crashed p0 must be deposed");
        }
        assert!(
            fd.peek_counter(&sim, 0, 1) > 0,
            "p1 must have accused {{p0}}"
        );
    }

    #[test]
    fn leader_probe_published_on_change() {
        let n = 3;
        let u = Universe::new(n).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 1, TimeoutPolicy::Increment);
        let mut fleet: Vec<LeanOmegaMachine> = (0..n).map(|_| fd.machine()).collect();
        let schedule = Schedule::from_indices(round_robin(n, 10_000));
        sim.run_automata_replay(&mut fleet, &schedule, RunConfig::steps(10_000))
            .unwrap();
        let rep = sim.report();
        assert_eq!(
            rep.probes
                .last_value(st_core::ProcessId::new(0), LEADER_PROBE),
            Some(0)
        );
    }

    #[test]
    fn step_cost_formula() {
        let u = Universe::new(4).unwrap();
        let mut sim = Sim::new(u);
        let fd = LeanOmega::alloc(&mut sim, 2, TimeoutPolicy::Increment);
        assert_eq!(fd.steps_per_iteration(0), 16 + 1 + 4);
        assert_eq!(fd.steps_per_iteration(3), 16 + 1 + 4 + 3);
    }

    #[test]
    #[should_panic(expected = "requires 1 <= t <= n-1")]
    fn invalid_t_rejected() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let _ = LeanOmega::alloc(&mut sim, 3, TimeoutPolicy::Increment);
    }
}
