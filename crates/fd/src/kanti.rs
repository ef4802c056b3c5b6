//! The Figure 2 algorithm: t-resilient k-anti-Ω in system `S^k_{t+1,n}`.
//!
//! Transcribed line-by-line from the paper. Shared registers:
//!
//! ```text
//! ∀p ∈ Π_n:                Heartbeat[p] = 0        (written only by p)
//! ∀A ∈ Π^k_n, ∀q ∈ Π_n:    Counter[A, q] = 0       (written only by q)
//! ```
//!
//! Each process loops: read all counters (line 2), compute per-set
//! accusation counters as the `(t+1)`-st smallest entry (line 3), pick the
//! winner set minimizing `(accusation[A], A)` (line 4), output its
//! complement (line 5), bump its heartbeat (lines 6–7), reset the timers of
//! every set containing a process whose heartbeat advanced (lines 8–13), and
//! on timer expiry grow the timeout and accuse the set by incrementing its
//! own counter entry (lines 14–19).
//!
//! The automaton is [`KAntiOmegaMachine`], an explicit state machine
//! ([`st_sim::Automaton`]) with one phase per register operation of the
//! loop; the k-set agreement machine embeds it to compose the detector with
//! a protocol in the same process. It is held step-for-step (same probes at
//! the same step indices, same register writes in the same order) to the
//! line-by-line loop transcription it was ported from, whose observations
//! on round-robin, seeded-random, Figure 1 and crash schedules are the
//! workspace's `tests/fixtures/transcription.json`.

use std::rc::Rc;

use st_core::subsets::{binomial, wide_k_subsets, wide_unrank};
use st_core::{AgreementTask, ProcessId, Universe, WideProcSet};
use st_sim::{Automaton, BatchAccess, Reg, Sim, Status, StepAccess, WriteDiscipline};

use crate::timeout::TimeoutPolicy;

/// Probe key under which every process publishes its current `winnerset`
/// whenever it changes.
///
/// The encoding depends on the bitset width: at `W = 1` (the classic
/// `n ≤ 64` regime) the value is `ProcSet::bits()` — unchanged from every
/// prior release, so existing analyses and goldens keep decoding it. At
/// `W > 1` a set no longer fits in the probe's `u64` payload, so the value
/// is the winner's **colexicographic rank** within `Π^k_n` (its index in
/// [`KAntiOmega::subsets`]); decode with
/// [`wide_unrank`](st_core::subsets::wide_unrank).
pub const WINNERSET_PROBE: &str = "winnerset";

/// Parameters of the t-resilient k-anti-Ω instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KAntiOmegaConfig {
    /// Agreement degree: the winner set has size `k`; the FD outputs `n − k`
    /// processes.
    pub k: usize,
    /// Resilience: accusation counters take the `(t+1)`-st smallest entry.
    pub t: usize,
    /// Timeout growth rule (the paper's increment by default).
    pub policy: TimeoutPolicy,
}

impl KAntiOmegaConfig {
    /// The paper's configuration for `(t, k, n)`-agreement support.
    pub fn new(k: usize, t: usize) -> Self {
        KAntiOmegaConfig {
            k,
            t,
            policy: TimeoutPolicy::Increment,
        }
    }

    /// Overrides the timeout policy (ablation).
    pub fn with_policy(mut self, policy: TimeoutPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// What Figure 2 needs over `n` processes at any width:
    /// [`AgreementTask::check_nontrivial`], and its `C(n, k)·n` counters
    /// inside the register arena's `u32` handle space — checked on the
    /// numbers, before `Π^k_n` is materialized (the arena would refuse the
    /// block too, but only after `C(n, k)` sets were built: an allocation
    /// failure aborts where this refusal unwinds).
    pub fn check(&self, n: usize) -> Result<(), String> {
        let k = self.k;
        AgreementTask::check_nontrivial(self.t, k, n)?;
        let sets = binomial(n, k);
        if sets
            .checked_mul(n as u64)
            .is_some_and(|cells| cells <= u64::from(u32::MAX))
        {
            return Ok(());
        }
        Err(format!(
            "field \"k\": Figure 2 at n={n}, k={k} needs C(n,k)·n = {sets}·{n} counters, past \
             the register arena's u32 handle space"
        ))
    }
}

/// The shared side of a k-anti-Ω instance: register handles plus the
/// `Π^k_n` table. Clone into every process.
///
/// # Examples
///
/// Run the detector on every process of a small system and observe its
/// converged winnerset:
///
/// ```
/// use st_core::{ProcSet, ProcessId, Universe, ScheduleCursor, Schedule};
/// use st_fd::{KAntiOmega, KAntiOmegaConfig};
/// use st_sim::{RunConfig, Sim};
///
/// let universe = Universe::new(3).unwrap();
/// let mut sim = Sim::new(universe);
/// let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 1));
/// let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
/// // Round-robin is synchronous: the detector settles quickly.
/// let steps: Vec<usize> = (0..60_000).map(|s| s % 3).collect();
/// let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
/// sim.run_automata(&mut fleet, &mut src, RunConfig::steps(60_000)).unwrap();
/// let stab = st_fd::convergence::winnerset_stabilization(
///     &sim.report(),
///     ProcSet::full(universe),
/// );
/// assert!(stab.is_some());
/// assert_eq!(stab.unwrap().winnerset.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct KAntiOmega<const W: usize = 1> {
    config: KAntiOmegaConfig,
    universe: Universe,
    /// Handles and tables, shared by every clone and machine of the
    /// instance: cloning is a reference-count bump.
    layout: Rc<Layout<W>>,
}

/// Where a k-anti-Ω instance lives in the arena, plus the `Π^k_n` tables,
/// shared by every machine of the instance.
#[derive(Debug)]
struct Layout<const W: usize> {
    /// `Heartbeat[p]` is `heartbeat.at(p)`, single-writer: one block.
    heartbeat: Reg<u64>,
    /// `Counter[A, q]` is `counter.at(rank(A)·n + q)`, single-writer per
    /// column: one block, rank-major.
    counter: Reg<u64>,
    /// `Π^k_n` in ascending order (rank = index).
    subsets: Vec<WideProcSet<W>>,
    /// The ranks of the sets containing each process (line 11–12), flat:
    /// every process is in `per_process` sets, those of `q` at
    /// `[q·per_process .. (q+1)·per_process]`, ascending.
    containing: Vec<u32>,
    per_process: usize,
}

impl KAntiOmega {
    /// Allocates all shared registers of Figure 2 in `sim`, at the classic
    /// single-word set width (`n ≤ 64`). This pins `W = 1` so existing
    /// call sites keep their codegen and probe encoding; larger universes
    /// go through [`KAntiOmega::alloc_wide`] with an explicit width.
    ///
    /// # Panics
    ///
    /// As for [`alloc_wide`](KAntiOmega::alloc_wide), with the capacity
    /// bound fixed at the [`ProcSet`](st_core::ProcSet) capacity of 64.
    pub fn alloc(sim: &mut Sim, config: KAntiOmegaConfig) -> Self {
        Self::alloc_wide(sim, config)
    }
}

impl<const W: usize> KAntiOmega<W> {
    /// Allocates all shared registers of Figure 2 in `sim`, with process
    /// sets `W` words wide (capacity `64·W` processes).
    ///
    /// # Panics
    ///
    /// Panics where [`KAntiOmegaConfig::check`] refuses, or if `n` exceeds
    /// the bitset capacity at this width — pick `W` via
    /// [`st_core::words_for`].
    pub fn alloc_wide(sim: &mut Sim, config: KAntiOmegaConfig) -> Self {
        let universe = sim.universe();
        let n = universe.n();
        let k = config.k;
        config.check(n).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            n <= WideProcSet::<W>::CAPACITY,
            "Figure 2's Π^k_n machinery at width W={W} needs n <= {} (got n={n}); \
             pick W with st_core::words_for",
            WideProcSet::<W>::CAPACITY
        );
        let heartbeat = sim.alloc_per_process("Heartbeat", 0u64);
        let subsets = wide_k_subsets(universe, k);
        let counter = sim.alloc_block(
            subsets.len() * n,
            0u64,
            move |i| WriteDiscipline::SingleWriter(ProcessId::new(i % n)),
            move |i| {
                let (rank, q) = (i / n, ProcessId::new(i % n));
                let set = wide_unrank::<W>(universe, k, rank as u64);
                format!("Counter[{set}#{rank},{q}]")
            },
        );
        // Every process is in C(n−1, k−1) = |Π^k_n|·k/n of the sets.
        let per_process = subsets.len() * k / n;
        let mut containing = vec![0u32; n * per_process];
        let mut filled = vec![0usize; n];
        for (rank, set) in subsets.iter().enumerate() {
            for q in set.iter() {
                let q = q.index();
                containing[q * per_process + filled[q]] = rank as u32;
                filled[q] += 1;
            }
        }
        KAntiOmega {
            config,
            universe,
            layout: Rc::new(Layout {
                heartbeat,
                counter,
                subsets,
                containing,
                per_process,
            }),
        }
    }

    /// The instance parameters.
    pub fn config(&self) -> KAntiOmegaConfig {
        self.config
    }

    /// The universe this instance was allocated for.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// Number of candidate sets `|Π^k_n|`.
    pub fn set_count(&self) -> usize {
        self.layout.subsets.len()
    }

    /// The handle of `Heartbeat[p]`.
    fn heartbeat(&self, p: usize) -> Reg<u64> {
        self.layout.heartbeat.at(p)
    }

    /// The handle of `Counter[A, q]` for the set `A` of the given rank.
    fn counter(&self, rank: usize, q: usize) -> Reg<u64> {
        self.layout.counter.at(rank * self.universe.n() + q)
    }

    /// The ranks of the sets containing `q`, ascending.
    fn containing(&self, q: usize) -> &[u32] {
        let per = self.layout.per_process;
        &self.layout.containing[q * per..(q + 1) * per]
    }

    /// Shared-memory steps of one loop iteration for a process that accuses
    /// `expired` sets: `|Π^k_n|·n` counter reads + 1 heartbeat write + `n`
    /// heartbeat reads + `expired` counter writes.
    pub fn steps_per_iteration(&self, expired: usize) -> u64 {
        let m = self.set_count() as u64;
        let n = self.universe.n() as u64;
        m * n + 1 + n + expired as u64
    }

    /// The [`WINNERSET_PROBE`] payload for the winner of the given rank:
    /// the raw bitmask at `W = 1` (the historical encoding), the colex
    /// rank at wider widths (see the probe's docs).
    #[inline]
    fn encode_winnerset(&self, rank: usize) -> u64 {
        if W == 1 {
            self.layout.subsets[rank].words()[0]
        } else {
            rank as u64
        }
    }

    /// The standalone Figure 2 automaton of one process (iterate forever):
    /// drive one per process as a fleet, e.g.
    /// `sim.run_automata(&mut fleet, &mut src, cfg)` over
    /// `universe.processes().map(|_| fd.machine()).collect::<Vec<_>>()`.
    pub fn machine(&self) -> KAntiOmegaMachine<W> {
        KAntiOmegaMachine::new(self.clone())
    }

    /// The subsets table (rank order), for analyses.
    pub fn subsets(&self) -> &[WideProcSet<W>] {
        &self.layout.subsets
    }

    /// Reads `Counter[A, q]` without taking a step (instrumentation).
    pub fn peek_counter(&self, sim: &Sim, rank: usize, q: ProcessId) -> u64 {
        sim.peek(self.counter(rank, q.index()))
    }

    /// Reads `Heartbeat[p]` without taking a step (instrumentation).
    pub fn peek_heartbeat(&self, sim: &Sim, p: ProcessId) -> u64 {
        sim.peek(self.heartbeat(p.index()))
    }
}

/// Control state of [`KAntiOmegaMachine`]: which Figure 2 line the next
/// scheduled step executes. Every variant performs exactly one register
/// operation; the local computation between operations (lines 3–5, timer
/// bookkeeping) runs at the phase boundaries, inside the step that precedes
/// it — exactly where the loop transcription ran it.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// Line 2: read `Counter[A, q]` at the machine's `scan_idx` (= `a·n + q`,
    /// with `row`/`col` kept alongside). `m·n` steps per iteration — the hot
    /// phase.
    ReadCounters,
    /// Line 7: write the bumped heartbeat.
    WriteHeartbeat,
    /// Lines 8–13: read `Heartbeat[q]` and reset timers of sets containing
    /// `q` whose heartbeat advanced.
    ReadHeartbeats(u32),
    /// Lines 16–19: write the accusation `Counter[A, p]` for the expired
    /// set at this index of the machine's expired list.
    Accuse(u32),
}

/// The Figure 2 automaton as an explicit state machine
/// ([`st_sim::Automaton`]).
///
/// Construct via [`KAntiOmega::machine`] and drive one per process as a
/// fleet ([`Sim::run_automata`](st_sim::Sim::run_automata)). Local state is
/// `O(|Π^k_n| + n)` per process, not the `|Π^k_n| × n` snapshot the paper's
/// line 2 spells out: line 3 needs one row of the counter matrix at a time
/// and line 18 only the process's own column, so the scan lands each row in
/// one `n`-word buffer, folds it into a running argmin at the row boundary,
/// and retains `Counter[A, me]` alone. The hot `ReadCounters` step is a
/// bounds-checked word read, a store and an index increment.
///
/// Each vector is allocated when the machine first reaches the phase that
/// uses it, so a fleet pays only for the machines its run steps. Before its
/// first step a machine holds nothing of size `n` or `|Π^k_n|`. Its first
/// line 2 read allocates the `n`-word row buffer and reserves, untouched,
/// the `|Π^k_n|` words of its own column, which the first scan fills row by
/// row. Its first line 7 write, at the end of that scan, allocates the
/// `n`-word `prevHeartbeat` and the `|Π^k_n|`-word `timeout` and `timer`,
/// which nothing reads before lines 8–13.
///
/// # Examples
///
/// ```
/// use st_core::{ProcSet, Universe, ScheduleCursor, Schedule};
/// use st_fd::{KAntiOmega, KAntiOmegaConfig};
/// use st_sim::{RunConfig, Sim};
///
/// let universe = Universe::new(3).unwrap();
/// let mut sim = Sim::new(universe);
/// let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 1));
/// let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
/// let steps: Vec<usize> = (0..60_000).map(|s| s % 3).collect();
/// let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
/// sim.run_automata(&mut fleet, &mut src, RunConfig::steps(60_000)).unwrap();
/// let stab = st_fd::convergence::winnerset_stabilization(
///     &sim.report(),
///     ProcSet::full(universe),
/// );
/// assert_eq!(stab.unwrap().winnerset.len(), 1);
/// ```
#[derive(Clone)]
pub struct KAntiOmegaMachine<const W: usize = 1> {
    fd: KAntiOmega<W>,
    phase: Phase,
    /// `n`, kept here: the row-end test reads it every row, and the
    /// vectors below are empty until their phase first runs.
    n: u32,
    /// `|Π^k_n|`, likewise (the last-row test).
    m: u32,
    /// Flat scan position `a·n + q` within the line 2 phase.
    scan_idx: u32,
    /// `scan_idx % n`, maintained incrementally.
    col: u32,
    /// `scan_idx / n`, maintained incrementally.
    row: u32,
    // The local variables block of Figure 2; the vectors are empty until
    // the first line 7 write (see the type's docs).
    my_hb: u64,
    prev_heartbeat: Vec<u64>,
    timeout: Vec<u64>,
    timer: Vec<u64>,
    /// The handle of `Counter[A₀, p₀]`, copied out of the shared layout:
    /// Figure 2's counter matrix is one block (rank-major, process-minor),
    /// so the line 2 scan reads `counter_base + i` via
    /// [`StepAccess::read_word_array`] — no pointer to chase on the hot
    /// phase.
    counter_base: Reg<u64>,
    /// The handle of `Heartbeat[p0]`, likewise; the per-process block lets
    /// the lines 8–13 scan run as one span read on the batched drive.
    heartbeat_base: Reg<u64>,
    /// The current line 2 row `cnt[A, *]`, folded into the accusation at
    /// the row boundary — the whole matrix is never retained. Empty until
    /// the first line 2 read.
    row_scratch: Vec<u64>,
    /// `Counter[A, me]` as read in line 2, per rank (the line 18
    /// accusation base). Reserved by the first line 2 read and pushed to
    /// row by row during the first scan; overwritten in place after it.
    cnt_me: Vec<u64>,
    /// Running argmin of `(accusation[A], A)` over the completed rows.
    best_row: u32,
    best_acc: u64,
    winnerset: WideProcSet<W>,
    fd_output: WideProcSet<W>,
    published: Option<WideProcSet<W>>,
    iterations: u64,
    /// Ranks whose timers expired this iteration, in ascending order —
    /// the pending line 18 writes. Sized by the first expiry pass, not at
    /// construction: a fleet that never gets there never pays for it.
    expired: Vec<u32>,
    /// Landing buffer for the heartbeat span read of this machine's
    /// [`Automaton::step_reads`] override; sized to the batch on use.
    batch_buf: Vec<u64>,
}

impl<const W: usize> KAntiOmegaMachine<W> {
    fn new(fd: KAntiOmega<W>) -> Self {
        let fits = "KAntiOmegaConfig::check bounds m·n by the arena's u32 handle space";
        let n = u32::try_from(fd.universe.n()).expect(fits);
        let m = u32::try_from(fd.set_count()).expect(fits);
        let counter_base = fd.layout.counter;
        let heartbeat_base = fd.layout.heartbeat;
        KAntiOmegaMachine {
            fd,
            phase: Phase::ReadCounters,
            n,
            m,
            scan_idx: 0,
            col: 0,
            row: 0,
            my_hb: 0,
            prev_heartbeat: Vec::new(),
            timeout: Vec::new(),
            timer: Vec::new(),
            counter_base,
            heartbeat_base,
            row_scratch: Vec::new(),
            cnt_me: Vec::new(),
            best_row: 0,
            best_acc: u64::MAX,
            winnerset: WideProcSet::EMPTY,
            fd_output: WideProcSet::EMPTY,
            published: None,
            iterations: 0,
            expired: Vec::new(),
            batch_buf: Vec::new(),
        }
    }

    /// Current winner set (line 4).
    pub fn winnerset(&self) -> WideProcSet<W> {
        self.winnerset
    }

    /// Current FD output `Π_n − winnerset` (line 5).
    pub fn fd_output(&self) -> WideProcSet<W> {
        self.fd_output
    }

    /// Completed loop iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Folds the just-completed line 2 row out of `row_scratch`: line 3
    /// (`accusation[A]` is the (t+1)-st smallest of the row) and line 4's
    /// running minimum of `(accusation[A], A)` — subsets are in ascending
    /// set order, so a strict `<` in rank order realizes the lexicographic
    /// tie-break. Then advances to the next row or, on the last row, runs
    /// lines 4–5 and the line 6 increment inside the step of the last read
    /// (where the loop transcription ran them) and returns the encoded probe
    /// payload when the winnerset changed — the caller publishes it as the
    /// [`WINNERSET_PROBE`]: `step` through its [`StepAccess`], the
    /// row-segment span reads of `step_reads` through their
    /// [`st_sim::BatchAccess`].
    fn fold_row(&mut self, me: usize) -> Option<u64> {
        let row = self.row as usize;
        let own = self.row_scratch[me];
        match self.cnt_me.get_mut(row) {
            Some(slot) => *slot = own,
            // The first scan: `alloc_scan` reserved all `m` words.
            None => self.cnt_me.push(own),
        }
        // The (t+1)-st smallest is below the running minimum exactly when
        // more than t entries are: one counting pass settles most rows
        // without selecting anything.
        let t = self.fd.config.t;
        let best = self.best_acc;
        if self.row_scratch.iter().filter(|&&c| c < best).count() > t {
            let (_, &mut acc, _) = self.row_scratch.select_nth_unstable(t);
            self.best_acc = acc;
            self.best_row = self.row;
        }
        if row + 1 < self.m as usize {
            self.col = 0;
            self.row += 1;
            return None;
        }
        let winner = self.best_row as usize;
        self.winnerset = self.fd.layout.subsets[winner];
        // Line 5: fdOutput = Π_n − winnerset.
        self.fd_output = self.winnerset.complement(self.fd.universe);
        // Line 6: bump the local heartbeat; the write is the next step.
        self.my_hb += 1;
        self.phase = Phase::WriteHeartbeat;
        if self.published != Some(self.winnerset) {
            self.published = Some(self.winnerset);
            Some(self.fd.encode_winnerset(winner))
        } else {
            None
        }
    }

    /// The machine's first line 2 read: allocates the row buffer and
    /// reserves the own column (see the type's docs).
    #[cold]
    #[inline(never)]
    fn alloc_scan(&mut self) {
        self.row_scratch = vec![0; self.n as usize];
        self.cnt_me = Vec::with_capacity(self.m as usize);
    }

    /// The scalar step's miss on an empty row buffer: the first read of the
    /// machine's life lands here, after `alloc_scan`.
    #[cold]
    #[inline(never)]
    fn first_read(&mut self, c: usize, w: u64) {
        self.alloc_scan();
        self.row_scratch[c] = w;
    }

    /// The machine's first line 7 write: the lines 8–19 state, with the
    /// paper's initial values (heartbeats 0, timeouts and timers 1).
    #[cold]
    #[inline(never)]
    fn alloc_timers(&mut self) {
        let (n, m) = (self.n as usize, self.m as usize);
        self.prev_heartbeat = vec![0; n];
        self.timeout = vec![1; m];
        self.timer = vec![1; m];
    }

    /// Lines 14–15 + 17 bookkeeping for every set at once: decrement all
    /// timers, grow the timeout of the expired ones, and queue their
    /// accusation writes (ascending rank — the order the paper's loop
    /// emits them). Timer arithmetic is local, so batching it at the end of the
    /// lines 8–13 phase is unobservable; the queued writes then replay one
    /// per step.
    fn expire_timers(&mut self) {
        self.expired.clear();
        // The first pass expires every timer (all start at 1); later calls
        // find the capacity there.
        self.expired.reserve(self.timer.len());
        for a in 0..self.timer.len() {
            self.timer[a] -= 1;
            if self.timer[a] == 0 {
                self.timeout[a] = self.fd.config.policy.grow(self.timeout[a]);
                self.timer[a] = self.timeout[a];
                self.expired.push(a as u32);
            }
        }
    }

    /// Lines 8–13 for one heartbeat read: an advanced `Heartbeat[q]` resets
    /// the timers of the sets containing `q`.
    #[inline]
    fn observe_heartbeat(&mut self, q: usize, hbq: u64) {
        if hbq > self.prev_heartbeat[q] {
            for &rank in self.fd.containing(q) {
                self.timer[rank as usize] = self.timeout[rank as usize];
            }
            self.prev_heartbeat[q] = hbq;
        }
    }

    /// Moves the heartbeat scan on to process `next`; past the last one,
    /// runs the timer pass and turns to the accusations (lines 14–19), or
    /// closes the iteration when no timer expired.
    #[inline]
    fn advance_heartbeat_scan(&mut self, next: usize) {
        if next < self.n as usize {
            self.phase = Phase::ReadHeartbeats(next as u32);
            return;
        }
        self.expire_timers();
        if self.expired.is_empty() {
            self.next_iteration();
        } else {
            self.phase = Phase::Accuse(0);
        }
    }

    /// Closes the loop iteration and re-enters line 2.
    fn next_iteration(&mut self) {
        self.iterations += 1;
        self.phase = Phase::ReadCounters;
        self.scan_idx = 0;
        self.col = 0;
        self.row = 0;
        self.best_row = 0;
        self.best_acc = u64::MAX;
    }
}

impl<const W: usize> Automaton for KAntiOmegaMachine<W> {
    // Inline hint: the k-set agreement machine (st-agreement) embeds this
    // machine and calls `step` once per scheduled step on its hottest path;
    // without the hint the cross-crate call stays opaque.
    #[inline]
    fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
        match self.phase {
            Phase::ReadCounters => {
                let c = self.col as usize;
                let w = mem.read_word_array(self.counter_base, self.scan_idx as usize);
                match self.row_scratch.get_mut(c) {
                    Some(slot) => *slot = w,
                    None => self.first_read(c, w),
                }
                self.scan_idx += 1;
                if c + 1 < self.n as usize {
                    self.col += 1;
                } else if let Some(ws) = self.fold_row(mem.pid().index()) {
                    mem.probe(WINNERSET_PROBE, ws);
                }
            }
            Phase::WriteHeartbeat => {
                // Line 7.
                let me = mem.pid().index();
                mem.write_word_array(self.heartbeat_base, me, self.my_hb);
                if self.timer.is_empty() {
                    self.alloc_timers();
                }
                self.phase = Phase::ReadHeartbeats(0);
            }
            Phase::ReadHeartbeats(q) => {
                let qi = q as usize;
                let hbq = mem.read_word_array(self.heartbeat_base, qi);
                self.observe_heartbeat(qi, hbq);
                self.advance_heartbeat_scan(qi + 1);
            }
            Phase::Accuse(idx) => {
                // Line 18: accuse from the line 2 snapshot of the own
                // column, as the paper does.
                let me = mem.pid().index();
                let a = self.expired[idx as usize] as usize;
                let slot = a * self.n as usize + me;
                mem.write_word_array(self.counter_base, slot, self.cnt_me[a] + 1);
                if idx as usize + 1 == self.expired.len() {
                    self.next_iteration();
                } else {
                    self.phase = Phase::Accuse(idx + 1);
                }
            }
        }
        Status::Running
    }

    #[inline]
    fn phase_class(&self) -> u8 {
        match self.phase {
            Phase::ReadCounters => 0,
            Phase::WriteHeartbeat => 1,
            Phase::ReadHeartbeats(_) => 2,
            Phase::Accuse(_) => 3,
        }
    }

    #[inline]
    fn read_run(&self) -> usize {
        // Both read phases scan a fixed register range: which registers get
        // read never depends on the values read (values only feed the local
        // timer bookkeeping at the phase boundary), so the full remainder of
        // the phase is a sound run. The write phases pin the run at 0.
        let n = self.n as usize;
        match self.phase {
            Phase::ReadCounters => self.m as usize * n - self.scan_idx as usize,
            Phase::ReadHeartbeats(q) => n - q as usize,
            Phase::WriteHeartbeat | Phase::Accuse(_) => 0,
        }
    }

    fn step_reads(&mut self, mem: &mut BatchAccess<'_>) -> Status {
        let l = mem.remaining();
        if l == 0 {
            return Status::Running;
        }
        match self.phase {
            Phase::ReadCounters => {
                // Line 2, batched: span reads land row segment by row
                // segment directly in `row_scratch`, cut at the row
                // boundaries where the fold consumes the row in place.
                // `read_run` caps the allotment at the scan boundary, so the
                // phase cannot turn over mid-batch.
                if self.row_scratch.is_empty() {
                    self.alloc_scan();
                }
                let n = self.n as usize;
                let me = mem.pid().index();
                let mut remaining = l;
                while remaining > 0 {
                    debug_assert!(matches!(self.phase, Phase::ReadCounters));
                    let c = self.col as usize;
                    let seg = remaining.min(n - c);
                    let at = self.scan_idx as usize;
                    mem.read_word_span(self.counter_base, at, &mut self.row_scratch[c..c + seg]);
                    self.scan_idx += seg as u32;
                    remaining -= seg;
                    if c + seg < n {
                        self.col = (c + seg) as u32;
                    } else if let Some(ws) = self.fold_row(me) {
                        // Attaches to the last consumed step — exactly the
                        // step the scalar drive publishes on.
                        mem.probe(WINNERSET_PROBE, ws);
                    }
                }
            }
            Phase::ReadHeartbeats(q) => {
                // Lines 8–13, batched: span-read the heartbeat array, then
                // run the timer resets over the landed values.
                let q0 = q as usize;
                self.batch_buf.resize(l, 0);
                mem.read_word_span(self.heartbeat_base, q0, &mut self.batch_buf);
                for j in 0..l {
                    let hbq = self.batch_buf[j];
                    self.observe_heartbeat(q0 + j, hbq);
                }
                self.advance_heartbeat_scan(q0 + l);
            }
            Phase::WriteHeartbeat | Phase::Accuse(_) => {
                unreachable!("step_reads in a write phase: read_run() is 0 here")
            }
        }
        Status::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, Schedule, ScheduleCursor};
    use st_sim::RunConfig;

    fn universe(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    #[test]
    fn allocation_layout() {
        let mut sim = Sim::new(universe(4));
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(2, 2));
        assert_eq!(fd.set_count(), 6); // C(4,2)
        assert_eq!(fd.subsets()[0], ProcSet::from_indices([0, 1]));
        // Registers: 4 heartbeats + 6*4 counters.
        assert_eq!(fd.steps_per_iteration(0), 6 * 4 + 1 + 4);
        assert_eq!(fd.steps_per_iteration(3), 6 * 4 + 1 + 4 + 3);
    }

    #[test]
    #[should_panic(expected = "requires 1 <= k <= t")]
    fn invalid_parameters_rejected() {
        let mut sim = Sim::new(universe(3));
        let _ = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(2, 1));
    }

    #[test]
    #[should_panic(expected = "Figure 2 at n=256, k=8 needs C(n,k)·n")]
    fn a_counter_matrix_past_the_handle_space_is_refused_before_any_set_is_built() {
        // C(256, 8) ≈ 4·10¹⁴ sets: materializing them first would exhaust
        // memory (an abort) long before the arena could refuse the block.
        let mut sim = Sim::new(universe(256));
        let _ = KAntiOmega::<4>::alloc_wide(&mut sim, KAntiOmegaConfig::new(8, 8));
    }

    #[test]
    fn the_largest_k2_grid_cell_still_allocates() {
        let mut sim = Sim::new(universe(128));
        let fd = KAntiOmega::<2>::alloc_wide(&mut sim, KAntiOmegaConfig::new(2, 8));
        assert_eq!(fd.set_count(), 8128); // C(128, 2)
        let last = ProcessId::new(127);
        assert_eq!(fd.peek_counter(&sim, 8127, last), 0);
    }

    #[test]
    fn first_iteration_outputs_lowest_set_and_beats() {
        // With all counters zero, the winner is the rank-0 set {p0,..,p_{k-1}}.
        let mut sim = Sim::new(universe(3));
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 1));
        let mut fleet: Vec<_> = (0..3).map(|_| fd.machine()).collect();
        // One iteration for n=3, k=1: 3*3 reads + 1 write + 3 reads + one
        // accusation per set (every timer starts at 1, so all expire).
        let steps = fd.steps_per_iteration(3) as usize;
        let schedule = Schedule::from_indices(vec![0usize; steps]);
        sim.run_automata(
            &mut fleet,
            &mut ScheduleCursor::new(schedule),
            RunConfig::steps(steps as u64),
        )
        .unwrap();
        assert_eq!(fleet[0].iterations(), 1);
        assert_eq!(fleet[0].winnerset(), ProcSet::from_indices([0]));
        assert_eq!(fleet[0].fd_output(), ProcSet::from_indices([1, 2]));
        assert_eq!(fd.peek_heartbeat(&sim, ProcessId::new(0)), 1);
    }

    #[test]
    fn solo_runner_accuses_silent_sets() {
        // p0 runs alone: every set not containing p0 gets accused (its
        // timers keep expiring), so Counter[A, p0] grows for those sets.
        let mut sim = Sim::new(universe(3));
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 2));
        let mut fleet: Vec<_> = (0..3).map(|_| fd.machine()).collect();
        let steps = vec![0usize; 4000];
        let mut src = ScheduleCursor::new(Schedule::from_indices(steps));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(4000))
            .unwrap();
        // Ranks: {p0}=0, {p1}=1, {p2}=2.
        let acc_p1 = fd.peek_counter(&sim, 1, ProcessId::new(0));
        let acc_p2 = fd.peek_counter(&sim, 2, ProcessId::new(0));
        let acc_p0 = fd.peek_counter(&sim, 0, ProcessId::new(0));
        assert!(acc_p1 > 0 && acc_p2 > 0, "silent sets must be accused");
        // {p0} is its own heartbeat source: its timer keeps being reset.
        // It may be accused a bounded number of times early (timer races the
        // first heartbeat observations) but far less than silent sets.
        assert!(
            acc_p0 < acc_p1 / 2,
            "live set accused almost as much: {acc_p0} vs {acc_p1}"
        );
    }

    #[test]
    fn accusation_uses_t_plus_1_smallest() {
        /// Writes one word and halts.
        struct WriteOnce(Reg<u64>, u64);
        impl Automaton for WriteOnce {
            fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
                mem.write_word(self.0, self.1);
                Status::Done
            }
        }
        // Unit-check the selection rule via crafted counters.
        let mut sim = Sim::new(universe(4));
        let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(1, 2));
        // Pre-set counters for set rank 0 ({p0}): entries 5, 1, 3, 2 → sorted
        // 1,2,3,5 → (t+1)=3rd smallest = 3. Counters are single-writer:
        // each process writes its own Counter[{p0}, q] entry.
        let mut fleet: Vec<_> = [(0usize, 5u64), (1, 1), (2, 3), (3, 2)]
            .into_iter()
            .map(|(q, v)| WriteOnce(fd.counter(0, q), v))
            .collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices([0, 1, 2, 3]));
        sim.run_automata(&mut fleet, &mut src, RunConfig::steps(4))
            .unwrap();
        let cnt: Vec<u64> = (0..4)
            .map(|q| fd.peek_counter(&sim, 0, ProcessId::new(q)))
            .collect();
        let mut sorted = cnt.clone();
        sorted.sort_unstable();
        assert_eq!(sorted[2], 3, "(t+1)-st smallest with t=2");
    }
}
