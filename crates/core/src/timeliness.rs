//! Set timeliness: Definition 1 of the paper, and its analyzer.
//!
//! > **Definition 1.** `P` is timely with respect to `Q` in `S` if there is an
//! > integer `i` such that every sequence of consecutive steps of `S` that
//! > contains `i` occurrences of processes in `Q` contains a process in `P`.
//!
//! On a finite schedule the property is characterized by the *maximal P-free
//! intervals*: contiguous runs of steps containing no member of `P`. `P` is
//! timely wrt `Q` with bound `b` iff no `P`-free interval contains `b` or more
//! `Q`-steps, so the least valid bound is
//! `1 + max_{P-free interval} (#Q-steps in the interval)`.
//!
//! For an *infinite* schedule, timeliness holds iff that quantity is bounded
//! over all prefixes. Experiments therefore measure the *empirical bound* on
//! growing prefixes: a timely pair plateaus, a non-timely pair grows without
//! bound (this is exactly the Figure 1 phenomenon, reproduced in experiment
//! E1).
//!
//! # The sweep engine and its complexity
//!
//! Sweeping `Π^i_n × Π^j_n` over a schedule of length `L` is the hot path of
//! the Figure 1 and Theorem 27 experiments. The naive loop (kept in
//! [`naive`] as the differential-testing reference) costs
//!
//! ```text
//! O( C(n,i) · [ L  +  C(n,j) · (R·j + L) ] )
//! ```
//!
//! per `(i, j)` cell — the trailing `L` is a full-schedule rescan per
//! *accepted* `Q` (to compute its exact bound), and every `P` re-allocates
//! its run table. [`TimelinessAnalyzer`] removes both: it decomposes the
//! schedule into its maximal `P`-free **run histograms** once per `P`, into
//! flat scratch buffers that are reused across the whole sweep (zero
//! allocations at steady state), deduplicates identical histograms as each
//! run closes, and answers every `Q` — cap test *and* exact bound, in one
//! walk — from the decomposition:
//!
//! ```text
//! O( C(n,i) · [ L + R·n + U·log U  +  C(n,j) · U'·j ] )
//! ```
//!
//! where `R ≤ ⌈L/2⌉` is the number of maximal `P`-free runs, `U ≤ R` the
//! number of *distinct* run histograms, and `U' ≤ U` the prefix actually
//! inspected. A run closes in `O(n)`: its additive hash finds the
//! candidate in an open-addressing table, its `n`-word histogram is
//! compared against it and cleared. So for a fixed universe a
//! decomposition is `O(L + U·log U)` — one pass, then a comparison sort of
//! the distinct histograms alone, by total. Histograms are kept sorted by
//! descending total step count, so every query stops at the first
//! histogram whose total cannot beat the running answer
//! (`Σ_{q∈Q} h[q] ≤ Σ h`). On periodic or near-synchronous schedules `U` is
//! a small constant and the per-`Q` cost collapses to `O(j)`.
//! A matrix sweep ([`sweep_matrix`]) additionally shares each `P`
//! decomposition across **all** `j` columns and spreads the `Π^i_n` outer
//! loop over threads ([`std::thread::scope`]; this environment has no
//! external dependencies, so no rayon). Workers pull fixed-size rank chunks
//! from a shared atomic counter — work stealing, since per-`P` cost varies
//! wildly with how early the descending-total scan exits — and chunk
//! results merge in ascending rank order, so the output is deterministic
//! and identical to the sequential sweep.

use crate::process::{ProcessId, Universe, PROCSET_CAPACITY};
use crate::procset::ProcSet;
use crate::schedule::Schedule;
use crate::subsets::{binomial, KSubsets};

/// Largest number of `Q`-steps found in any maximal `P`-free interval of `s`.
///
/// This is the witness quantity for Definition 1: `P` is timely wrt `Q` with
/// bound `b` iff this value is `< b`. Steps by processes in `P ∩ Q` terminate
/// a `P`-free interval (they are `P`-steps).
///
/// # Examples
///
/// ```
/// use st_core::{timeliness::max_q_steps_in_p_free_interval, Schedule, ProcSet};
///
/// // q q p q — the leading P-free interval has two Q-steps.
/// let s = Schedule::from_indices([1, 1, 0, 1]);
/// let p = ProcSet::from_indices([0]);
/// let q = ProcSet::from_indices([1]);
/// assert_eq!(max_q_steps_in_p_free_interval(&s, p, q), 2);
/// ```
pub fn max_q_steps_in_p_free_interval(s: &Schedule, p: ProcSet, q: ProcSet) -> usize {
    let mut max_run = 0usize;
    let mut current = 0usize;
    for step in s.iter() {
        if p.contains(step) {
            current = 0;
        } else if q.contains(step) {
            current += 1;
            if current > max_run {
                max_run = current;
            }
        }
    }
    max_run
}

/// Tests Definition 1 with an explicit bound on a finite schedule: every
/// contiguous interval containing `bound` `Q`-steps must contain a `P`-step.
///
/// # Panics
///
/// Panics if `bound == 0` (Definition 1 quantifies over positive integers).
pub fn is_timely_with_bound(s: &Schedule, p: ProcSet, q: ProcSet, bound: usize) -> bool {
    assert!(bound > 0, "timeliness bound must be positive");
    max_q_steps_in_p_free_interval(s, p, q) < bound
}

/// The least bound `b` for which `P` is timely wrt `Q` on this finite
/// schedule (the *empirical bound*).
///
/// On a prefix of an infinite schedule this is a lower estimate of the true
/// bound; it is exact in the limit. A pair whose empirical bound keeps growing
/// with the prefix length is not timely in the infinite schedule.
///
/// # Examples
///
/// ```
/// use st_core::{timeliness::empirical_bound, Schedule, ProcSet};
///
/// let s = Schedule::from_indices([0, 1, 0, 1, 0, 1]);
/// let p = ProcSet::from_indices([0]);
/// let q = ProcSet::from_indices([1]);
/// assert_eq!(empirical_bound(&s, p, q), 2);
/// ```
pub fn empirical_bound(s: &Schedule, p: ProcSet, q: ProcSet) -> usize {
    max_q_steps_in_p_free_interval(s, p, q) + 1
}

/// [`empirical_bound`] online: fed a schedule's steps in order, one at a
/// time or a block at a time, it keeps the current and the longest run of
/// `Q`-steps without a `P`-step, so [`bound`](Self::bound) equals
/// `empirical_bound` of the steps fed so far — the schedule itself is never
/// held; [`prefix_bounds`] feeds one per pair. A process a `ProcSet`
/// cannot name (index ≥ [`PROCSET_CAPACITY`]) is in neither `P` nor `Q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairBound {
    p: ProcSet,
    q: ProcSet,
    /// `Q`-steps since the last `P`-step.
    run: usize,
    /// Longest such run so far.
    max_run: usize,
}

impl PairBound {
    /// A watch of `(P, Q)` that has seen no step.
    pub fn new(p: ProcSet, q: ProcSet) -> Self {
        PairBound {
            p,
            q,
            run: 0,
            max_run: 0,
        }
    }

    /// Feeds the next step. Drives that see their schedule a step at a time
    /// draw it at random over a small n, where [`observe`](Self::observe)'s
    /// membership branches mispredict: the run is updated by selects.
    #[inline]
    pub fn observe_step(&mut self, step: ProcessId) {
        // No bit for a process a `ProcSet` cannot name: in neither set.
        let bit = 1u64.checked_shl(step.index() as u32).unwrap_or(0);
        let in_p = (self.p.bits() & bit != 0) as usize;
        let in_q = (self.q.bits() & bit != 0) as usize;
        // `in_p − 1`: all ones outside `P`, zero inside.
        self.run = (self.run + in_q) & in_p.wrapping_sub(1);
        self.max_run = self.max_run.max(self.run);
    }

    /// Feeds the next steps, in schedule order: the block entry, whose
    /// branches predict on the fleets' blocks (most steps past the capacity).
    pub fn observe(&mut self, steps: &[ProcessId]) {
        // A process a `ProcSet` cannot name is in neither `P` nor `Q`.
        let member = |set: ProcSet, p: ProcessId| p.index() < PROCSET_CAPACITY && set.contains(p);
        for &step in steps {
            if member(self.p, step) {
                self.run = 0;
            } else if member(self.q, step) {
                self.run += 1;
                self.max_run = self.max_run.max(self.run);
            }
        }
    }

    /// The least bound for which `P` is timely wrt `Q` on the steps fed so
    /// far (1 before any).
    pub fn bound(&self) -> usize {
        self.max_run + 1
    }

    /// The pair with its [`bound`](Self::bound).
    pub fn pair(&self) -> TimelyPair {
        TimelyPair {
            p: self.p,
            q: self.q,
            bound: self.bound(),
        }
    }
}

/// Empirical bounds of several `(P, Q)` pairs on several growing prefixes of
/// one schedule, in a **single pass** over the steps.
///
/// `checkpoints` must be ascending; each entry is clamped to `s.len()`.
/// Returns one row per checkpoint, each row holding the bound of every pair
/// on that prefix — `result[c][k] == empirical_bound(&s.prefix(checkpoints[c]),
/// pairs[k].0, pairs[k].1)`. This is the E1 (Figure 1) access pattern: the
/// naive form rescans the schedule `pairs × checkpoints` times, this scans it
/// once with `O(pairs)` state.
///
/// # Panics
///
/// Panics if `checkpoints` is not ascending.
pub fn prefix_bounds(
    s: &Schedule,
    pairs: &[(ProcSet, ProcSet)],
    checkpoints: &[usize],
) -> Vec<Vec<usize>> {
    assert!(
        checkpoints.windows(2).all(|w| w[0] <= w[1]),
        "checkpoints must be ascending"
    );
    let mut watches: Vec<PairBound> = pairs.iter().map(|&(p, q)| PairBound::new(p, q)).collect();
    let mut fed = 0;
    checkpoints
        .iter()
        .map(|&cp| {
            let upto = cp.min(s.len());
            for watch in &mut watches {
                watch.observe(&s.as_slice()[fed..upto]);
            }
            fed = upto;
            watches.iter().map(PairBound::bound).collect()
        })
        .collect()
}

/// Evidence that a pair is (empirically) timely: the pair plus its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelyPair {
    /// The timely set `P`.
    pub p: ProcSet,
    /// The observed set `Q`.
    pub q: ProcSet,
    /// Empirical bound on the analyzed prefix.
    pub bound: usize,
}

/// The zero-allocation timeliness sweep engine.
///
/// Holds the maximal-`P`-free-run decomposition of one schedule for one `P`
/// at a time, in flat buffers that are reused across calls and never
/// shrink: the hash table is sized from the schedule's length, the
/// histogram storage keeps the capacity of the largest decomposition so
/// far. Once a [`decompose`](Self::decompose) with as many distinct runs
/// has been made, decomposing a schedule no longer than that one allocates
/// nothing. All queries
/// ([`max_q_steps`](Self::max_q_steps), [`bound`](Self::bound),
/// [`within_cap`](Self::within_cap)) are answered from the decomposition —
/// the schedule is never rescanned.
///
/// # Decomposition invariants
///
/// After `decompose(s, p)`:
///
/// - every maximal `P`-free interval of `s` with at least one in-universe
///   step is recorded as a **histogram**: per-process step counts over the
///   interval (intervals with zero countable steps carry no information for
///   any `Q` and are dropped);
/// - identical histograms are stored **once**; [`runs`](Self::runs) is the
///   number of distinct histograms, [`raw_runs`](Self::raw_runs) the number
///   of recorded intervals. Deduplication is **exact**: a run's additive
///   hash and total only pick the candidate, the histograms are compared
///   entry by entry before a run counts as a repeat;
/// - histograms are ordered by **descending total** step count, which makes
///   both query loops early-exit sound: for any `Q`,
///   `Σ_{q∈Q} h[q] ≤ total(h)`, so once `total` drops to the running
///   maximum (or below the cap) no later histogram can change the answer.
///   Histograms of equal total are in order of first occurrence — no
///   answer depends on their order (every query is a maximum or an "any");
/// - for every histogram, `total` equals the sum of its per-process counts.
///
/// # Examples
///
/// ```
/// use st_core::{timeliness::TimelinessAnalyzer, Schedule, ProcSet, Universe};
///
/// let u = Universe::new(3).unwrap();
/// let s = Schedule::from_indices([0, 1, 2, 0, 1, 2]);
/// let mut az = TimelinessAnalyzer::new(u);
/// az.decompose(&s, ProcSet::from_indices([0]));
/// let q = ProcSet::from_indices([1, 2]);
/// assert_eq!(az.bound(q), 3);
/// assert!(az.within_cap(q, 3));
/// assert!(!az.within_cap(q, 2));
/// ```
#[derive(Clone, Debug)]
pub struct TimelinessAnalyzer {
    universe: Universe,
    n: usize,
    /// Per-process hash key: a run's hash is the sum of its steps' keys.
    keys: Vec<u64>,
    /// The open run's histogram (`n` words, all zero between runs).
    open: Vec<u32>,
    /// Distinct histograms in order of first occurrence: slot `r` is
    /// `counts[r*n .. (r+1)*n]`.
    counts: Vec<u32>,
    /// Hash per slot.
    hashes: Vec<u64>,
    /// Open-addressing table of slot ids (`EMPTY` when free), sized from
    /// the schedule's run-count bound at load factor ≤ ½.
    table: Vec<u32>,
    /// `(total, slot)` per distinct histogram: in slot order while
    /// decomposing, then by descending total, ties by ascending slot.
    uniq: Vec<(u64, u32)>,
    /// Recorded intervals, repeats included.
    raw_runs: usize,
    /// The `P` of the current decomposition.
    decomposed_p: Option<ProcSet>,
}

/// A free [`TimelinessAnalyzer`] table entry.
const EMPTY: u32 = u32::MAX;

/// SplitMix64's output function: the fixed hash key of process `i`. Keys
/// steer only where a histogram is probed for, never which histograms
/// count as equal, so results do not depend on them.
fn hash_key(i: usize) -> u64 {
    let mut z = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TimelinessAnalyzer {
    /// Creates an analyzer for schedules over `universe`.
    pub fn new(universe: Universe) -> Self {
        let n = universe.n();
        TimelinessAnalyzer {
            universe,
            n,
            keys: (0..n).map(hash_key).collect(),
            open: vec![0; n],
            counts: Vec::new(),
            hashes: Vec::new(),
            table: Vec::new(),
            uniq: Vec::new(),
            raw_runs: 0,
            decomposed_p: None,
        }
    }

    /// The universe this analyzer sweeps over.
    pub fn universe(&self) -> Universe {
        self.universe
    }

    /// The `P` of the current decomposition, if any.
    pub fn decomposed_p(&self) -> Option<ProcSet> {
        self.decomposed_p
    }

    /// Number of **distinct** run histograms in the current decomposition.
    pub fn runs(&self) -> usize {
        self.uniq.len()
    }

    /// Number of recorded maximal `P`-free intervals before deduplication.
    pub fn raw_runs(&self) -> usize {
        self.raw_runs
    }

    /// Decomposes `s` into its maximal `P`-free run histograms (see the type
    /// docs for the invariants): one `O(L)` pass that deduplicates each run
    /// as it closes, then an `O(U log U)` sort of the `U` distinct
    /// histograms by total. Reuses all internal buffers.
    ///
    /// # Panics
    ///
    /// Panics if a step's process index is `≥ PROCSET_CAPACITY`, as
    /// [`ProcSet::contains`] does.
    pub fn decompose(&mut self, s: &Schedule, p: ProcSet) {
        let n = self.n;
        // Runs are separated by P-steps and hold a step each, so there are
        // at most ⌈L/2⌉ of them: a table twice that holds every distinct one
        // at load factor ≤ ½, and a schedule no longer than an earlier one
        // clears it in place.
        let table_len = (2 * s.len().div_ceil(2)).next_power_of_two().max(16);
        self.table.clear();
        self.table.resize(table_len, EMPTY);
        self.counts.clear();
        self.hashes.clear();
        self.uniq.clear();
        self.raw_runs = 0;

        let bits = p.bits();
        let (mut hash, mut total) = (0u64, 0u64);
        for step in s.iter() {
            let idx = step.index();
            let in_p = if idx < PROCSET_CAPACITY {
                bits >> idx & 1 != 0
            } else {
                p.contains(step) // panics, with ProcSet's message
            };
            if in_p {
                if total != 0 {
                    self.close_run(hash, total);
                    (hash, total) = (0, 0);
                }
            } else if idx < n {
                self.open[idx] += 1;
                hash = hash.wrapping_add(self.keys[idx]);
                total += 1;
            }
        }
        if total != 0 {
            self.close_run(hash, total);
        }
        self.uniq
            .sort_unstable_by_key(|&(total, slot)| (std::cmp::Reverse(total), slot));
        self.decomposed_p = Some(p);
    }

    /// Records the open run (`hash`, `total` > 0) and clears it: a repeat of
    /// a stored histogram only counts, a new one takes the next slot.
    fn close_run(&mut self, hash: u64, total: u64) {
        let n = self.n;
        self.raw_runs += 1;
        let mask = self.table.len() - 1;
        let mut at = (hash >> 32) as usize & mask;
        loop {
            let slot = self.table[at];
            if slot == EMPTY {
                let new = self.hashes.len() as u32;
                self.table[at] = new;
                self.hashes.push(hash);
                self.uniq.push((total, new));
                self.counts.extend_from_slice(&self.open);
                break;
            }
            let r = slot as usize;
            if self.hashes[r] == hash
                && self.uniq[r].0 == total
                && self.counts[r * n..(r + 1) * n] == self.open[..]
            {
                break;
            }
            at = (at + 1) & mask;
        }
        self.open.fill(0);
    }

    #[inline]
    fn q_sum(&self, slot: u32, q: ProcSet) -> u64 {
        let base = slot as usize * self.n;
        let mut bits = q.bits();
        let mut sum = 0u64;
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if idx < self.n {
                sum += self.counts[base + idx] as u64;
            }
        }
        sum
    }

    /// Largest number of `Q`-steps in any maximal `P`-free interval —
    /// [`max_q_steps_in_p_free_interval`] answered from the decomposition.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been decomposed yet.
    pub fn max_q_steps(&self, q: ProcSet) -> usize {
        self.bound(q) - 1
    }

    /// Empirical bound of `(P, Q)` for the decomposed `P` — equals
    /// [`empirical_bound`] without rescanning the schedule.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been decomposed yet.
    pub fn bound(&self, q: ProcSet) -> usize {
        assert!(self.decomposed_p.is_some(), "decompose a schedule first");
        self.capped_bound(q, usize::MAX)
            .expect("no run holds usize::MAX steps")
    }

    /// `true` iff `P` is timely wrt `Q` with a bound `≤ cap` — i.e., no run
    /// contains `cap` or more `Q`-steps.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or nothing has been decomposed yet.
    pub fn within_cap(&self, q: ProcSet, cap: usize) -> bool {
        assert!(cap > 0, "bound cap must be positive");
        assert!(self.decomposed_p.is_some(), "decompose a schedule first");
        self.capped_bound(q, cap).is_some()
    }

    /// `Some(bound(q))` if it is at most `cap`, else `None`: one walk down
    /// the histograms by descending total, to the first run with `cap` or
    /// more `Q`-steps or the first total that cannot beat the running
    /// maximum (`Σ_{q∈Q} h[q] ≤ total(h)`). Every histogram past that exit
    /// has `total ≤ best < cap`, so it can reach neither.
    fn capped_bound(&self, q: ProcSet, cap: usize) -> Option<usize> {
        let cap = cap as u64;
        let mut best = 0u64;
        for &(total, slot) in &self.uniq {
            if total <= best {
                break;
            }
            let steps = self.q_sum(slot, q);
            if steps >= cap {
                return None;
            }
            best = best.max(steps);
        }
        Some(best as usize + 1)
    }

    /// [`find_timely_pair`] on this analyzer: first pair of the
    /// deterministic `Π^i_n × Π^j_n` enumeration whose empirical bound is at
    /// most `bound_cap`, with every `P` decomposed exactly once.
    pub fn find_timely_pair(
        &mut self,
        s: &Schedule,
        i: usize,
        j: usize,
        bound_cap: usize,
    ) -> Option<TimelyPair> {
        assert!(bound_cap > 0, "bound cap must be positive");
        for p in KSubsets::new(self.universe, i) {
            self.decompose(s, p);
            for q in KSubsets::new(self.universe, j) {
                if let Some(bound) = self.capped_bound(q, bound_cap) {
                    return Some(TimelyPair { p, q, bound });
                }
            }
        }
        None
    }

    /// [`all_timely_pairs`] on this analyzer, appending into a caller-owned
    /// vector so sweeps can reuse it.
    pub fn all_timely_pairs_into(
        &mut self,
        s: &Schedule,
        i: usize,
        j: usize,
        bound_cap: usize,
        out: &mut Vec<TimelyPair>,
    ) {
        assert!(bound_cap > 0, "bound cap must be positive");
        for p in KSubsets::new(self.universe, i) {
            self.decompose(s, p);
            for q in KSubsets::new(self.universe, j) {
                if let Some(bound) = self.capped_bound(q, bound_cap) {
                    out.push(TimelyPair { p, q, bound });
                }
            }
        }
    }

    /// Sweeps one `Π^i_n` row against several `j` columns, sharing each `P`
    /// decomposition across all of them. Returns one [`MatrixCell`] per
    /// entry of `js`.
    pub fn sweep_row(
        &mut self,
        s: &Schedule,
        i: usize,
        js: &[usize],
        bound_cap: usize,
    ) -> Vec<MatrixCell> {
        self.sweep_row_ranked(s, i, js, bound_cap, 0, binomial(self.n, i))
    }

    /// [`sweep_row`](Self::sweep_row) over the rank interval
    /// `[first_rank, last_rank)` of `Π^i_n` — the unit of work a parallel
    /// sweep hands to one thread.
    pub fn sweep_row_ranked(
        &mut self,
        s: &Schedule,
        i: usize,
        js: &[usize],
        bound_cap: usize,
        first_rank: u64,
        last_rank: u64,
    ) -> Vec<MatrixCell> {
        assert!(bound_cap > 0, "bound cap must be positive");
        let mut cells: Vec<MatrixCell> = js.iter().map(|&j| MatrixCell::empty(i, j)).collect();
        if first_rank >= last_rank {
            return cells;
        }
        let subsets = KSubsets::starting_at_rank(self.universe, i, first_rank)
            .take((last_rank - first_rank) as usize);
        for p in subsets {
            self.decompose(s, p);
            for (cell, &j) in cells.iter_mut().zip(js) {
                for q in KSubsets::new(self.universe, j) {
                    if let Some(bound) = self.capped_bound(q, bound_cap) {
                        cell.timely_pairs += 1;
                        cell.min_bound = Some(cell.min_bound.map_or(bound, |b| b.min(bound)));
                        if cell.first.is_none() {
                            cell.first = Some(TimelyPair { p, q, bound });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// Summary of one `(i, j)` cell of a matrix sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixCell {
    /// `|P|` of the swept row.
    pub i: usize,
    /// `|Q|` of the swept column.
    pub j: usize,
    /// Number of pairs within the cap.
    pub timely_pairs: u64,
    /// First such pair in enumeration order.
    pub first: Option<TimelyPair>,
    /// Smallest empirical bound over the cell.
    pub min_bound: Option<usize>,
}

impl MatrixCell {
    fn empty(i: usize, j: usize) -> Self {
        MatrixCell {
            i,
            j,
            timely_pairs: 0,
            first: None,
            min_bound: None,
        }
    }

    fn merge(&mut self, other: &MatrixCell) {
        debug_assert_eq!((self.i, self.j), (other.i, other.j));
        self.timely_pairs += other.timely_pairs;
        self.min_bound = match (self.min_bound, other.min_bound) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // Chunks are merged in ascending rank order, so the first Some wins.
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// The full `(i, j)` solvability-experiment matrix of one schedule: for
/// every `1 ≤ i, j ≤ n`, the number of timely `Π^i_n × Π^j_n` pairs within
/// the cap, the first such pair, and the least bound.
#[derive(Clone, Debug)]
pub struct SweepMatrix {
    n: usize,
    cells: Vec<MatrixCell>,
}

impl SweepMatrix {
    /// The cell for `(i, j)` (`1 ≤ i, j ≤ n`).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn cell(&self, i: usize, j: usize) -> &MatrixCell {
        assert!(i >= 1 && i <= self.n && j >= 1 && j <= self.n);
        &self.cells[(i - 1) * self.n + (j - 1)]
    }

    /// All cells in row-major `(i, j)` order.
    pub fn cells(&self) -> &[MatrixCell] {
        &self.cells
    }
}

use crate::parallel::resolve_workers;

/// Sweeps **every** `(i, j)` cell (`1 ≤ i, j ≤ n`) of `s` with one shared
/// decomposition per `P` and the `Π^i_n` loop spread across `threads` OS
/// worker threads (pass `1` to force the sequential path, `usize::MAX` for
/// one worker per hardware thread).
///
/// Workers **steal work** instead of owning a static slice: a shared atomic
/// rank counter hands out fixed-size chunks of `Π^i_n`, so a worker that
/// drew cheap subsets (early-exit decompositions) loops back for more while
/// a slow worker is still grinding — the imbalance a static
/// `total_ranks / workers` split cannot absorb. Results are **identical to
/// the sequential sweep**: chunk results are merged in ascending rank
/// order, so counts, first-pair, and min-bound are deterministic
/// (differential-tested against a static-split reference and [`naive`]).
pub fn sweep_matrix(
    s: &Schedule,
    universe: Universe,
    bound_cap: usize,
    threads: usize,
) -> SweepMatrix {
    assert!(bound_cap > 0, "bound cap must be positive");
    let n = universe.n();
    let js: Vec<usize> = (1..=n).collect();
    let workers = resolve_workers(threads);
    let mut cells = Vec::with_capacity(n * n);
    for i in 1..=n {
        let total_ranks = binomial(n, i);
        // Spawning threads costs more than small rows; keep those inline.
        if workers == 1 || total_ranks < 64 {
            let mut az = TimelinessAnalyzer::new(universe);
            cells.extend(az.sweep_row(s, i, &js, bound_cap));
            continue;
        }
        let workers = workers.min(total_ranks as usize);
        let chunk = crate::parallel::sweep_chunk_size(total_ranks, workers);
        // Chunks come back as disjoint rank intervals sorted by first rank:
        // merging in that order reproduces the sequential enumeration
        // exactly.
        let parts = crate::parallel::steal_chunks(
            total_ranks,
            workers,
            chunk,
            || TimelinessAnalyzer::new(universe),
            |az, first, last| az.sweep_row_ranked(s, i, &js, bound_cap, first, last),
        );
        let mut row: Vec<MatrixCell> = js.iter().map(|&j| MatrixCell::empty(i, j)).collect();
        for (_, part) in &parts {
            for (cell, partial) in row.iter_mut().zip(part) {
                cell.merge(partial);
            }
        }
        cells.extend(row);
    }
    SweepMatrix { n, cells }
}

/// Searches for a pair `(P, Q)` with `|P| = i`, `|Q| = j` whose empirical
/// bound on `s` is at most `bound_cap`. Returns the first such pair in the
/// deterministic `Π^i_n × Π^j_n` enumeration order, or `None`.
///
/// This is the finite-prefix membership test for the system `S^i_{j,n}`
/// (Section 2.2): a schedule of `S^i_{j,n}` must exhibit such a pair with
/// *some* bound; on a prefix we test with an explicit cap.
///
/// Convenience wrapper over [`TimelinessAnalyzer::find_timely_pair`]; for
/// repeated sweeps, hold an analyzer and reuse its buffers.
pub fn find_timely_pair(
    s: &Schedule,
    universe: Universe,
    i: usize,
    j: usize,
    bound_cap: usize,
) -> Option<TimelyPair> {
    TimelinessAnalyzer::new(universe).find_timely_pair(s, i, j, bound_cap)
}

/// Lists **all** pairs `(P, Q)` with `|P| = i`, `|Q| = j` and empirical bound
/// at most `bound_cap` on `s`.
///
/// Convenience wrapper over [`TimelinessAnalyzer::all_timely_pairs_into`].
pub fn all_timely_pairs(
    s: &Schedule,
    universe: Universe,
    i: usize,
    j: usize,
    bound_cap: usize,
) -> Vec<TimelyPair> {
    let mut out = Vec::new();
    TimelinessAnalyzer::new(universe).all_timely_pairs_into(s, i, j, bound_cap, &mut out);
    out
}

/// The pre-engine sweep loops, kept verbatim as the differential-testing
/// reference for [`TimelinessAnalyzer`] (the repo benchmark's
/// `timeliness_sweep` cross-checks against it too). Semantics are the
/// contract; performance is not: every `P` allocates a fresh run table and
/// every accepted `Q` rescans the schedule.
pub mod naive {
    use super::{empirical_bound, TimelyPair};
    use crate::process::Universe;
    use crate::procset::ProcSet;
    use crate::schedule::Schedule;
    use crate::subsets::KSubsets;

    /// Reference implementation of [`find_timely_pair`](super::find_timely_pair).
    pub fn find_timely_pair(
        s: &Schedule,
        universe: Universe,
        i: usize,
        j: usize,
        bound_cap: usize,
    ) -> Option<TimelyPair> {
        assert!(bound_cap > 0, "bound cap must be positive");
        for p in KSubsets::new(universe, i) {
            let runs = collect_p_free_runs(s, p, universe, bound_cap);
            'q_loop: for q in KSubsets::new(universe, j) {
                for run in &runs {
                    let q_steps: usize = q.iter().map(|x| run[x.index()]).sum();
                    if q_steps >= bound_cap {
                        continue 'q_loop;
                    }
                }
                let bound = empirical_bound(s, p, q);
                debug_assert!(bound <= bound_cap);
                return Some(TimelyPair { p, q, bound });
            }
        }
        None
    }

    /// Reference implementation of [`all_timely_pairs`](super::all_timely_pairs).
    pub fn all_timely_pairs(
        s: &Schedule,
        universe: Universe,
        i: usize,
        j: usize,
        bound_cap: usize,
    ) -> Vec<TimelyPair> {
        assert!(bound_cap > 0, "bound cap must be positive");
        let mut out = Vec::new();
        for p in KSubsets::new(universe, i) {
            let runs = collect_p_free_runs(s, p, universe, bound_cap);
            'q_loop: for q in KSubsets::new(universe, j) {
                for run in &runs {
                    let q_steps: usize = q.iter().map(|x| run[x.index()]).sum();
                    if q_steps >= bound_cap {
                        continue 'q_loop;
                    }
                }
                out.push(TimelyPair {
                    p,
                    q,
                    bound: empirical_bound(s, p, q),
                });
            }
        }
        out
    }

    /// Per-process step counts of each maximal `P`-free run of `s` that
    /// contains at least `min_total` steps (shorter runs cannot push any `Q`
    /// to the cap).
    fn collect_p_free_runs(
        s: &Schedule,
        p: ProcSet,
        universe: Universe,
        min_total: usize,
    ) -> Vec<Vec<usize>> {
        let n = universe.n();
        let mut runs = Vec::new();
        let mut current = vec![0usize; n];
        let mut total = 0usize;
        for step in s.iter() {
            if p.contains(step) {
                if total >= min_total {
                    runs.push(std::mem::replace(&mut current, vec![0usize; n]));
                } else {
                    current.iter_mut().for_each(|c| *c = 0);
                }
                total = 0;
            } else if step.index() < n {
                current[step.index()] += 1;
                total += 1;
            }
        }
        if total >= min_total {
            runs.push(current);
        }
        runs
    }
}

/// Observation 2 (checkable form): if `P` is timely wrt `Q` with bound `b1`
/// and `P'` timely wrt `Q'` with bound `b2`, then `P ∪ P'` is timely wrt
/// `Q ∪ Q'` with bound `b1 + b2 − 1`.
///
/// Returns the combined pair with the guaranteed bound; the empirical bound
/// on any given schedule may of course be smaller.
pub fn observation2_combine(a: TimelyPair, b: TimelyPair) -> TimelyPair {
    TimelyPair {
        p: a.p.union(b.p),
        q: a.q.union(b.q),
        bound: a.bound + b.bound - 1,
    }
}

/// Observation 3 (checkable form): growing `P` and shrinking `Q` preserves
/// timeliness with the same bound. Returns the weakened pair.
///
/// # Panics
///
/// Panics if `p_sup` is not a superset of `pair.p` or `q_sub` is not a subset
/// of `pair.q`.
pub fn observation3_weaken(pair: TimelyPair, p_sup: ProcSet, q_sub: ProcSet) -> TimelyPair {
    assert!(pair.p.is_subset(p_sup), "P must grow");
    assert!(q_sub.is_subset(pair.q), "Q must shrink");
    TimelyPair {
        p: p_sup,
        q: q_sub,
        bound: pair.bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    fn set(ix: &[usize]) -> ProcSet {
        ProcSet::from_indices(ix.iter().copied())
    }

    #[test]
    fn perfectly_alternating_schedule_has_bound_two() {
        let s = Schedule::from_indices([0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(empirical_bound(&s, set(&[0]), set(&[1])), 2);
        assert!(is_timely_with_bound(&s, set(&[0]), set(&[1]), 2));
        assert!(!is_timely_with_bound(&s, set(&[0]), set(&[1]), 1));
    }

    #[test]
    fn starved_process_gets_growing_bound() {
        // p0 appears once, then p1 runs alone.
        let mut idx = vec![0usize];
        idx.extend(std::iter::repeat_n(1, 50));
        let s = Schedule::from_indices(idx);
        assert_eq!(empirical_bound(&s, set(&[0]), set(&[1])), 51);
    }

    #[test]
    fn q_subset_of_p_gives_bound_one() {
        // Every Q-step is a P-step, so no P-free interval has any Q-step.
        let s = Schedule::from_indices([0, 1, 2, 0, 1, 2]);
        assert_eq!(empirical_bound(&s, set(&[0, 1]), set(&[1])), 1);
    }

    #[test]
    fn empty_schedule_bound_is_one() {
        let s = Schedule::new();
        assert_eq!(empirical_bound(&s, set(&[0]), set(&[1])), 1);
    }

    #[test]
    fn q_absent_gives_bound_one() {
        let s = Schedule::from_indices([0, 0, 0]);
        assert_eq!(empirical_bound(&s, set(&[1]), set(&[2])), 1);
    }

    #[test]
    fn trailing_p_free_interval_counts() {
        // p then many q: the trailing run must be counted.
        let s = Schedule::from_indices([0, 1, 1, 1]);
        assert_eq!(empirical_bound(&s, set(&[0]), set(&[1])), 4);
    }

    #[test]
    fn figure1_example_pairs() {
        // Schedule [(p1·q)^i (p2·q)^i] for i = 1..4 with p1=0, p2=1, q=2.
        let mut idx = Vec::new();
        for i in 1..=4usize {
            for _ in 0..i {
                idx.extend([0, 2]);
            }
            for _ in 0..i {
                idx.extend([1, 2]);
            }
        }
        let s = Schedule::from_indices(idx);
        // Neither singleton is timely with a small bound...
        assert!(empirical_bound(&s, set(&[0]), set(&[2])) >= 4);
        assert!(empirical_bound(&s, set(&[1]), set(&[2])) >= 4);
        // ...but the pair is timely with bound 2.
        assert_eq!(empirical_bound(&s, set(&[0, 1]), set(&[2])), 2);
    }

    #[test]
    fn analyzer_matches_streaming_bound() {
        let s = Schedule::from_indices([0, 2, 1, 1, 2, 0, 2, 2, 1, 0, 0, 1]);
        let mut az = TimelinessAnalyzer::new(u(3));
        for pb in 1u64..8 {
            let p = ProcSet::from_bits(pb);
            az.decompose(&s, p);
            for qb in 1u64..8 {
                let q = ProcSet::from_bits(qb);
                assert_eq!(
                    az.max_q_steps(q),
                    max_q_steps_in_p_free_interval(&s, p, q),
                    "p={p} q={q}"
                );
                assert_eq!(az.bound(q), empirical_bound(&s, p, q));
                for cap in 1..6 {
                    assert_eq!(
                        az.within_cap(q, cap),
                        is_timely_with_bound(&s, p, q, cap),
                        "p={p} q={q} cap={cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn analyzer_dedupes_periodic_runs() {
        // Round-robin: every P-free run of a fixed P has the same histogram.
        let s = Schedule::from_indices((0..3000).map(|i| i % 3));
        let mut az = TimelinessAnalyzer::new(u(3));
        az.decompose(&s, set(&[0]));
        assert_eq!(az.raw_runs(), 1000);
        assert!(az.runs() <= 2, "distinct histograms: {}", az.runs());
    }

    #[test]
    fn analyzer_empty_and_absent_cases() {
        let mut az = TimelinessAnalyzer::new(u(3));
        az.decompose(&Schedule::new(), set(&[0]));
        assert_eq!(az.runs(), 0);
        assert_eq!(az.bound(set(&[1])), 1);
        assert!(az.within_cap(set(&[1]), 1));
        // P covering every step: no P-free run survives.
        az.decompose(&Schedule::from_indices([0, 0, 1]), set(&[0, 1]));
        assert_eq!(az.runs(), 0);
        assert_eq!(az.bound(set(&[2])), 1);
    }

    #[test]
    fn prefix_bounds_matches_per_prefix_scans() {
        let s = Schedule::from_indices([0, 2, 2, 1, 2, 2, 2, 0, 1, 2]);
        let pairs = [
            (set(&[0]), set(&[2])),
            (set(&[1]), set(&[2])),
            (set(&[0, 1]), set(&[2])),
        ];
        let checkpoints = [0, 3, 5, 10, 99];
        let rows = prefix_bounds(&s, &pairs, &checkpoints);
        assert_eq!(rows.len(), checkpoints.len());
        for (row, &cp) in rows.iter().zip(&checkpoints) {
            let prefix = s.prefix(cp);
            for (k, &(p, q)) in pairs.iter().enumerate() {
                assert_eq!(row[k], empirical_bound(&prefix, p, q), "cp={cp} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn prefix_bounds_rejects_unsorted_checkpoints() {
        let _ = prefix_bounds(&Schedule::new(), &[], &[5, 3]);
    }

    #[test]
    fn find_timely_pair_on_round_robin() {
        let s = Schedule::from_indices((0..300).map(|i| i % 3));
        let found = find_timely_pair(&s, u(3), 1, 2, 4).expect("round robin is timely");
        assert!(found.bound <= 4);
        // Every singleton is timely wrt everything in round-robin: an
        // interval with 3 steps of any Q must wrap past every process.
        assert_eq!(found.p.len(), 1);
        assert_eq!(found.q.len(), 2);
    }

    #[test]
    fn find_timely_pair_respects_cap() {
        // p1 heavily starved: only pair {p0} wrt sets not reaching cap.
        let mut idx = vec![0usize; 20];
        idx.push(1);
        let s = Schedule::from_indices(idx);
        // {p1} wrt {p0} needs bound 21; cap 5 must reject it.
        assert!(find_timely_pair(&s, u(2), 1, 1, 5)
            .map(|tp| tp.p != set(&[1]))
            .unwrap_or(true));
        // {p0} wrt {p1}: p0 steps everywhere, bound small.
        let found = find_timely_pair(&s, u(2), 1, 1, 5).unwrap();
        assert_eq!(found.p, set(&[0]));
    }

    #[test]
    fn all_timely_pairs_counts() {
        let s = Schedule::from_indices((0..120).map(|i| i % 4));
        let pairs = all_timely_pairs(&s, u(4), 1, 2, 5);
        // Round robin: every (singleton, 2-set) pair is timely with bound ≤ 5:
        // 4 singletons × C(4,2) = 24 pairs.
        assert_eq!(pairs.len(), 24);
        for tp in pairs {
            assert!(tp.bound <= 5);
            assert!(is_timely_with_bound(&s, tp.p, tp.q, tp.bound));
        }
    }

    #[test]
    fn engine_agrees_with_naive_on_a_mixed_schedule() {
        // A schedule with starvation, bursts, and periodic phases.
        let mut idx: Vec<usize> = (0..200).map(|i| i % 4).collect();
        idx.extend(vec![0; 37]);
        idx.extend((0..100).map(|i| (i % 3) + 1));
        idx.extend([2, 2, 2, 3, 3, 0, 1, 0, 1]);
        let s = Schedule::from_indices(idx);
        for i in 1..=3 {
            for j in 1..=3 {
                for cap in [1, 2, 5, 40] {
                    assert_eq!(
                        all_timely_pairs(&s, u(4), i, j, cap),
                        naive::all_timely_pairs(&s, u(4), i, j, cap),
                        "i={i} j={j} cap={cap}"
                    );
                    assert_eq!(
                        find_timely_pair(&s, u(4), i, j, cap),
                        naive::find_timely_pair(&s, u(4), i, j, cap),
                        "i={i} j={j} cap={cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_matrix_matches_cellwise_scans() {
        let s = Schedule::from_indices((0..240).map(|i| (i * 7 + i / 5) % 4));
        for threads in [1, 4] {
            let m = sweep_matrix(&s, u(4), 5, threads);
            for i in 1..=4 {
                for j in 1..=4 {
                    let cell = m.cell(i, j);
                    let pairs = naive::all_timely_pairs(&s, u(4), i, j, 5);
                    assert_eq!(cell.timely_pairs as usize, pairs.len(), "i={i} j={j}");
                    assert_eq!(cell.first, pairs.first().copied());
                    assert_eq!(cell.min_bound, pairs.iter().map(|t| t.bound).min());
                }
            }
        }
    }

    /// The pre-work-stealing parallel sweep: a static `total_ranks / workers`
    /// rank split, one slice per thread. Kept as a differential-testing
    /// reference for [`sweep_matrix`]; results are identical, only the load
    /// balancing differs.
    fn sweep_matrix_static_split(
        s: &Schedule,
        universe: Universe,
        bound_cap: usize,
        threads: usize,
    ) -> SweepMatrix {
        assert!(bound_cap > 0, "bound cap must be positive");
        let n = universe.n();
        let js: Vec<usize> = (1..=n).collect();
        let workers = resolve_workers(threads);
        let mut cells = Vec::with_capacity(n * n);
        for i in 1..=n {
            let total_ranks = binomial(n, i);
            let workers = if total_ranks < 64 {
                1
            } else {
                workers.min(total_ranks as usize)
            };
            if workers == 1 {
                let mut az = TimelinessAnalyzer::new(universe);
                cells.extend(az.sweep_row(s, i, &js, bound_cap));
                continue;
            }
            let chunk = total_ranks.div_ceil(workers as u64);
            let row = std::thread::scope(|scope| {
                let js = &js;
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let first = chunk * w as u64;
                        let last = (first + chunk).min(total_ranks);
                        scope.spawn(move || {
                            let mut az = TimelinessAnalyzer::new(universe);
                            az.sweep_row_ranked(s, i, js, bound_cap, first, last)
                        })
                    })
                    .collect();
                let mut row: Vec<MatrixCell> =
                    js.iter().map(|&j| MatrixCell::empty(i, j)).collect();
                for handle in handles {
                    let part = handle.join().expect("sweep worker panicked");
                    for (cell, partial) in row.iter_mut().zip(&part) {
                        cell.merge(partial);
                    }
                }
                row
            });
            cells.extend(row);
        }
        SweepMatrix { n, cells }
    }

    #[test]
    fn work_stealing_sweep_matches_sequential_and_static_split() {
        // n = 10, so rows with C(10, i) ≥ 64 genuinely enter the stealing
        // path (chunk = 16 ⇒ several grabs per worker); thread counts above
        // the hardware are honored, so this exercises real interleaving
        // even on a single-core host.
        let n = 10;
        let s = Schedule::from_indices((0..2_000).map(|i| (i * 13 + i / 7) % n));
        let sequential = sweep_matrix(&s, u(n), 6, 1);
        for threads in [3, 8] {
            let stolen = sweep_matrix(&s, u(n), 6, threads);
            let static_split = sweep_matrix_static_split(&s, u(n), 6, threads);
            for i in 1..=n {
                for j in 1..=n {
                    assert_eq!(
                        stolen.cell(i, j),
                        sequential.cell(i, j),
                        "steal vs sequential i={i} j={j} threads={threads}"
                    );
                    assert_eq!(
                        static_split.cell(i, j),
                        sequential.cell(i, j),
                        "static vs sequential i={i} j={j} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn observation2_bound_is_sound() {
        // Figure 1 prefix: {p0} wrt {p0} bound 1; {p1} wrt {p2} some bound b.
        let s = Schedule::from_indices([0, 2, 1, 2, 0, 2, 1, 2]);
        let a = TimelyPair {
            p: set(&[0]),
            q: set(&[0]),
            bound: empirical_bound(&s, set(&[0]), set(&[0])),
        };
        let b = TimelyPair {
            p: set(&[1]),
            q: set(&[2]),
            bound: empirical_bound(&s, set(&[1]), set(&[2])),
        };
        let c = observation2_combine(a, b);
        assert!(is_timely_with_bound(&s, c.p, c.q, c.bound));
    }

    #[test]
    fn observation3_weakening_is_sound() {
        let s = Schedule::from_indices([0, 1, 0, 1, 2, 0, 1]);
        let pair = TimelyPair {
            p: set(&[0]),
            q: set(&[1, 2]),
            bound: empirical_bound(&s, set(&[0]), set(&[1, 2])),
        };
        let w = observation3_weaken(pair, set(&[0, 2]), set(&[1]));
        assert!(is_timely_with_bound(&s, w.p, w.q, w.bound));
    }

    #[test]
    #[should_panic(expected = "P must grow")]
    fn observation3_rejects_shrinking_p() {
        let pair = TimelyPair {
            p: set(&[0, 1]),
            q: set(&[2]),
            bound: 3,
        };
        let _ = observation3_weaken(pair, set(&[0]), set(&[2]));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_rejected() {
        let s = Schedule::new();
        let _ = is_timely_with_bound(&s, set(&[0]), set(&[1]), 0);
    }
}
