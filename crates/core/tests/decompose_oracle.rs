//! The replaced code is the oracle: the sort-based `decompose` and the two
//! query loops that `TimelinessAnalyzer` used before it deduplicated run
//! histograms by hash, kept verbatim as [`reference::Analyzer`], and the
//! sweep loops that called `within_cap` and then `bound` per `Q`, kept
//! verbatim beside it. The analyzer is held equal to them on `runs()`,
//! `raw_runs()`, `bound`, `max_q_steps` and `within_cap` at every cap in
//! `1..=2n+2` — over every `P` and `Q` when `n ≤ 8`, every `P` (n = 12) or
//! sampled ones (n = 64) against a share of 500 sampled `Q` otherwise —
//! and on the three sweep loops, for seeded-random, bursty, round-robin,
//! Figure 1 and starvation schedules at n ∈ {1, 2, 3, 7, 12, 64}, with
//! out-of-universe steps, the empty schedule, `P = ∅` and `P = Π_n`.

use st_core::subsets::KSubsets;
use st_core::timeliness::{TimelinessAnalyzer, TimelyPair};
use st_core::{ProcSet, Schedule, Universe};

/// The replaced analyzer, verbatim but for the type's name, the accessors
/// the comparison does not need, and `multiplicity_sum`.
mod reference {
    use st_core::subsets::KSubsets;
    use st_core::timeliness::{MatrixCell, TimelyPair};
    use st_core::{ProcSet, Schedule, Universe};

    pub struct Analyzer {
        universe: Universe,
        n: usize,
        /// Flat histogram storage: slot `r` is `counts[r*n .. (r+1)*n]`.
        counts: Vec<u32>,
        /// Total in-universe steps per slot (parallel to slots).
        totals: Vec<u64>,
        /// Distinct-histogram access path: slot ids sorted by descending total.
        uniq: Vec<u32>,
        /// Multiplicity per distinct histogram (parallel to `uniq`).
        mult: Vec<u32>,
        /// Scratch for the sort.
        order: Vec<u32>,
        /// The `P` of the current decomposition.
        decomposed_p: Option<ProcSet>,
    }

    impl Analyzer {
        pub fn new(universe: Universe) -> Self {
            Analyzer {
                universe,
                n: universe.n(),
                counts: Vec::new(),
                totals: Vec::new(),
                uniq: Vec::new(),
                mult: Vec::new(),
                order: Vec::new(),
                decomposed_p: None,
            }
        }

        pub fn runs(&self) -> usize {
            self.uniq.len()
        }

        pub fn raw_runs(&self) -> usize {
            self.totals.len()
        }

        /// Σ multiplicities — what `raw_runs` counts, by the other route.
        pub fn multiplicity_sum(&self) -> usize {
            self.mult.iter().map(|&m| m as usize).sum()
        }

        pub fn decompose(&mut self, s: &Schedule, p: ProcSet) {
            let n = self.n;
            self.counts.clear();
            self.totals.clear();
            let mut base = usize::MAX; // no open run
            let mut total = 0u64;
            for step in s.iter() {
                if p.contains(step) {
                    if base != usize::MAX {
                        self.totals.push(total);
                        base = usize::MAX;
                        total = 0;
                    }
                } else {
                    let idx = step.index();
                    if idx < n {
                        if base == usize::MAX {
                            base = self.counts.len();
                            self.counts.resize(base + n, 0);
                        }
                        self.counts[base + idx] += 1;
                        total += 1;
                    }
                }
            }
            if base != usize::MAX {
                self.totals.push(total);
            }

            // Order slots by descending total (ties by histogram content so that
            // duplicates become adjacent), then collapse duplicates.
            let Self {
                counts,
                totals,
                uniq,
                mult,
                order,
                ..
            } = self;
            order.clear();
            order.extend(0..totals.len() as u32);
            let hist = |slot: u32| &counts[slot as usize * n..(slot as usize + 1) * n];
            order.sort_unstable_by(|&a, &b| {
                totals[b as usize]
                    .cmp(&totals[a as usize])
                    .then_with(|| hist(a).cmp(hist(b)))
            });
            uniq.clear();
            mult.clear();
            for &slot in order.iter() {
                match uniq.last() {
                    Some(&prev)
                        if totals[prev as usize] == totals[slot as usize]
                            && hist(prev) == hist(slot) =>
                    {
                        *mult.last_mut().expect("mult parallel to uniq") += 1;
                    }
                    _ => {
                        uniq.push(slot);
                        mult.push(1);
                    }
                }
            }
            self.decomposed_p = Some(p);
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

        pub fn max_q_steps(&self, q: ProcSet) -> usize {
            assert!(self.decomposed_p.is_some(), "decompose a schedule first");
            let mut best = 0u64;
            for &slot in &self.uniq {
                if self.totals[slot as usize] <= best {
                    break; // descending totals: no later histogram can win
                }
                best = best.max(self.q_sum(slot, q));
            }
            best as usize
        }

        pub fn bound(&self, q: ProcSet) -> usize {
            self.max_q_steps(q) + 1
        }

        pub fn within_cap(&self, q: ProcSet, cap: usize) -> bool {
            assert!(cap > 0, "bound cap must be positive");
            assert!(self.decomposed_p.is_some(), "decompose a schedule first");
            let cap = cap as u64;
            for &slot in &self.uniq {
                if self.totals[slot as usize] < cap {
                    break;
                }
                if self.q_sum(slot, q) >= cap {
                    return false;
                }
            }
            true
        }

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
                    if self.within_cap(q, bound_cap) {
                        let bound = self.bound(q);
                        debug_assert!(bound <= bound_cap);
                        return Some(TimelyPair { p, q, bound });
                    }
                }
            }
            None
        }

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
                    if self.within_cap(q, bound_cap) {
                        out.push(TimelyPair {
                            p,
                            q,
                            bound: self.bound(q),
                        });
                    }
                }
            }
        }

        /// `sweep_row_ranked` over the whole row (`MatrixCell::empty` is
        /// private, so a literal stands in for it).
        pub fn sweep_row(
            &mut self,
            s: &Schedule,
            i: usize,
            js: &[usize],
            bound_cap: usize,
        ) -> Vec<MatrixCell> {
            assert!(bound_cap > 0, "bound cap must be positive");
            let mut cells: Vec<MatrixCell> = js
                .iter()
                .map(|&j| MatrixCell {
                    i,
                    j,
                    timely_pairs: 0,
                    first: None,
                    min_bound: None,
                })
                .collect();
            for p in KSubsets::new(self.universe, i) {
                self.decompose(s, p);
                for (cell, &j) in cells.iter_mut().zip(js) {
                    for q in KSubsets::new(self.universe, j) {
                        if self.within_cap(q, bound_cap) {
                            let bound = self.bound(q);
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
}

/// SplitMix64 — the generator of `analyzer_differential.rs`, so the two
/// suites draw the same schedules.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_steps(n: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut mix = Mix(seed);
    (0..len).map(|_| mix.below(n)).collect()
}

/// `analyzer_differential.rs`'s bursty family: the top half starved for
/// the middle third.
fn bursty_steps(n: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut steps = random_steps(n, len, seed);
    let third = len / 3;
    for s in steps[third..2 * third].iter_mut() {
        *s %= (n / 2).max(1);
    }
    steps
}

/// `[(p0·q)^i (p1·q)^i]` for growing `i`, with `q = p2` (Figure 1); on
/// universes too small for three processes the indices wrap.
fn figure1_steps(n: usize, len: usize) -> Vec<usize> {
    let mut steps = Vec::with_capacity(len + 64);
    let mut i = 1;
    while steps.len() < len {
        for p in [0, 1] {
            for _ in 0..i {
                steps.extend([p % n, 2 % n]);
            }
        }
        i += 1;
    }
    steps.truncate(len);
    steps
}

/// Random, then one process alone for half the schedule, then random.
fn starvation_steps(n: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut steps = random_steps(n, len, seed);
    for s in steps[len / 4..3 * len / 4].iter_mut() {
        *s = n - 1;
    }
    steps
}

/// Every 7th step moved to an index in `n..64`: a process outside the
/// universe, which a `P`-free run must neither count nor be cut by (unless
/// `P` names it).
fn with_strangers(mut steps: Vec<usize>, n: usize, seed: u64) -> Vec<usize> {
    if n < 64 {
        let mut mix = Mix(seed);
        for s in steps.iter_mut().step_by(7) {
            *s = n + mix.below(64 - n);
        }
    }
    steps
}

fn schedules(n: usize, len: usize) -> Vec<(&'static str, Schedule)> {
    let seed = 0x5EED ^ n as u64;
    let family = [
        ("random", random_steps(n, len, seed)),
        ("bursty", bursty_steps(n, len, seed ^ 0xABCD)),
        ("round-robin", (0..len).map(|i| i % n).collect()),
        ("figure1", figure1_steps(n, len)),
        ("starvation", starvation_steps(n, len, seed ^ 0x57A2)),
        (
            "strangers",
            with_strangers(random_steps(n, len, seed ^ 0x0DD), n, seed),
        ),
        ("empty", Vec::new()),
    ];
    family
        .into_iter()
        .map(|(name, steps)| (name, Schedule::from_indices(steps)))
        .collect()
}

fn mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Every subset of `Π_n` when `n ≤ 8`; otherwise `∅`, `Π_n`, the
/// singletons, and `sampled` random subsets of mixed density (plus bits
/// past `n` when there is room: members outside the universe).
fn subsets(n: usize, sampled: usize, seed: u64) -> Vec<ProcSet> {
    if n <= 8 {
        return (0..=mask(n)).map(ProcSet::from_bits).collect();
    }
    let mut mix = Mix(seed);
    let mut out = vec![ProcSet::EMPTY, ProcSet::from_bits(mask(n))];
    out.extend((0..n).map(|i| ProcSet::from_bits(1 << i)));
    out.extend((0..sampled).map(|k| {
        let bits = match k % 3 {
            0 => mix.next(),
            1 => mix.next() & mix.next(),
            _ => mix.next() & mix.next() & mix.next(),
        };
        ProcSet::from_bits(if k % 5 == 0 { bits } else { bits & mask(n) })
    }));
    out
}

/// Both analyzers over one schedule: every listed `P`, and for the `k`-th
/// of them `per_p` of the listed `Q` (from the `k · per_p`-th on,
/// wrapping; all of them when `per_p = qs.len()`) at every cap in
/// `1..=2n+2`.
fn hold_queries(n: usize, name: &str, s: &Schedule, ps: &[ProcSet], qs: &[ProcSet], per_p: usize) {
    let universe = Universe::new(n).unwrap();
    let mut engine = TimelinessAnalyzer::new(universe);
    let mut oracle = reference::Analyzer::new(universe);
    for (k, &p) in ps.iter().enumerate() {
        engine.decompose(s, p);
        oracle.decompose(s, p);
        let at = format!("n={n} {name} p={p}");
        assert_eq!(engine.decomposed_p(), Some(p), "{at}");
        assert_eq!(engine.runs(), oracle.runs(), "runs {at}");
        assert_eq!(engine.raw_runs(), oracle.raw_runs(), "raw_runs {at}");
        assert_eq!(engine.raw_runs(), oracle.multiplicity_sum(), "{at}");
        for t in 0..per_p {
            let q = qs[(k * per_p + t) % qs.len()];
            assert_eq!(engine.bound(q), oracle.bound(q), "bound {at} q={q}");
            assert_eq!(engine.max_q_steps(q), oracle.max_q_steps(q), "{at} q={q}");
            for cap in 1..=2 * n + 2 {
                assert_eq!(
                    engine.within_cap(q, cap),
                    oracle.within_cap(q, cap),
                    "within_cap {at} q={q} cap={cap}"
                );
            }
        }
    }
}

/// The three sweep loops against the replaced ones, on every `(i, j)` of
/// `rows × cols`, at caps that accept nothing, some and everything.
fn hold_sweeps(n: usize, name: &str, s: &Schedule, rows: &[usize], cols: &[usize]) {
    let universe = Universe::new(n).unwrap();
    let mut engine = TimelinessAnalyzer::new(universe);
    let mut oracle = reference::Analyzer::new(universe);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for cap in [1, 2, 3, n + 1, 2 * n, s.len() + 1] {
        for &i in rows {
            for &j in cols {
                let at = format!("n={n} {name} i={i} j={j} cap={cap}");
                got.clear();
                want.clear();
                engine.all_timely_pairs_into(s, i, j, cap, &mut got);
                oracle.all_timely_pairs_into(s, i, j, cap, &mut want);
                assert_eq!(got, want, "all_timely_pairs {at}");
                assert_eq!(
                    engine.find_timely_pair(s, i, j, cap),
                    oracle.find_timely_pair(s, i, j, cap),
                    "find_timely_pair {at}"
                );
            }
            assert_eq!(
                engine.sweep_row(s, i, cols, cap),
                oracle.sweep_row(s, i, cols, cap),
                "sweep_row n={n} {name} i={i} cap={cap}"
            );
        }
    }
}

#[test]
fn small_universes_every_p_every_q() {
    for n in [1, 2, 3, 7] {
        let all = subsets(n, 0, 0);
        let sizes: Vec<usize> = (0..=n).collect();
        for (name, s) in schedules(n, 500) {
            hold_queries(n, name, &s, &all, &all, all.len());
            hold_sweeps(n, name, &s.prefix(200), &sizes, &sizes);
        }
    }
}

#[test]
fn twelve_processes_every_p() {
    let n = 12;
    let every_p: Vec<ProcSet> = (0..=mask(n)).map(ProcSet::from_bits).collect();
    let qs = subsets(n, 500, 0x0012);
    for (name, s) in schedules(n, 300) {
        // Each P meets 4 of the Q, each Q about 33 of the P.
        hold_queries(n, name, &s, &every_p, &qs, 4);
        hold_sweeps(n, name, &s.prefix(200), &[1, 2], &[1, 3]);
    }
}

#[test]
fn sixty_four_processes_sampled() {
    let n = 64;
    let ps = subsets(n, 60, 0x0064);
    let qs = subsets(n, 500, 0x4064);
    for (name, s) in schedules(n, 2_000) {
        hold_queries(n, name, &s, &ps, &qs, 16);
        hold_sweeps(n, name, &s.prefix(500), &[1], &[1]);
    }
}

/// A long schedule whose runs are mostly repeats: deduplication carries
/// the queries, and the table sees many closes per distinct histogram.
#[test]
fn long_periodic_and_burst_schedules() {
    for n in [3, 12] {
        let universe = Universe::new(n).unwrap();
        let qs = subsets(n, 100, 0x1096);
        let mut steps: Vec<usize> = (0..30_000).map(|i| i % n).collect();
        steps.extend(std::iter::repeat_n(0, 5_000));
        steps.extend(random_steps(n, 5_000, 77));
        let s = Schedule::from_indices(steps);
        let ps: Vec<ProcSet> = KSubsets::new(universe, 1)
            .chain(KSubsets::new(universe, 2))
            .chain([ProcSet::EMPTY, ProcSet::full(universe)])
            .collect();
        hold_queries(n, "periodic+burst", &s, &ps, &qs, qs.len());
    }
}

/// A step index at or past 64 panics exactly as `ProcSet::contains` does —
/// wherever it sits, whatever `P` is.
#[test]
fn an_index_past_the_bitset_capacity_panics_like_contains() {
    let cases = [
        (12, vec![0, 1, 64, 2], ProcSet::from_bits(1)),
        (12, vec![64], ProcSet::EMPTY),
        (64, vec![3, 3, 3, 100], ProcSet::from_bits(u64::MAX)),
        (100, vec![70, 1], ProcSet::from_bits(2)),
    ];
    for (n, steps, p) in cases {
        let s = Schedule::from_indices(steps);
        let universe = Universe::new(n).unwrap();
        let message = |f: &mut dyn FnMut()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let want = message(&mut || reference::Analyzer::new(universe).decompose(&s, p));
        let got = message(&mut || TimelinessAnalyzer::new(universe).decompose(&s, p));
        assert!(want.contains("exceeds the bitset capacity"), "{want}");
        assert_eq!(got, want, "n={n} p={p}");
    }
}

#[test]
#[should_panic(expected = "process index 64 exceeds the bitset capacity (64)")]
fn decomposing_a_step_past_the_bitset_capacity_panics() {
    let s = Schedule::from_indices([1, 2, 64]);
    TimelinessAnalyzer::new(Universe::new(12).unwrap()).decompose(&s, ProcSet::from_bits(1));
}

/// No run to record: the empty schedule, a schedule `P` takes every step
/// of, and one with only out-of-universe steps.
#[test]
fn nothing_to_decompose() {
    let universe = Universe::new(7).unwrap();
    let everyone = ProcSet::full(universe);
    let mut az = TimelinessAnalyzer::new(universe);
    let cases = [
        (Schedule::new(), ProcSet::EMPTY),
        (Schedule::from_indices([0, 1, 0]), ProcSet::from_bits(3)),
        (Schedule::from_indices([9, 10, 63]), ProcSet::EMPTY),
    ];
    for (s, p) in cases {
        az.decompose(&s, p);
        assert_eq!((az.runs(), az.raw_runs()), (0, 0), "{s:?} p={p}");
        assert_eq!(az.bound(everyone), 1);
        assert!((1..=16).all(|cap| az.within_cap(everyone, cap)));
        let found = az.find_timely_pair(&s, 1, 1, 1);
        assert_eq!(found.map(|pair: TimelyPair| pair.bound), Some(1));
    }
}
