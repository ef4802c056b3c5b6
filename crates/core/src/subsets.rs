//! Enumeration of `Π^k_n` — all size-`k` subsets of the process universe.
//!
//! The Figure 2 algorithm keeps a timer and a shared counter row per set
//! `A ∈ Π^k_n`, so we need a deterministic enumeration with ranking and
//! unranking (sets are addressed by rank in register arrays). Enumeration is
//! in *colexicographic bitmask order* (ascending `u64` value), produced with
//! Gosper's hack; ranking uses the combinatorial number system.

use crate::process::Universe;
use crate::procset::{ProcSet, WideProcSet};

/// Binomial coefficient `C(n, k)` computed without overflow for the sizes used
/// here (`n ≤ 64`); saturates at `u64::MAX` if the true value would overflow.
///
/// # Examples
///
/// ```
/// use st_core::subsets::binomial;
///
/// assert_eq!(binomial(5, 2), 10);
/// assert_eq!(binomial(6, 0), 1);
/// assert_eq!(binomial(4, 5), 0);
/// ```
pub fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Iterator over all size-`k` subsets of `Π_n`, in ascending bitmask order.
///
/// This order coincides with the "arbitrary total order on `Π^k_n`" used for
/// tie-breaking in Figure 2 (see [`ProcSet`]'s `Ord`).
#[derive(Clone, Debug)]
pub struct KSubsets {
    n: usize,
    current: Option<u64>,
    limit: u64,
}

impl KSubsets {
    /// Creates the iterator over `Π^k_n`.
    ///
    /// For `k == 0` the iterator yields exactly the empty set; for `k > n` it
    /// is empty.
    pub fn new(universe: Universe, k: usize) -> Self {
        let n = universe.n();
        let limit = if n == 64 { u64::MAX } else { 1u64 << n };
        let current = if k > n {
            None
        } else if k == 0 {
            Some(0)
        } else {
            // `u64::MAX >> (64 - k)` is the lowest k-bit mask; the plain
            // `(1u64 << k) - 1` overflows for the full set Π^64_64.
            Some(u64::MAX >> (64 - k))
        };
        KSubsets { n, current, limit }
    }

    /// Creates the iterator over `Π^k_n` starting at the subset of the given
    /// rank — the tail of the enumeration a chunked (e.g. multi-threaded)
    /// sweep hands to one worker. `starting_at_rank(u, k, 0)` equals
    /// `new(u, k)`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= C(n, k)` (via [`unrank`]) — except `rank == 0`,
    /// which is always valid and yields the empty iterator when `k > n`.
    pub fn starting_at_rank(universe: Universe, k: usize, rank: u64) -> Self {
        if rank == 0 {
            return KSubsets::new(universe, k);
        }
        let n = universe.n();
        let limit = if n == 64 { u64::MAX } else { 1u64 << n };
        KSubsets {
            n,
            current: Some(unrank(universe, k, rank).bits()),
            limit,
        }
    }
}

impl Iterator for KSubsets {
    type Item = ProcSet;

    fn next(&mut self) -> Option<ProcSet> {
        let v = self.current?;
        // Advance with Gosper's hack to the next bitmask with the same
        // population count.
        self.current = if v == 0 {
            None
        } else {
            let c = v & v.wrapping_neg();
            let r = v.wrapping_add(c);
            if r == 0 {
                None // overflow past 64 bits
            } else {
                let next = (((r ^ v) >> 2) / c) | r;
                // `limit` is a power of two (or MAX for n = 64); masks with a
                // set bit at or beyond position n are out of the universe.
                if self.n < 64 && next >= self.limit {
                    None
                } else {
                    Some(next)
                }
            }
        };
        Some(ProcSet::from_bits(v))
    }
}

/// Enumerates `Π^k_n` into a vector, in ascending bitmask order.
///
/// # Examples
///
/// ```
/// use st_core::{subsets::k_subsets, Universe, ProcSet};
///
/// let u = Universe::new(4).unwrap();
/// let all = k_subsets(u, 2);
/// assert_eq!(all.len(), 6);
/// assert_eq!(all[0], ProcSet::from_indices([0, 1]));
/// ```
pub fn k_subsets(universe: Universe, k: usize) -> Vec<ProcSet> {
    KSubsets::new(universe, k).collect()
}

/// Returns the rank of `set` within the ascending-bitmask enumeration of
/// `Π^k_n`, where `k = set.len()`.
///
/// Ranks are the indices used to address per-set register rows in Figure 2.
///
/// # Examples
///
/// ```
/// use st_core::{subsets::{k_subsets, rank}, Universe};
///
/// let u = Universe::new(5).unwrap();
/// for (i, s) in k_subsets(u, 3).iter().enumerate() {
///     assert_eq!(rank(*s) as usize, i);
/// }
/// ```
pub fn rank(set: ProcSet) -> u64 {
    // Combinatorial number system: for members m_1 < m_2 < ... < m_k,
    // rank = Σ C(m_i, i). This matches ascending-bitmask order because for
    // fixed popcount, bitmask order equals colex order on member lists.
    let mut r = 0u64;
    for (i, p) in set.iter().enumerate() {
        r += binomial(p.index(), i + 1);
    }
    r
}

/// Inverse of [`rank`]: returns the `rank`-th size-`k` subset of `Π_n`.
///
/// # Panics
///
/// Panics if `rank >= C(n, k)`.
pub fn unrank(universe: Universe, k: usize, rank: u64) -> ProcSet {
    let n = universe.n();
    assert!(
        rank < binomial(n, k),
        "rank {rank} out of range for C({n},{k})"
    );
    let mut remaining = rank;
    let mut set = ProcSet::EMPTY;
    let mut kk = k;
    // Choose members from the largest down: the largest member m is the
    // greatest value with C(m, k) <= remaining.
    while kk > 0 {
        let mut m = kk - 1;
        while binomial(m + 1, kk) <= remaining {
            m += 1;
        }
        remaining -= binomial(m, kk);
        set.insert(crate::process::ProcessId::new(m));
        kk -= 1;
    }
    set
}

/// Iterator over all size-`k` subsets of `Π_n` at bitset width `W`, in the
/// same colexicographic (ascending-bitmask) order as [`KSubsets`].
///
/// [`KSubsets`] stays the single-`u64` Gosper's-hack enumerator of the
/// `n ≤ 64` regime; this iterator walks the member-index list directly
/// (colex successor), which works at any width and any `n ≤ 64·W`. For
/// `W = 1` the two enumerations are element-for-element identical (a
/// standing differential test in `crates/core/tests`).
#[derive(Clone, Debug)]
pub struct WideKSubsets<const W: usize> {
    n: usize,
    /// Member indices of the current subset, strictly ascending; `None`
    /// once the enumeration is exhausted.
    current: Option<Vec<usize>>,
}

impl<const W: usize> WideKSubsets<W> {
    /// Creates the iterator over `Π^k_n`.
    ///
    /// For `k == 0` the iterator yields exactly the empty set; for `k > n`
    /// it is empty.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64·W` (the bitset capacity at this width).
    pub fn new(universe: Universe, k: usize) -> Self {
        let n = universe.n();
        assert!(
            n <= WideProcSet::<W>::CAPACITY,
            "Π^k_{n} exceeds the bitset capacity ({})",
            WideProcSet::<W>::CAPACITY,
        );
        let current = if k > n { None } else { Some((0..k).collect()) };
        WideKSubsets { n, current }
    }

    /// Creates the iterator over `Π^k_n` starting at the subset of the
    /// given rank, like [`KSubsets::starting_at_rank`].
    ///
    /// # Panics
    ///
    /// Panics if `rank >= C(n, k)` (via [`wide_unrank`]) — except
    /// `rank == 0`, which is always valid and yields the empty iterator
    /// when `k > n`.
    pub fn starting_at_rank(universe: Universe, k: usize, rank: u64) -> Self {
        if rank == 0 {
            return WideKSubsets::new(universe, k);
        }
        let start: WideProcSet<W> = wide_unrank(universe, k, rank);
        WideKSubsets {
            n: universe.n(),
            current: Some(start.iter().map(|p| p.index()).collect()),
        }
    }
}

impl<const W: usize> Iterator for WideKSubsets<W> {
    type Item = WideProcSet<W>;

    fn next(&mut self) -> Option<WideProcSet<W>> {
        let idx = self.current.as_mut()?;
        let set = WideProcSet::from_indices(idx.iter().copied());
        // Colex successor: bump the first member with headroom below its
        // successor (or below n for the last member) and reset everything
        // beneath it to the lowest positions. This visits subsets in
        // ascending-bitmask order, matching Gosper's hack for W = 1.
        let k = idx.len();
        let mut advanced = false;
        for i in 0..k {
            let ceiling = if i + 1 < k { idx[i + 1] } else { self.n };
            if idx[i] + 1 < ceiling {
                idx[i] += 1;
                for (j, slot) in idx.iter_mut().enumerate().take(i) {
                    *slot = j;
                }
                advanced = true;
                break;
            }
        }
        if !advanced {
            self.current = None;
        }
        Some(set)
    }
}

/// Enumerates `Π^k_n` at width `W` into a vector, in ascending bitmask
/// order — the wide analogue of [`k_subsets`]. The vector index of each
/// subset is its rank: [`wide_unrank`] of the index returns it.
///
/// # Examples
///
/// ```
/// use st_core::{subsets::wide_k_subsets, Universe, WideProcSet};
///
/// let u = Universe::new(100).unwrap();
/// let all: Vec<WideProcSet<2>> = wide_k_subsets(u, 1);
/// assert_eq!(all.len(), 100);
/// assert_eq!(all[99], WideProcSet::from_indices([99]));
/// ```
pub fn wide_k_subsets<const W: usize>(universe: Universe, k: usize) -> Vec<WideProcSet<W>> {
    WideKSubsets::new(universe, k).collect()
}

/// Returns the `rank`-th size-`k` subset of `Π_n` at width `W` — the wide
/// analogue of [`unrank`], and equal to it for `W = 1`.
///
/// # Panics
///
/// Panics if `rank >= C(n, k)`.
pub fn wide_unrank<const W: usize>(universe: Universe, k: usize, rank: u64) -> WideProcSet<W> {
    let n = universe.n();
    assert!(
        rank < binomial(n, k),
        "rank {rank} out of range for C({n},{k})"
    );
    let mut remaining = rank;
    let mut set = WideProcSet::EMPTY;
    let mut kk = k;
    // Choose members from the largest down: the largest member m is the
    // greatest value with C(m, k) <= remaining.
    while kk > 0 {
        let mut m = kk - 1;
        while binomial(m + 1, kk) <= remaining {
            m += 1;
        }
        remaining -= binomial(m, kk);
        set.insert(crate::process::ProcessId::new(m));
        kk -= 1;
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Universe;

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(10, 1), 10);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(52, 5), 2_598_960);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(3, 4), 0);
    }

    #[test]
    fn enumeration_counts() {
        for n in 1..=8 {
            for k in 0..=n {
                let v = k_subsets(u(n), k);
                assert_eq!(v.len() as u64, binomial(n, k), "n={n} k={k}");
                for s in &v {
                    assert_eq!(s.len(), k);
                }
            }
        }
    }

    #[test]
    fn enumeration_is_sorted_and_unique() {
        let v = k_subsets(u(7), 3);
        for w in v.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn k_zero_yields_empty_set() {
        let v = k_subsets(u(4), 0);
        assert_eq!(v, vec![ProcSet::EMPTY]);
    }

    #[test]
    fn k_equals_n_yields_full_set() {
        let v = k_subsets(u(5), 5);
        assert_eq!(v, vec![ProcSet::full(u(5))]);
    }

    #[test]
    fn k_greater_than_n_is_empty() {
        assert!(k_subsets(u(3), 4).is_empty());
    }

    #[test]
    fn rank_unrank_roundtrip() {
        for n in 1..=9 {
            for k in 1..=n {
                for (i, s) in KSubsets::new(u(n), k).enumerate() {
                    assert_eq!(rank(s), i as u64, "n={n} k={k} s={s}");
                    assert_eq!(unrank(u(n), k, i as u64), s);
                }
            }
        }
    }

    #[test]
    fn full_set_of_64_is_enumerable() {
        // Regression: k == 64 used to compute `(1u64 << 64) - 1`, a shift
        // overflow (debug panic, empty iterator in release). Π^64_64 is the
        // single full set.
        let v = k_subsets(u(64), 64);
        assert_eq!(v, vec![ProcSet::full(u(64))]);
        assert_eq!(rank(v[0]), 0);
    }

    #[test]
    fn starting_at_rank_resumes_enumeration() {
        for n in [5, 7] {
            for k in 1..=n {
                let all = k_subsets(u(n), k);
                let starts = [0u64, 1, all.len() as u64 / 2, all.len() as u64 - 1];
                for start in starts.into_iter().filter(|&r| r < all.len() as u64) {
                    let tail: Vec<ProcSet> = KSubsets::starting_at_rank(u(n), k, start).collect();
                    assert_eq!(tail, all[start as usize..], "n={n} k={k} start={start}");
                }
            }
        }
        // Rank 0 with k > n is the empty enumeration, like `new`.
        assert_eq!(KSubsets::starting_at_rank(u(3), 4, 0).count(), 0);
    }

    #[test]
    fn full_width_subsets() {
        // n = 64 exercises the overflow-guarded Gosper step.
        let mut it = KSubsets::new(u(64), 63);
        let mut count = 0;
        while it.next().is_some() {
            count += 1;
        }
        assert_eq!(count, 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_out_of_range_panics() {
        let _ = unrank(u(4), 2, 6);
    }

    #[test]
    fn wide_matches_gosper_at_w1() {
        // The wide colex-successor enumeration must be element-for-element
        // identical to the Gosper's-hack enumeration on shared ground.
        for n in 1..=8 {
            for k in 0..=n + 1 {
                let narrow = k_subsets(u(n), k);
                let wide: Vec<WideProcSet<1>> = wide_k_subsets(u(n), k);
                assert_eq!(narrow, wide, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn wide_enumeration_beyond_64() {
        let universe = u(100);
        let singles: Vec<WideProcSet<2>> = wide_k_subsets(universe, 1);
        assert_eq!(singles.len(), 100);
        assert_eq!(singles[0], WideProcSet::from_indices([0]));
        assert_eq!(singles[99], WideProcSet::from_indices([99]));

        let pairs: Vec<WideProcSet<2>> = wide_k_subsets(u(66), 2);
        assert_eq!(pairs.len() as u64, binomial(66, 2));
        for w in pairs.windows(2) {
            assert!(w[0] < w[1], "colex order must be ascending-bitmask order");
        }
    }

    #[test]
    fn wide_rank_unrank_roundtrip() {
        // The enumeration index is the rank.
        for (i, s) in WideKSubsets::<2>::new(u(66), 2).enumerate() {
            assert_eq!(wide_unrank::<2>(u(66), 2, i as u64), s);
        }
    }

    #[test]
    fn wide_starting_at_rank_resumes() {
        let all: Vec<WideProcSet<2>> = wide_k_subsets(u(70), 2);
        for start in [0u64, 1, all.len() as u64 / 2, all.len() as u64 - 1] {
            let tail: Vec<WideProcSet<2>> =
                WideKSubsets::starting_at_rank(u(70), 2, start).collect();
            assert_eq!(tail, all[start as usize..], "start={start}");
        }
        assert_eq!(WideKSubsets::<1>::starting_at_rank(u(3), 4, 0).count(), 0);
    }

    #[test]
    fn wide_k_zero_and_k_equals_n() {
        assert_eq!(wide_k_subsets::<2>(u(80), 0), vec![WideProcSet::<2>::EMPTY]);
        let full: Vec<WideProcSet<2>> = wide_k_subsets(u(80), 80);
        assert_eq!(full, vec![WideProcSet::<2>::full(u(80))]);
        assert!(wide_k_subsets::<1>(u(3), 4).is_empty());
    }
}
