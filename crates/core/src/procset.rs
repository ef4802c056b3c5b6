//! Sets of processes, represented as multi-word bitsets.
//!
//! Set timeliness (Definition 1 of the paper) compares *sets* of processes,
//! and the Figure 2 algorithm enumerates `Π^k_n` — all subsets of size `k` —
//! so set operations must be cheap. A [`WideProcSet<W>`] packs membership
//! into `W` machine words, which also gives us the "arbitrary total order on
//! `Π^k_n`" the paper uses for tie-breaking (we order by the bitset value,
//! most significant word first; see [`WideProcSet::cmp`]).
//!
//! [`ProcSet`] is the single-word (`W = 1`, `n ≤ 64`) specialization that
//! the small-universe protocol and analysis code uses; it keeps the raw
//! `u64` accessors ([`ProcSet::bits`] / [`ProcSet::from_bits`]) and the
//! codegen of a plain `u64` bitmask. Universes beyond 64 processes pick a
//! wider `W` via [`words_for`] and run the same API.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Sub};

use crate::process::{ProcessId, Universe};

/// Number of 64-bit words a bitset needs to cover a universe of `n`
/// processes. This is the value dispatch code matches on when choosing a
/// concrete `W` for [`WideProcSet`].
///
/// # Examples
///
/// ```
/// use st_core::procset::words_for;
///
/// assert_eq!(words_for(1), 1);
/// assert_eq!(words_for(64), 1);
/// assert_eq!(words_for(65), 2);
/// assert_eq!(words_for(256), 4);
/// ```
pub fn words_for(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

/// A set of processes drawn from `Π_n` (`n ≤ 64·W`), stored as a `W`-word
/// bitmask.
///
/// Bit `i % 64` of word `i / 64` set means process `p_i` is a member. The
/// type carries the full set API at every width — membership, algebra,
/// popcount, a total order for `Π^k_n` tie-breaking, iteration — and
/// [`ProcSet`] (`W = 1`) is the specialization the `n ≤ 64` regime uses,
/// keeping its current single-`u64` codegen. Every membership operation
/// asserts its index is below [`Self::CAPACITY`].
///
/// # Examples
///
/// ```
/// use st_core::{ProcessId, WideProcSet};
///
/// let p = WideProcSet::<2>::from_indices([0, 100]);
/// assert!(p.contains(ProcessId::new(100)));
/// assert!(!p.contains(ProcessId::new(1)));
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.to_string(), "{p0,p100}");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct WideProcSet<const W: usize>([u64; W]);

/// A set of processes drawn from `Π_n` (`n ≤ 64`), stored as a single
/// `u64` bitmask — the `W = 1` specialization of [`WideProcSet`].
///
/// With universes allowed to exceed 64 processes (see
/// [`MAX_PROCESSES`](crate::MAX_PROCESSES)), `ProcSet` remains the *set
/// analysis* type of the small-universe regime: every membership operation
/// asserts its index is below [`PROCSET_CAPACITY`](crate::PROCSET_CAPACITY),
/// and large-n protocol code either tracks processes by plain index or uses
/// a wider [`WideProcSet`].
///
/// # Examples
///
/// ```
/// use st_core::{ProcSet, ProcessId};
///
/// let p = ProcSet::from_indices([0, 2]);
/// assert!(p.contains(ProcessId::new(0)));
/// assert!(!p.contains(ProcessId::new(1)));
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.to_string(), "{p0,p2}");
/// ```
pub type ProcSet = WideProcSet<1>;

impl ProcSet {
    /// Creates a set from a raw bitmask (bit `i` ⇒ process `i`).
    pub fn from_bits(bits: u64) -> Self {
        WideProcSet([bits])
    }

    /// Returns the raw bitmask.
    pub fn bits(self) -> u64 {
        self.0[0]
    }
}

impl<const W: usize> WideProcSet<W> {
    /// The empty set.
    pub const EMPTY: Self = WideProcSet([0; W]);

    /// Largest process index this width can represent, plus one. Equals
    /// [`PROCSET_CAPACITY`](crate::PROCSET_CAPACITY) for `W = 1`.
    pub const CAPACITY: usize = 64 * W;

    /// Returns the raw words.
    pub fn words(self) -> [u64; W] {
        self.0
    }

    /// Creates a singleton set `{p}`.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= Self::CAPACITY`.
    pub fn singleton(p: ProcessId) -> Self {
        let (w, b) = Self::bit(p);
        let mut words = [0u64; W];
        words[w] = 1u64 << b;
        WideProcSet(words)
    }

    /// Bounds-checks a process index against the bitset capacity and splits
    /// it into a (word, bit) address. Every membership operation funnels
    /// through this: an out-of-capacity index would otherwise be an
    /// out-of-bounds word access or a masked shift (silently wrong
    /// membership).
    #[inline]
    fn bit(p: ProcessId) -> (usize, u32) {
        let i = p.index();
        assert!(
            i < Self::CAPACITY,
            "process index {i} exceeds the bitset capacity ({cap}); \
             universes beyond {cap} processes need a wider WideProcSet",
            cap = Self::CAPACITY,
        );
        (i / 64, (i % 64) as u32)
    }

    /// Creates a set from an iterator of process indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= Self::CAPACITY`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut words = [0u64; W];
        for i in indices {
            assert!(i < Self::CAPACITY, "process index {i} out of range");
            words[i / 64] |= 1u64 << (i % 64);
        }
        WideProcSet(words)
    }

    /// The full set `Π_n` for a universe of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::CAPACITY` (the bitset capacity at this width;
    /// larger universes need a wider `W`).
    pub fn full(universe: Universe) -> Self {
        let n = universe.n();
        assert!(
            n <= Self::CAPACITY,
            "Π_{n} exceeds the bitset capacity ({cap})",
            cap = Self::CAPACITY,
        );
        let mut words = [0u64; W];
        for (w, word) in words.iter_mut().enumerate() {
            let filled = n.saturating_sub(w * 64).min(64);
            *word = match filled {
                0 => 0,
                64 => u64::MAX,
                f => (1u64 << f) - 1,
            };
        }
        WideProcSet(words)
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no members.
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= Self::CAPACITY` (as for every membership
    /// operation).
    pub fn contains(self, p: ProcessId) -> bool {
        let (w, b) = Self::bit(p);
        self.0[w] & (1u64 << b) != 0
    }

    /// Returns a copy with `p` inserted.
    pub fn with(self, p: ProcessId) -> Self {
        let (w, b) = Self::bit(p);
        let mut words = self.0;
        words[w] |= 1u64 << b;
        WideProcSet(words)
    }

    /// Returns a copy with `p` removed.
    pub fn without(self, p: ProcessId) -> Self {
        let (w, b) = Self::bit(p);
        let mut words = self.0;
        words[w] &= !(1u64 << b);
        WideProcSet(words)
    }

    /// Inserts `p` in place; returns whether the set changed.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let (w, b) = Self::bit(p);
        let before = self.0[w];
        self.0[w] |= 1u64 << b;
        self.0[w] != before
    }

    /// Set union.
    pub fn union(self, other: Self) -> Self {
        let mut words = self.0;
        for (w, o) in words.iter_mut().zip(other.0) {
            *w |= o;
        }
        WideProcSet(words)
    }

    /// Set intersection.
    pub fn intersection(self, other: Self) -> Self {
        let mut words = self.0;
        for (w, o) in words.iter_mut().zip(other.0) {
            *w &= o;
        }
        WideProcSet(words)
    }

    /// Set difference `self \ other`.
    pub fn difference(self, other: Self) -> Self {
        let mut words = self.0;
        for (w, o) in words.iter_mut().zip(other.0) {
            *w &= !o;
        }
        WideProcSet(words)
    }

    /// Complement within the universe `Π_n`.
    pub fn complement(self, universe: Universe) -> Self {
        let mut words = self.0;
        for w in words.iter_mut() {
            *w = !*w;
        }
        WideProcSet(words).intersection(Self::full(universe))
    }

    /// Subset test: `self ⊆ other`.
    pub fn is_subset(self, other: Self) -> bool {
        self.0.iter().zip(other.0).all(|(&w, o)| w & !o == 0)
    }

    /// Disjointness test.
    pub fn is_disjoint(self, other: Self) -> bool {
        self.0.iter().zip(other.0).all(|(&w, o)| w & o == 0)
    }

    /// Smallest member, if any.
    pub fn min(self) -> Option<ProcessId> {
        for (w, &word) in self.0.iter().enumerate() {
            if word != 0 {
                return Some(ProcessId::new(w * 64 + word.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Largest member, if any.
    pub fn max(self) -> Option<ProcessId> {
        for (w, &word) in self.0.iter().enumerate().rev() {
            if word != 0 {
                return Some(ProcessId::new(w * 64 + 63 - word.leading_zeros() as usize));
            }
        }
        None
    }

    /// The `r`-th smallest member (zero-based rank), if it exists.
    ///
    /// This is the selection rule used by the k-parallel-Paxos construction:
    /// instance `r` is led by `winnerset.nth(r)`.
    pub fn nth(self, r: usize) -> Option<ProcessId> {
        self.iter().nth(r)
    }

    /// Iterates over members in increasing index order.
    pub fn iter(self) -> Iter<W> {
        Iter {
            words: self.0,
            word: 0,
        }
    }

    /// Collects members into a vector, in increasing index order.
    pub fn to_vec(self) -> Vec<ProcessId> {
        self.iter().collect()
    }
}

impl<const W: usize> Default for WideProcSet<W> {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<const W: usize> Ord for WideProcSet<W> {
    /// Total order by bitset value, most significant word first. For
    /// `W = 1` this is the plain `u64` order the Figure 2 tie-breaking has
    /// always used; wider widths extend it consistently (within a fixed
    /// popcount it is colexicographic order on member lists at every `W`).
    fn cmp(&self, other: &Self) -> Ordering {
        for w in (0..W).rev() {
            match self.0[w].cmp(&other.0[w]) {
                Ordering::Equal => continue,
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }
}

impl<const W: usize> PartialOrd for WideProcSet<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Iterator over the members of a [`WideProcSet`], in increasing index
/// order.
#[derive(Clone, Debug)]
pub struct Iter<const W: usize> {
    words: [u64; W],
    word: usize,
}

impl<const W: usize> Iterator for Iter<W> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        while self.word < W {
            let bits = self.words[self.word];
            if bits == 0 {
                self.word += 1;
                continue;
            }
            let idx = bits.trailing_zeros() as usize;
            self.words[self.word] &= bits - 1;
            return Some(ProcessId::new(self.word * 64 + idx));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let c = self.words[self.word..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (c, Some(c))
    }
}

impl<const W: usize> ExactSizeIterator for Iter<W> {}

impl<const W: usize> IntoIterator for WideProcSet<W> {
    type Item = ProcessId;
    type IntoIter = Iter<W>;

    fn into_iter(self) -> Iter<W> {
        self.iter()
    }
}

impl<const W: usize> FromIterator<ProcessId> for WideProcSet<W> {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = Self::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl<const W: usize> Extend<ProcessId> for WideProcSet<W> {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl<const W: usize> BitOr for WideProcSet<W> {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl<const W: usize> BitAnd for WideProcSet<W> {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(rhs)
    }
}

impl<const W: usize> BitXor for WideProcSet<W> {
    type Output = Self;
    fn bitxor(self, rhs: Self) -> Self {
        let mut words = self.0;
        for (w, o) in words.iter_mut().zip(rhs.0) {
            *w ^= o;
        }
        WideProcSet(words)
    }
}

impl<const W: usize> Sub for WideProcSet<W> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl<const W: usize> fmt::Debug for WideProcSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if W == 1 {
            write!(f, "ProcSet")?;
        } else {
            write!(f, "WideProcSet<{W}>")?;
        }
        fmt::Display::fmt(self, f)
    }
}

impl<const W: usize> fmt::Display for WideProcSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    #[test]
    fn basic_membership() {
        let s = ProcSet::from_indices([1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(ProcessId::new(3)));
        assert!(!s.contains(ProcessId::new(2)));
        assert!(!s.is_empty());
        assert!(ProcSet::EMPTY.is_empty());
    }

    #[test]
    fn insert_remove() {
        let mut s = ProcSet::EMPTY;
        assert!(s.insert(ProcessId::new(7)));
        assert!(!s.insert(ProcessId::new(7)));
        assert!(s.without(ProcessId::new(7)).is_empty());
    }

    #[test]
    fn with_without_are_pure() {
        let s = ProcSet::from_indices([0]);
        let t = s.with(ProcessId::new(1));
        assert_eq!(s.len(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.without(ProcessId::new(0)), ProcSet::from_indices([1]));
    }

    #[test]
    fn set_algebra() {
        let a = ProcSet::from_indices([0, 1, 2]);
        let b = ProcSet::from_indices([2, 3]);
        assert_eq!(a.union(b), ProcSet::from_indices([0, 1, 2, 3]));
        assert_eq!(a.intersection(b), ProcSet::from_indices([2]));
        assert_eq!(a.difference(b), ProcSet::from_indices([0, 1]));
        assert_eq!(a | b, a.union(b));
        assert_eq!(a & b, a.intersection(b));
        assert_eq!(a - b, a.difference(b));
        assert_eq!(a ^ b, ProcSet::from_indices([0, 1, 3]));
    }

    #[test]
    fn complement_in_universe() {
        let a = ProcSet::from_indices([0, 2]);
        assert_eq!(a.complement(u(4)), ProcSet::from_indices([1, 3]));
        assert_eq!(ProcSet::EMPTY.complement(u(3)), ProcSet::full(u(3)));
    }

    #[test]
    fn full_set_of_64() {
        let s = ProcSet::full(u(64));
        assert_eq!(s.len(), 64);
        assert_eq!(s.complement(u(64)), ProcSet::EMPTY);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = ProcSet::from_indices([1, 2]);
        let b = ProcSet::from_indices([0, 1, 2, 3]);
        assert!(a.is_subset(b));
        assert!(!b.is_subset(a));
        assert!(ProcSet::EMPTY.is_subset(a));
        assert!(a.is_disjoint(ProcSet::from_indices([0, 3])));
        assert!(!a.is_disjoint(b));
    }

    #[test]
    fn min_max_nth() {
        let s = ProcSet::from_indices([5, 9, 17]);
        assert_eq!(s.min(), Some(ProcessId::new(5)));
        assert_eq!(s.max(), Some(ProcessId::new(17)));
        assert_eq!(s.nth(0), Some(ProcessId::new(5)));
        assert_eq!(s.nth(1), Some(ProcessId::new(9)));
        assert_eq!(s.nth(2), Some(ProcessId::new(17)));
        assert_eq!(s.nth(3), None);
        assert_eq!(ProcSet::EMPTY.min(), None);
        assert_eq!(ProcSet::EMPTY.max(), None);
    }

    #[test]
    fn iter_in_order() {
        let s = ProcSet::from_indices([3, 0, 11]);
        let v: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 3, 11]);
        let rebuilt: ProcSet = s.iter().collect();
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn display_form() {
        assert_eq!(ProcSet::EMPTY.to_string(), "{}");
        assert_eq!(ProcSet::from_indices([0, 2]).to_string(), "{p0,p2}");
        assert_eq!(format!("{:?}", ProcSet::from_indices([1])), "ProcSet{p1}");
    }

    #[test]
    fn total_order_is_consistent() {
        // The order used for tie-breaking in Figure 2 (any total order works;
        // ours is by bitmask value).
        let a = ProcSet::from_indices([0]);
        let b = ProcSet::from_indices([1]);
        let c = ProcSet::from_indices([0, 1]);
        assert!(a < b && b < c);
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 1);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(63), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
        assert_eq!(words_for(1024), 16);
    }

    #[test]
    fn wide_membership_across_words() {
        let s = WideProcSet::<2>::from_indices([0, 63, 64, 100, 127]);
        assert_eq!(s.len(), 5);
        assert!(s.contains(ProcessId::new(64)));
        assert!(s.contains(ProcessId::new(127)));
        assert!(!s.contains(ProcessId::new(65)));
        assert_eq!(s.min(), Some(ProcessId::new(0)));
        assert_eq!(s.max(), Some(ProcessId::new(127)));
        assert_eq!(s.nth(2), Some(ProcessId::new(64)));
        let v: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 63, 64, 100, 127]);
    }

    #[test]
    fn wide_full_and_complement() {
        let universe = u(100);
        let full = WideProcSet::<2>::full(universe);
        assert_eq!(full.len(), 100);
        assert_eq!(full.max(), Some(ProcessId::new(99)));
        let a = WideProcSet::<2>::from_indices([0, 99]);
        let c = a.complement(universe);
        assert_eq!(c.len(), 98);
        assert!(c.is_disjoint(a));
        assert_eq!(c.union(a), full);
        // Word-aligned universes fill whole words exactly.
        assert_eq!(WideProcSet::<2>::full(u(128)).len(), 128);
        assert_eq!(WideProcSet::<4>::full(u(256)).len(), 256);
    }

    #[test]
    fn wide_order_is_most_significant_word_first() {
        // {p64} > {p0..p63}: the higher word dominates, exactly as a wide
        // integer compare would — consistent with the W = 1 u64 order.
        let low = WideProcSet::<2>::full(u(64));
        let high = WideProcSet::<2>::from_indices([64]);
        assert!(low < high);
        let a = WideProcSet::<2>::from_indices([64, 0]);
        let b = WideProcSet::<2>::from_indices([64, 1]);
        assert!(a < b);
    }

    #[test]
    fn wide_debug_display() {
        let s = WideProcSet::<2>::from_indices([1, 64]);
        assert_eq!(s.to_string(), "{p1,p64}");
        assert_eq!(format!("{s:?}"), "WideProcSet<2>{p1,p64}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wide_capacity_is_enforced() {
        let _ = WideProcSet::<2>::from_indices([128]);
    }

    #[test]
    fn words_roundtrip() {
        let s = WideProcSet::<3>::from_indices([5, 70, 130]);
        // Bit `i % 64` of word `i / 64` is process `i`.
        assert_eq!(s.words(), [1 << 5, 1 << 6, 1 << 2]);
        assert_eq!(ProcSet::from_bits(0b101).words(), [0b101]);
    }
}
