//! Differential properties for the width-generic bitset: on shared ground
//! (universes of n ≤ 64 processes) a `WideProcSet<2>` (and `<4>`) must be
//! observable-for-observable identical to the classic one-word `ProcSet`,
//! including the colexicographic enumeration order of `Π^k_n` — plus
//! deterministic boundary checks at n = 64, 65, and 128 where the single
//! word ends and the multi-word representation takes over.

use proptest::prelude::*;
use st_core::subsets::{binomial, k_subsets, rank, unrank, wide_k_subsets, wide_unrank};
use st_core::{ProcSet, ProcessId, Universe, WideProcSet};

/// Mirrors a one-word bitmask into a `W`-word set (high words zero).
fn widen<const W: usize>(bits: u64) -> WideProcSet<W> {
    ProcSet::from_bits(bits).iter().collect()
}

/// Every observable of the wide set, compared against the narrow one.
fn assert_same_observables<const W: usize>(n: usize, narrow: ProcSet, wide: WideProcSet<W>) {
    let universe = Universe::new(n).unwrap();
    assert_eq!(narrow.len(), wide.len());
    assert_eq!(narrow.is_empty(), wide.is_empty());
    assert_eq!(narrow.min(), wide.min());
    assert_eq!(narrow.max(), wide.max());
    for i in 0..n {
        let p = ProcessId::new(i);
        assert_eq!(narrow.contains(p), wide.contains(p), "contains p{i}");
        assert_eq!(narrow.nth(i), wide.nth(i), "nth({i})");
    }
    let narrow_members: Vec<usize> = narrow.iter().map(|p| p.index()).collect();
    let wide_members: Vec<usize> = wide.iter().map(|p| p.index()).collect();
    assert_eq!(narrow_members, wide_members, "iteration order");
    assert_eq!(
        narrow
            .complement(universe)
            .iter()
            .map(|p| p.index())
            .collect::<Vec<_>>(),
        wide.complement(universe)
            .iter()
            .map(|p| p.index())
            .collect::<Vec<_>>(),
        "complement"
    );
    assert_eq!(narrow.to_string(), wide.to_string(), "display rendering");
}

proptest! {
    /// Random pairs of sets in a random shared-ground universe: every set
    /// operation commutes with widening, at widths 2 and 4.
    #[test]
    fn wide_ops_replay_procset(
        n in 1usize..=64,
        a_seed in any::<u64>(),
        b_seed in any::<u64>(),
        idx_seed in 0usize..64,
    ) {
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let (a, b) = (a_seed & mask, b_seed & mask);
        let idx = idx_seed % n;
        let p = ProcessId::new(idx);

        let (na, nb) = (ProcSet::from_bits(a), ProcSet::from_bits(b));
        let (wa, wb) = (widen::<2>(a), widen::<2>(b));

        assert_same_observables(n, na, wa);
        assert_same_observables(n, na.union(nb), wa.union(wb));
        assert_same_observables(n, na.intersection(nb), wa.intersection(wb));
        assert_same_observables(n, na.difference(nb), wa.difference(wb));
        assert_same_observables(n, na.with(p), wa.with(p));
        assert_same_observables(n, na.without(p), wa.without(p));
        prop_assert_eq!(na.is_subset(nb), wa.is_subset(wb));
        prop_assert_eq!(na.is_disjoint(nb), wa.is_disjoint(wb));
        // Total order: with zero high words, the MSW-first comparison must
        // degenerate to the one-word bitmask order.
        prop_assert_eq!(na.cmp(&nb), wa.cmp(&wb));

        let (mut na_mut, mut wa_mut) = (na, wa);
        na_mut.insert(p);
        wa_mut.insert(p);
        assert_same_observables(n, na_mut, wa_mut);
        assert_same_observables(n, na_mut.without(p), wa_mut.without(p));

        // Width 4 behaves exactly like width 2.
        assert_same_observables(n, na.union(nb), widen::<4>(a).union(widen::<4>(b)));
        assert_same_observables(n, na.difference(nb), widen::<4>(a).difference(widen::<4>(b)));
    }

    /// `Π^k_n` enumeration: the wide colex walk visits the same sets in the
    /// same rank order as the classic one, and rank/unrank agree both ways.
    #[test]
    fn wide_subsets_share_rank_order(n in 1usize..=10, k_seed in 1usize..=10) {
        let k = 1 + k_seed % n;
        prop_assume!(k <= n);
        let universe = Universe::new(n).unwrap();
        let narrow = k_subsets(universe, k);
        let wide = wide_k_subsets::<2>(universe, k);
        prop_assert_eq!(narrow.len() as u64, binomial(n, k));
        prop_assert_eq!(narrow.len(), wide.len());
        for (r, (ns, ws)) in narrow.iter().zip(&wide).enumerate() {
            let ns_members: Vec<usize> = ns.iter().map(|p| p.index()).collect();
            let ws_members: Vec<usize> = ws.iter().map(|p| p.index()).collect();
            prop_assert_eq!(ns_members, ws_members, "rank {} set diverged", r);
            prop_assert_eq!(rank(*ns), r as u64);
            prop_assert_eq!(unrank(universe, k, r as u64), *ns);
            prop_assert_eq!(wide_unrank::<2>(universe, k, r as u64), *ws);
        }
    }
}

/// n = 64: the last shared-ground size. The full universe saturates the
/// single word on both representations.
#[test]
fn boundary_n64_full_word() {
    let universe = Universe::new(64).unwrap();
    let narrow = ProcSet::full(universe);
    let wide = WideProcSet::<2>::full(universe);
    assert_eq!(narrow.bits(), u64::MAX);
    assert_eq!(wide.words(), [u64::MAX, 0]);
    assert_same_observables(64, narrow, wide);
    assert!(wide.complement(universe).is_empty());
    assert_eq!(wide.max(), Some(ProcessId::new(63)));
}

/// n = 65: the first process past the wall lands in word 1, bit 0.
#[test]
fn boundary_n65_crosses_the_word() {
    let universe = Universe::new(65).unwrap();
    let p64 = ProcessId::new(64);
    let set = WideProcSet::<2>::singleton(p64);
    assert_eq!(set.words(), [0, 1]);
    assert_eq!((set.len(), set.min(), set.max()), (1, Some(p64), Some(p64)));
    assert!(set.contains(p64));

    let full = WideProcSet::<2>::full(universe);
    assert_eq!(full.words(), [u64::MAX, 1]);
    assert_eq!(full.len(), 65);
    assert_eq!(full.complement(universe), WideProcSet::EMPTY);
    assert_eq!(set.complement(universe).len(), 64);

    // MSW-first order: any set containing p64 outranks every one-word set.
    let low_full = widen::<2>(u64::MAX);
    assert!(set > low_full);

    assert!(set.without(p64).is_empty());
    let members: Vec<usize> = full.iter().map(|p| p.index()).collect();
    assert_eq!(members, (0..65).collect::<Vec<_>>());
}

/// n = 128: two full words — the capacity edge of `WideProcSet<2>`.
#[test]
fn boundary_n128_capacity_edge() {
    assert_eq!(WideProcSet::<2>::CAPACITY, 128);
    let universe = Universe::new(128).unwrap();
    let full = WideProcSet::<2>::full(universe);
    assert_eq!(full.words(), [u64::MAX, u64::MAX]);
    assert_eq!(full.len(), 128);
    assert_eq!(full.max(), Some(ProcessId::new(127)));
    assert!(full.complement(universe).is_empty());

    let evens = WideProcSet::<2>::from_indices((0..128).step_by(2));
    let odds = evens.complement(universe);
    assert_eq!((evens.len(), odds.len()), (64, 64));
    assert!(evens.is_disjoint(odds));
    assert_eq!(evens.union(odds), full);
    assert!(evens.intersection(odds).is_empty());
    assert_eq!(evens.nth(32), Some(ProcessId::new(64)));

    // Π^1_128 unranks its last rank to the widest member.
    let top = WideProcSet::<2>::singleton(ProcessId::new(127));
    assert_eq!(wide_unrank::<2>(universe, 1, 127), top);
}
