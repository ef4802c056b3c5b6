//! Property-based tests for the model layer: the paper's Observations 2–5
//! checked on random schedules and sets, plus analyzer invariants.

use proptest::prelude::*;
use st_core::subsets::{binomial, k_subsets, rank, unrank};
use st_core::timeliness::{
    all_timely_pairs, empirical_bound, find_timely_pair, is_timely_with_bound,
    max_q_steps_in_p_free_interval, observation2_combine, PairBound,
};
use st_core::{ProcSet, ProcessId, Schedule, SystemSpec, Universe};

const N: usize = 6;

fn universe() -> Universe {
    Universe::new(N).unwrap()
}

prop_compose! {
    /// A random schedule over Π_N of up to 400 steps.
    fn arb_schedule()(steps in prop::collection::vec(0..N, 0..400)) -> Schedule {
        Schedule::from_indices(steps)
    }
}

prop_compose! {
    /// A random non-empty process set within Π_N.
    fn arb_set()(bits in 1u64..(1 << N)) -> ProcSet {
        ProcSet::from_bits(bits)
    }
}

proptest! {
    /// The empirical bound is the *least* valid bound: it works, and one less
    /// does not (unless it is already 1).
    #[test]
    fn empirical_bound_is_minimal(s in arb_schedule(), p in arb_set(), q in arb_set()) {
        let b = empirical_bound(&s, p, q);
        prop_assert!(is_timely_with_bound(&s, p, q, b));
        if b > 1 {
            prop_assert!(!is_timely_with_bound(&s, p, q, b - 1));
        }
    }

    /// Bounds are monotone in the prefix: extending a schedule can only grow
    /// the max P-free Q-run.
    #[test]
    fn bound_monotone_in_prefix(s in arb_schedule(), p in arb_set(), q in arb_set(), cut in 0usize..400) {
        let prefix = s.prefix(cut);
        prop_assert!(
            max_q_steps_in_p_free_interval(&prefix, p, q)
                <= max_q_steps_in_p_free_interval(&s, p, q)
        );
    }

    /// Observation 3: enlarging P or shrinking Q never increases the bound.
    #[test]
    fn observation3_monotonicity(s in arb_schedule(), p in arb_set(), q in arb_set(), extra in arb_set()) {
        let p_sup = p.union(extra);
        prop_assert!(empirical_bound(&s, p_sup, q) <= empirical_bound(&s, p, q));
        let q_sub = q.intersection(extra);
        if !q_sub.is_empty() {
            prop_assert!(empirical_bound(&s, p, q_sub) <= empirical_bound(&s, p, q));
        }
    }

    /// Observation 2: the union pair is timely with bound b1 + b2 − 1.
    #[test]
    fn observation2_union(s in arb_schedule(), p1 in arb_set(), q1 in arb_set(), p2 in arb_set(), q2 in arb_set()) {
        let a = st_core::TimelyPair { p: p1, q: q1, bound: empirical_bound(&s, p1, q1) };
        let b = st_core::TimelyPair { p: p2, q: q2, bound: empirical_bound(&s, p2, q2) };
        let c = observation2_combine(a, b);
        prop_assert!(is_timely_with_bound(&s, c.p, c.q, c.bound));
    }

    /// The online bound is the offline one on every prefix, fed a step at a
    /// time or in two blocks cut anywhere.
    #[test]
    fn pair_bound_is_empirical_bound_online(s in arb_schedule(), p in arb_set(), q in arb_set(), cut in 0usize..400) {
        let steps = s.as_slice();
        let mut by_step = PairBound::new(p, q);
        for (i, &step) in steps.iter().enumerate() {
            prop_assert_eq!(by_step.bound(), empirical_bound(&s.prefix(i), p, q));
            by_step.observe_step(step);
        }
        let (head, tail) = steps.split_at(cut.min(steps.len()));
        let mut by_block = PairBound::new(p, q);
        by_block.observe(head);
        by_block.observe(tail);
        let want = st_core::TimelyPair { p, q, bound: empirical_bound(&s, p, q) };
        prop_assert_eq!(by_step.pair(), want);
        prop_assert_eq!(by_block.pair(), want);
    }

    /// A set is timely with respect to itself with bound 1 (used in the
    /// paper to derive Observation 5).
    #[test]
    fn self_timeliness(s in arb_schedule(), p in arb_set()) {
        prop_assert_eq!(empirical_bound(&s, p, p), 1);
    }

    /// Q ⊆ P gives bound 1 (every Q-step is a P-step).
    #[test]
    fn subset_timeliness(s in arb_schedule(), p in arb_set(), q in arb_set()) {
        let q_sub = q.intersection(p);
        if !q_sub.is_empty() {
            prop_assert_eq!(empirical_bound(&s, p, q_sub), 1);
        }
    }

    /// find_timely_pair returns a pair that really passes the cap, and agrees
    /// with the exhaustive all_timely_pairs scan.
    #[test]
    fn find_pair_consistent_with_scan(s in arb_schedule(), i in 1usize..=3, j in 1usize..=3, cap in 1usize..6) {
        prop_assume!(i <= j);
        let found = find_timely_pair(&s, universe(), i, j, cap);
        let scan = all_timely_pairs(&s, universe(), i, j, cap);
        match found {
            Some(tp) => {
                prop_assert!(tp.bound <= cap);
                prop_assert!(is_timely_with_bound(&s, tp.p, tp.q, cap));
                prop_assert!(!scan.is_empty());
                prop_assert_eq!(scan[0].p, tp.p);
                prop_assert_eq!(scan[0].q, tp.q);
            }
            None => prop_assert!(scan.is_empty()),
        }
    }

    /// Every pair returned by the exhaustive scan validates.
    #[test]
    fn scan_pairs_all_validate(s in arb_schedule(), cap in 1usize..5) {
        for tp in all_timely_pairs(&s, universe(), 2, 2, cap) {
            prop_assert!(tp.bound <= cap);
            prop_assert!(is_timely_with_bound(&s, tp.p, tp.q, tp.bound));
        }
    }

    /// Ranking is a bijection on Π^k_n.
    #[test]
    fn rank_unrank_bijection(k in 1usize..=N, raw in 0u64..10_000) {
        let r = raw % binomial(N, k);
        let s = unrank(universe(), k, r);
        prop_assert_eq!(s.len(), k);
        prop_assert_eq!(rank(s), r);
    }

    /// Observation 4 via witnesses: if a schedule has an S^{i'}_{j'} witness
    /// with i' ≤ i and j' ≥ j, the same witness weakens to an S^i_j witness.
    #[test]
    fn observation4_witness_weakening(s in arb_schedule(), cap in 2usize..6) {
        let strong = SystemSpec::new(1, 3, N).unwrap();
        let weak = SystemSpec::new(2, 2, N).unwrap();
        prop_assert!(weak.contains(&strong));
        if let Some(w) = strong.witness_on_prefix(&s, cap) {
            // Weakening: grow P by one process, shrink Q by one process.
            let grown = w.p.union(ProcSet::singleton(
                w.p.complement(universe()).min().unwrap(),
            ));
            let shrunk: ProcSet = w.q.iter().take(2).collect();
            prop_assert!(is_timely_with_bound(&s, grown, shrunk, w.bound));
        }
    }

    /// Concatenation decomposes counts.
    #[test]
    fn concat_counts(a in arb_schedule(), b in arb_schedule()) {
        let c = a.concat(&b);
        prop_assert_eq!(c.len(), a.len() + b.len());
        for pidx in 0..N {
            let p = ProcessId::new(pidx);
            prop_assert_eq!(c.occurrences(p), a.occurrences(p) + b.occurrences(p));
        }
    }

    /// Subset enumeration is strictly sorted by the ProcSet total order and
    /// has exactly C(n,k) elements.
    #[test]
    fn subsets_sorted_unique(k in 0usize..=N) {
        let v = k_subsets(universe(), k);
        prop_assert_eq!(v.len() as u64, binomial(N, k));
        for w in v.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}
