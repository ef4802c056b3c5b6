//! The rotating-starvation adversary for the `i > k` impossibility side
//! (Theorem 26 part 2).
//!
//! Epoch `e` picks the `e mod C(n,k)`-th size-`k` subset `K_e` and, for a
//! stretch of `base · (e+1)` steps, round-robins over `Π_n \ K_e` only.
//! Consequences, by construction:
//!
//! - **every** set of size `k+1` (and larger) is timely with respect to
//!   `Π_n` with bound `2(n − k) − 1`: a size-`(k+1)` set always has a member
//!   outside the currently starved `K_e`, and that member recurs at least
//!   once every `n − k` steps within an epoch; across an epoch boundary the
//!   member-free gap is at most `2(n − k − 1)` steps;
//! - **no** set of size `k` is timely with respect to any set `Q` of size
//!   `> k`: when `K_e = K` the starvation stretch contains ever more steps of
//!   `Q \ K` (non-empty since `|Q| > k`) and none of `K`;
//! - every process is correct (it runs in all epochs not starving it).
//!
//! So the output is in `S^{k+1}_{j,n}` for every `j ≥ k+1`, but in **no**
//! `S^k_{j',n}` with `j' > k` — exactly the separation Theorem 26 needs: a
//! `(k,k,n)` protocol stack (complete for `S^k_{k+1,n}`) must stall here,
//! while safety must hold.

use st_core::subsets::{binomial, unrank, wide_unrank};
use st_core::{ProcSet, ProcessId, StepSource, Universe, MAX_PROCESSES};

/// What the adversary needs over `n` processes: `1 ≤ k < n` (starving
/// everything leaves no one to run) and a positive base epoch.
pub(crate) fn check_starvation(n: usize, k: usize, base: u64) -> Result<(), String> {
    if k == 0 || k >= n {
        return Err(format!(
            "field \"k\": need 1 <= k < n, got k = {k} at n = {n}"
        ));
    }
    crate::positive("base", "the base epoch length", base)
}

/// Rotating starvation of every size-`k` subset with growing epochs.
#[derive(Clone, Debug)]
pub struct RotatingStarvation {
    universe: Universe,
    k: usize,
    /// Base epoch length (steps of the first epoch; epoch `e` runs
    /// `base · (e+1)` steps).
    base: u64,
    /// Current epoch number.
    epoch: u64,
    /// Steps left in the current epoch.
    left: u64,
    /// Round-robin members for the current epoch.
    members: Vec<ProcessId>,
    pos: usize,
}

impl RotatingStarvation {
    /// Creates the adversary starving every size-`k` subset of `universe`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < n` (starving everything leaves no one to run).
    pub fn new(universe: Universe, k: usize) -> Self {
        Self::with_base(universe, k, 8)
    }

    /// Like [`new`](Self::new) with an explicit base epoch length.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k < n` and `base ≥ 1`.
    pub fn with_base(universe: Universe, k: usize, base: u64) -> Self {
        check_starvation(universe.n(), k, base).unwrap_or_else(|e| panic!("{e}"));
        let mut gen = RotatingStarvation {
            universe,
            k,
            base,
            epoch: 0,
            left: 0,
            members: Vec::new(),
            pos: 0,
        };
        gen.enter_epoch(0);
        gen
    }

    /// The guaranteed-timely set size: `k + 1` (every set of that size is
    /// timely wrt `Π_n` with bound [`guaranteed_bound`](Self::guaranteed_bound)).
    pub fn timely_size(&self) -> usize {
        self.k + 1
    }

    /// The timeliness bound guaranteed for every size-`k+1` set wrt `Π_n`.
    ///
    /// Within an epoch a set's representative recurs every `n − k` steps; at
    /// an epoch boundary its last occurrence may be `n − k − 1` steps before
    /// the epoch ends and its next `n − k − 1` steps after the new epoch
    /// starts, so the longest representative-free run is `2(n − k − 1)`.
    pub fn guaranteed_bound(&self) -> usize {
        2 * (self.universe.n() - self.k) - 1
    }

    /// The subset starved during epoch `e`.
    ///
    /// # Panics
    ///
    /// Panics when that subset has a member a [`ProcSet`] cannot name (the
    /// schedule itself is defined for every universe).
    pub fn starved_in_epoch(&self, e: u64) -> ProcSet {
        unrank(self.universe, self.k, self.starved_rank(e))
    }

    fn starved_rank(&self, e: u64) -> u64 {
        e % binomial(self.universe.n(), self.k)
    }

    fn enter_epoch(&mut self, e: u64) {
        self.epoch = e;
        self.left = self.base * (e + 1);
        // At the width of the largest universe, not `ProcSet`'s: a fleet's
        // universe runs past that capacity.
        let starved =
            wide_unrank::<{ MAX_PROCESSES / 64 }>(self.universe, self.k, self.starved_rank(e));
        self.members = self
            .universe
            .processes()
            .filter(|p| !starved.contains(*p))
            .collect();
        self.pos = 0;
    }
}

impl StepSource for RotatingStarvation {
    fn next_step(&mut self) -> Option<ProcessId> {
        if self.left == 0 {
            self.enter_epoch(self.epoch + 1);
        }
        self.left -= 1;
        let p = self.members[self.pos];
        self.pos += 1;
        if self.pos == self.members.len() {
            self.pos = 0;
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::subsets::KSubsets;
    use st_core::timeliness::{empirical_bound, max_q_steps_in_p_free_interval};

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    #[test]
    fn every_k_plus_1_set_is_timely() {
        let n = 5;
        let k = 2;
        let mut gen = RotatingStarvation::new(u(n), k);
        let bound = gen.guaranteed_bound();
        let s = gen.take_schedule(30_000);
        let full = ProcSet::full(u(n));
        for pset in KSubsets::new(u(n), k + 1) {
            assert!(
                empirical_bound(&s, pset, full) <= bound,
                "{pset} must be timely wrt Π_n"
            );
        }
    }

    #[test]
    fn no_k_set_is_timely_wrt_larger_sets() {
        let n = 5;
        let k = 2;
        let mut gen = RotatingStarvation::new(u(n), k);
        let s = gen.take_schedule(60_000);
        let full = ProcSet::full(u(n));
        for kset in KSubsets::new(u(n), k) {
            // Against Π_n (any size-(t+1) superset witnesses through
            // Observation 3), the starvation run grows beyond any small cap.
            assert!(
                max_q_steps_in_p_free_interval(&s, kset, full) >= 50,
                "{kset} must be starved"
            );
        }
    }

    #[test]
    fn starvation_grows_between_prefixes() {
        let n = 4;
        let k = 1;
        let mut gen = RotatingStarvation::new(u(n), k);
        let s = gen.take_schedule(80_000);
        let short = s.prefix(5_000);
        let p0 = ProcSet::from_indices([0]);
        let full = ProcSet::full(u(n));
        let early = max_q_steps_in_p_free_interval(&short, p0, full);
        let late = max_q_steps_in_p_free_interval(&s, p0, full);
        assert!(late > early, "starvation must grow: {early} vs {late}");
    }

    #[test]
    fn all_processes_correct() {
        let mut gen = RotatingStarvation::new(u(6), 2);
        let s = gen.take_schedule(50_000);
        let tail = s.suffix(s.len() / 2);
        assert_eq!(tail.participants(), ProcSet::full(u(6)));
    }

    #[test]
    fn epoch_rotation_covers_all_subsets() {
        let gen = RotatingStarvation::new(u(4), 2);
        let mut seen = std::collections::BTreeSet::new();
        for e in 0..binomial(4, 2) {
            seen.insert(gen.starved_in_epoch(e));
        }
        assert_eq!(seen.len() as u64, binomial(4, 2));
    }

    #[test]
    #[should_panic(expected = "1 <= k < n")]
    fn k_equal_n_rejected() {
        let _ = RotatingStarvation::new(u(3), 3);
    }
}
