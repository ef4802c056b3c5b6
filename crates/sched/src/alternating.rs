//! Alternating group rotation: *every group is timely, no individual is*.
//!
//! A generalization of Figure 1 in which **every** process of the system
//! flaps: the universe is partitioned into groups; steps strictly alternate
//! between groups; within each group a single *representative* takes the
//! group's steps, and representatives rotate on ever-growing runs.
//!
//! Consequences, by construction:
//!
//! - each group, viewed as a set, is timely with respect to `Π_n` with
//!   bound equal to the number of groups (its representative appears in
//!   every alternation round);
//! - **no singleton** is timely with respect to any set containing a
//!   process outside it: every process is benched for ever-longer runs
//!   while the other groups (and its own group's other members) keep
//!   stepping;
//! - every process is correct (each returns as representative infinitely
//!   often).
//!
//! This is the workload for experiment E8: a *process-timeliness* failure
//! detector (accusing individuals) flaps forever here, while the paper's
//! *set-timeliness* detector (Figure 2, accusing sets) stabilizes — the
//! motivation of the paper, measured.

use st_core::{ProcSet, ProcessId, StepSource};

/// What the rotation needs: at least one group, every group non-empty,
/// the groups pairwise disjoint, and a positive base run.
pub(crate) fn check_groups(groups: &[ProcSet], base: u64) -> Result<(), String> {
    if groups.is_empty() {
        return Err("field \"groups\": need at least one group, got none".into());
    }
    let mut seen = ProcSet::EMPTY;
    for (ix, g) in groups.iter().enumerate() {
        if g.is_empty() {
            return Err(format!(
                "field \"groups\": groups must be non-empty, got an empty group {ix}"
            ));
        }
        if !seen.is_disjoint(*g) {
            return Err(format!(
                "field \"groups\": groups must be disjoint, group {ix} = {g} meets {seen}"
            ));
        }
        seen = seen.union(*g);
    }
    crate::positive("base", "the base run length", base)
}

/// Strictly alternating groups with growing-run representative rotation.
#[derive(Clone, Debug)]
pub struct AlternatingRotation {
    groups: Vec<Vec<ProcessId>>,
    /// Base run length; the `e`-th run of a group lasts `base · (e+1)` of
    /// that group's steps.
    base: u64,
    /// Round-robin position over groups.
    at_group: usize,
    /// Per-group: (representative index, steps left in run, run number).
    state: Vec<(usize, u64, u64)>,
}

impl AlternatingRotation {
    /// Creates the generator from a partition into groups.
    ///
    /// # Panics
    ///
    /// Panics if there are no groups, any group is empty, or the groups
    /// overlap.
    pub fn new(groups: &[ProcSet]) -> Self {
        Self::with_base(groups, 8)
    }

    /// Like [`new`](Self::new) with an explicit base run length.
    ///
    /// # Panics
    ///
    /// See [`new`](Self::new); additionally panics if `base == 0`.
    pub fn with_base(groups: &[ProcSet], base: u64) -> Self {
        check_groups(groups, base).unwrap_or_else(|e| panic!("{e}"));
        AlternatingRotation {
            groups: groups.iter().map(|g| g.to_vec()).collect(),
            base,
            at_group: 0,
            state: groups.iter().map(|_| (0usize, base, 0u64)).collect(),
        }
    }

    /// The timeliness bound guaranteed for each group with respect to
    /// `Π_n`: the number of groups (each alternation round contains one
    /// step of every group).
    pub fn guaranteed_bound(&self) -> usize {
        self.groups.len()
    }
}

impl StepSource for AlternatingRotation {
    fn next_step(&mut self) -> Option<ProcessId> {
        let g = self.at_group;
        self.at_group += 1;
        if self.at_group == self.groups.len() {
            self.at_group = 0;
        }
        let (rep, left, run) = &mut self.state[g];
        let p = self.groups[g][*rep];
        *left -= 1;
        if *left == 0 {
            *rep += 1;
            if *rep == self.groups[g].len() {
                *rep = 0;
            }
            *run += 1;
            *left = self.base * (*run + 1);
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::timeliness::{empirical_bound, max_q_steps_in_p_free_interval};
    use st_core::Universe;

    fn groups_2x2() -> Vec<ProcSet> {
        vec![ProcSet::from_indices([0, 1]), ProcSet::from_indices([2, 3])]
    }

    #[test]
    fn groups_are_timely_sets() {
        let groups = groups_2x2();
        let mut gen = AlternatingRotation::new(&groups);
        let bound = gen.guaranteed_bound();
        let s = gen.take_schedule(60_000);
        let full = ProcSet::full(Universe::new(4).unwrap());
        for g in &groups {
            assert!(
                empirical_bound(&s, *g, full) <= bound,
                "group {g} must be timely"
            );
        }
    }

    #[test]
    fn no_singleton_is_timely() {
        let mut gen = AlternatingRotation::new(&groups_2x2());
        let s = gen.take_schedule(120_000);
        let full = ProcSet::full(Universe::new(4).unwrap());
        for idx in 0..4usize {
            let single = ProcSet::from_indices([idx]);
            let short = max_q_steps_in_p_free_interval(&s.prefix(12_000), single, full);
            let long = max_q_steps_in_p_free_interval(&s, single, full);
            assert!(
                long > short && long > 100,
                "p{idx} must starve unboundedly ({short} vs {long})"
            );
        }
    }

    #[test]
    fn all_processes_correct() {
        let mut gen = AlternatingRotation::new(&groups_2x2());
        let s = gen.take_schedule(200_000);
        let tail = s.suffix(s.len() / 2);
        assert_eq!(
            tail.participants(),
            ProcSet::full(Universe::new(4).unwrap())
        );
    }

    #[test]
    fn three_groups_alternate_strictly() {
        let groups = vec![
            ProcSet::from_indices([0]),
            ProcSet::from_indices([1, 2]),
            ProcSet::from_indices([3, 4]),
        ];
        let mut gen = AlternatingRotation::new(&groups);
        let s = gen.take_schedule(9_000);
        // Every window of 3 consecutive steps contains one step per group.
        for w in s.as_slice().windows(3) {
            for g in &groups {
                assert_eq!(w.iter().filter(|p| g.contains(**p)).count(), 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_groups_rejected() {
        let _ = AlternatingRotation::new(&[
            ProcSet::from_indices([0, 1]),
            ProcSet::from_indices([1, 2]),
        ]);
    }
}
