//! Schedules: sequences of process steps.
//!
//! A schedule `S` in `Π_n` is a finite or infinite sequence of processes; a
//! *step* of `S` is one element (Section 2 of the paper). This module holds
//! the finite representation used for analysis: infinite schedules live in
//! `st-sched` as generators and are analyzed through their finite prefixes.

use std::fmt;

use crate::process::{ProcessId, Universe};
use crate::procset::ProcSet;

/// A finite schedule: a sequence of process steps.
///
/// # Examples
///
/// ```
/// use st_core::{Schedule, ProcessId};
///
/// let s = Schedule::from_indices([0, 1, 0, 2]);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.occurrences(ProcessId::new(0)), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Schedule {
    steps: Vec<ProcessId>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule { steps: Vec::new() }
    }

    /// Creates an empty schedule with room for `capacity` steps.
    pub fn with_capacity(capacity: usize) -> Self {
        Schedule {
            steps: Vec::with_capacity(capacity),
        }
    }

    /// Creates a schedule from explicit steps.
    pub fn from_steps(steps: Vec<ProcessId>) -> Self {
        Schedule { steps }
    }

    /// Creates a schedule from process indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        Schedule {
            steps: indices.into_iter().map(ProcessId::new).collect(),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The process taking step `i` (zero-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn step(&self, i: usize) -> ProcessId {
        self.steps[i]
    }

    /// Iterates over steps in order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, ProcessId>> {
        self.steps.iter().copied()
    }

    /// View of the underlying steps.
    pub fn as_slice(&self) -> &[ProcessId] {
        &self.steps
    }

    /// Appends one step.
    pub fn push(&mut self, p: ProcessId) {
        self.steps.push(p);
    }

    /// Removes every step, keeping the allocation — for a buffer refilled
    /// block by block.
    pub fn clear(&mut self) {
        self.steps.clear();
    }

    /// Concatenation `S · S'` (paper notation).
    pub fn concat(&self, other: &Schedule) -> Schedule {
        let mut steps = self.steps.clone();
        steps.extend_from_slice(&other.steps);
        Schedule { steps }
    }

    /// The prefix consisting of the first `len` steps (clamped to the
    /// schedule length).
    pub fn prefix(&self, len: usize) -> Schedule {
        Schedule {
            steps: self.steps[..len.min(self.steps.len())].to_vec(),
        }
    }

    /// The suffix starting at step `from` (clamped).
    pub fn suffix(&self, from: usize) -> Schedule {
        Schedule {
            steps: self.steps[from.min(self.steps.len())..].to_vec(),
        }
    }

    /// Number of occurrences of process `p`.
    pub fn occurrences(&self, p: ProcessId) -> usize {
        self.steps.iter().filter(|&&q| q == p).count()
    }

    /// The set of processes that appear at least once.
    pub fn participants(&self) -> ProcSet {
        self.steps.iter().copied().collect()
    }

    /// Per-process step counts, indexed by process index.
    pub fn step_counts(&self, universe: Universe) -> Vec<usize> {
        let mut counts = vec![0usize; universe.n()];
        for &p in &self.steps {
            if p.index() < counts.len() {
                counts[p.index()] += 1;
            }
        }
        counts
    }

    /// Checks that every step is a process of `universe`.
    pub fn is_within(&self, universe: Universe) -> bool {
        self.steps.iter().all(|&p| universe.contains(p))
    }
}

impl FromIterator<ProcessId> for Schedule {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        Schedule {
            steps: iter.into_iter().collect(),
        }
    }
}

impl Extend<ProcessId> for Schedule {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        self.steps.extend(iter);
    }
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schedule[{} steps]", self.steps.len())
    }
}

impl fmt::Display for Schedule {
    /// Renders short schedules step-by-step; long ones are summarized.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 32;
        for (i, p) in self.steps.iter().take(SHOWN).enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{p}")?;
        }
        if self.steps.len() > SHOWN {
            write!(f, "·… ({} steps)", self.steps.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let s = Schedule::from_indices([0, 1, 0, 2, 0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.occurrences(ProcessId::new(0)), 3);
        assert_eq!(s.occurrences(ProcessId::new(9)), 0);
        assert_eq!(s.participants(), ProcSet::from_indices([0, 1, 2]));
    }

    #[test]
    fn concat_prefix_suffix() {
        let a = Schedule::from_indices([0, 1]);
        let b = Schedule::from_indices([2]);
        let c = a.concat(&b);
        assert_eq!(
            c.as_slice(),
            &[ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]
        );
        assert_eq!(c.prefix(2), a);
        assert_eq!(c.suffix(2), b);
        assert_eq!(c.prefix(99), c);
        assert!(c.suffix(99).is_empty());
    }

    #[test]
    fn step_counts_and_universe() {
        let u = Universe::new(3).unwrap();
        let s = Schedule::from_indices([0, 2, 2]);
        assert_eq!(s.step_counts(u), vec![1, 0, 2]);
        assert!(s.is_within(u));
        let t = Schedule::from_indices([3]);
        assert!(!t.is_within(u));
    }

    #[test]
    fn display_forms() {
        let s = Schedule::from_indices([0, 1]);
        assert_eq!(s.to_string(), "p0·p1");
        let long = Schedule::from_indices((0..40).map(|i| i % 3));
        assert!(long.to_string().contains("(40 steps)"));
        assert_eq!(format!("{long:?}"), "Schedule[40 steps]");
    }

    #[test]
    fn clear_empties_a_reusable_buffer() {
        let mut s = Schedule::with_capacity(8);
        assert!(s.is_empty());
        s.extend([ProcessId::new(1), ProcessId::new(2)]);
        s.clear();
        assert_eq!(s, Schedule::new());
        s.push(ProcessId::new(3));
        assert_eq!(s, Schedule::from_indices([3]));
    }

    #[test]
    fn collect_and_extend() {
        let mut s: Schedule = [ProcessId::new(1)].into_iter().collect();
        s.extend([ProcessId::new(2)]);
        assert_eq!(s.len(), 2);
    }
}
