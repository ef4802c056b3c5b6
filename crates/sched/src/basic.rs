//! Basic generators: round-robin and seeded random.

use rand::distr::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use st_core::{ProcSet, ProcessId, StepSource, Universe};

/// `field "over"`: a [`RoundRobin`] or [`SeededRandom`] (the `what`)
/// over an explicit set needs a member.
pub(crate) fn check_over(what: &str, set: ProcSet) -> Result<(), String> {
    if set.is_empty() {
        return Err(format!(
            "field \"over\": a {what} needs a process (at least one process), got the empty set"
        ));
    }
    Ok(())
}

/// `field "burst"`: a [`BurstyRotation`] dwells at least one step.
pub(crate) fn check_burst(burst: u64) -> Result<(), String> {
    crate::positive("burst", "a burst", burst)
}

/// `field "weights"`: [`SeededRandom::with_weights`] takes one weight per
/// member of `members`, not all of them zero.
pub(crate) fn check_weights(members: usize, weights: &[u32]) -> Result<(), String> {
    if weights.len() != members {
        return Err(format!(
            "field \"weights\": one weight per member, got {} for {members}",
            weights.len()
        ));
    }
    if weights.iter().all(|&w| w == 0) {
        return Err("field \"weights\": at least one weight must be positive".into());
    }
    Ok(())
}

/// Cyclic round-robin over a set of processes (the whole universe by
/// default) — the maximally synchronous schedule: every singleton is timely
/// with respect to everything with bound `|set|`.
///
/// # Examples
///
/// ```
/// use st_core::{Universe, StepSource, Schedule};
/// use st_sched::RoundRobin;
///
/// let mut rr = RoundRobin::new(Universe::new(3).unwrap());
/// assert_eq!(rr.take_schedule(6), Schedule::from_indices([0, 1, 2, 0, 1, 2]));
/// ```
#[derive(Clone, Debug)]
pub struct RoundRobin {
    members: Vec<ProcessId>,
    pos: usize,
}

impl RoundRobin {
    /// Round-robin over the full universe.
    pub fn new(universe: Universe) -> Self {
        RoundRobin {
            members: universe.processes().collect(),
            pos: 0,
        }
    }

    /// Round-robin over an explicit non-empty set.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty.
    pub fn over(set: ProcSet) -> Self {
        check_over("round robin", set).unwrap_or_else(|e| panic!("{e}"));
        RoundRobin {
            members: set.to_vec(),
            pos: 0,
        }
    }
}

impl StepSource for RoundRobin {
    fn next_step(&mut self) -> Option<ProcessId> {
        let p = self.members[self.pos];
        self.pos = (self.pos + 1) % self.members.len();
        Some(p)
    }
}

/// Round-robin with a dwell: each process takes `burst` consecutive steps
/// per rotation turn.
///
/// Every singleton is timely with respect to everything with bound
/// `n · burst`, like [`RoundRobin`] — but a process that needs an O(burst)
/// scan to make a protocol-level move (the lean large-n detectors scan all
/// `n` heartbeats, so one iteration is ~n² steps) completes it uncontended
/// within one turn instead of restarting its timeout reasoning on every
/// interleaved step. This is the n-scaling experiment's conforming
/// schedule; as a spec it serializes in O(1) where a materialized
/// [`Cycle`](crate::Cycle) of the same shape is n · burst entries.
///
/// # Examples
///
/// ```
/// use st_core::{Universe, StepSource, Schedule};
/// use st_sched::BurstyRotation;
///
/// let mut b = BurstyRotation::new(Universe::new(3).unwrap(), 2);
/// assert_eq!(b.take_schedule(7), Schedule::from_indices([0, 0, 1, 1, 2, 2, 0]));
/// ```
#[derive(Clone, Debug)]
pub struct BurstyRotation {
    members: Vec<ProcessId>,
    pos: usize,
    burst: u64,
    left: u64,
}

impl BurstyRotation {
    /// Bursty rotation over the full universe.
    ///
    /// # Panics
    ///
    /// Panics if `burst == 0`.
    pub fn new(universe: Universe, burst: u64) -> Self {
        check_burst(burst).unwrap_or_else(|e| panic!("{e}"));
        BurstyRotation {
            members: universe.processes().collect(),
            pos: 0,
            burst,
            left: burst,
        }
    }
}

impl StepSource for BurstyRotation {
    fn next_step(&mut self) -> Option<ProcessId> {
        let p = self.members[self.pos];
        self.left -= 1;
        if self.left == 0 {
            self.pos = (self.pos + 1) % self.members.len();
            self.left = self.burst;
        }
        Some(p)
    }
}

/// Uniform (or weighted) random scheduling with a deterministic seed.
///
/// Random schedules are "average-case asynchronous": with probability one
/// every process is correct and every pair of sets is timely for *some*
/// bound, but the bound is unbounded in expectation across seeds — useful as
/// filler inside [`SetTimely`](crate::SetTimely) and as a baseline workload.
#[derive(Clone, Debug)]
pub struct SeededRandom {
    members: Vec<ProcessId>,
    /// One weight per member; empty when every weight is 1, and the ticket
    /// *is* the member's position.
    weights: Vec<u32>,
    /// Sampler for a ticket in `[0, total weight)`.
    ticket: Uniform,
    rng: StdRng,
}

impl SeededRandom {
    /// Uniform over the universe.
    pub fn new(universe: Universe, seed: u64) -> Self {
        Self::uniform(universe.processes().collect(), seed)
    }

    /// Uniform over an explicit non-empty set.
    ///
    /// # Panics
    ///
    /// Panics if `set` is empty.
    pub fn over(set: ProcSet, seed: u64) -> Self {
        check_over("random source", set).unwrap_or_else(|e| panic!("{e}"));
        Self::uniform(set.to_vec(), seed)
    }

    fn uniform(members: Vec<ProcessId>, seed: u64) -> Self {
        SeededRandom {
            weights: Vec::new(),
            ticket: Uniform::new(members.len() as u64),
            members,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sets integer weights per member (same order as the member list);
    /// a weight of 0 silences a process.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the member count or all weights are
    /// zero.
    pub fn with_weights(mut self, weights: Vec<u32>) -> Self {
        check_weights(self.members.len(), &weights).unwrap_or_else(|e| panic!("{e}"));
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        self.ticket = Uniform::new(total);
        self.weights = if weights.iter().all(|&w| w == 1) {
            Vec::new()
        } else {
            weights
        };
        self
    }
}

impl StepSource for SeededRandom {
    #[inline]
    fn next_step(&mut self) -> Option<ProcessId> {
        let mut ticket = self.ticket.sample(&mut self.rng);
        if self.weights.is_empty() {
            return Some(self.members[ticket as usize]);
        }
        for (i, &w) in self.weights.iter().enumerate() {
            let w = w as u64;
            if ticket < w {
                return Some(self.members[i]);
            }
            ticket -= w;
        }
        unreachable!("ticket below total weight always lands")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Schedule;

    fn u(n: usize) -> Universe {
        Universe::new(n).unwrap()
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::over(ProcSet::from_indices([1, 3]));
        assert_eq!(rr.take_schedule(5), Schedule::from_indices([1, 3, 1, 3, 1]));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn round_robin_empty_panics() {
        let _ = RoundRobin::over(ProcSet::EMPTY);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = SeededRandom::new(u(4), 42).take_schedule(100);
        let b = SeededRandom::new(u(4), 42).take_schedule(100);
        let c = SeededRandom::new(u(4), 43).take_schedule(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_covers_all_processes() {
        let s = SeededRandom::new(u(5), 7).take_schedule(1000);
        assert_eq!(s.participants(), ProcSet::full(u(5)));
    }

    #[test]
    fn zero_weight_silences() {
        let src = SeededRandom::new(u(3), 1).with_weights(vec![1, 0, 1]);
        let mut src = src;
        let s = src.take_schedule(500);
        assert_eq!(s.occurrences(ProcessId::new(1)), 0);
        assert!(s.occurrences(ProcessId::new(0)) > 0);
        assert!(s.occurrences(ProcessId::new(2)) > 0);
    }

    #[test]
    fn heavy_weight_dominates() {
        let mut src = SeededRandom::new(u(2), 9).with_weights(vec![99, 1]);
        let s = src.take_schedule(2000);
        assert!(s.occurrences(ProcessId::new(0)) > s.occurrences(ProcessId::new(1)) * 20);
    }

    #[test]
    #[should_panic(expected = "one weight per member")]
    fn weight_length_mismatch_panics() {
        let _ = SeededRandom::new(u(3), 1).with_weights(vec![1, 2]);
    }
}
