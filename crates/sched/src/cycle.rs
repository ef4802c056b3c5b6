//! Cycling a finite schedule into an infinite periodic source.
//!
//! Periodic schedules are the cleanest synchronous workloads: every set's
//! timeliness bound is determined by one period. `Cycle` turns any finite
//! [`Schedule`] into its infinite repetition — useful for replaying a
//! recorded execution as a workload, and for constructing exact-bound
//! schedules in tests.

use st_core::{ProcessId, Schedule, StepSource};

/// `field "period"`: a [`Cycle`] needs a step to repeat.
pub(crate) fn check_period(period: &Schedule) -> Result<(), String> {
    if period.is_empty() {
        return Err("field \"period\": cannot cycle an empty schedule".into());
    }
    Ok(())
}

/// Infinite repetition of a finite schedule.
///
/// # Examples
///
/// ```
/// use st_core::{Schedule, StepSource};
/// use st_sched::Cycle;
///
/// let mut src = Cycle::new(Schedule::from_indices([0, 1, 2]));
/// assert_eq!(src.take_schedule(7), Schedule::from_indices([0, 1, 2, 0, 1, 2, 0]));
/// ```
#[derive(Clone, Debug)]
pub struct Cycle {
    period: Schedule,
    pos: usize,
}

impl Cycle {
    /// Creates the cyclic source.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty (no step to repeat).
    pub fn new(period: Schedule) -> Self {
        check_period(&period).unwrap_or_else(|e| panic!("{e}"));
        Cycle { period, pos: 0 }
    }

    /// The period length.
    pub fn period_len(&self) -> usize {
        self.period.len()
    }
}

impl StepSource for Cycle {
    fn next_step(&mut self) -> Option<ProcessId> {
        let p = self.period.step(self.pos);
        self.pos += 1;
        if self.pos == self.period.len() {
            self.pos = 0;
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::timeliness::empirical_bound;
    use st_core::ProcSet;

    #[test]
    fn repeats_verbatim() {
        let mut src = Cycle::new(Schedule::from_indices([2, 0]));
        assert_eq!(
            src.take_schedule(5),
            Schedule::from_indices([2, 0, 2, 0, 2])
        );
        assert_eq!(src.period_len(), 2);
    }

    #[test]
    fn periodic_bounds_are_exact() {
        // Period p0 p1 p1 p1: {p0} wrt {p1} has exactly 3 q-steps between
        // p0 steps (and at the seam) → bound 4, stable at any length.
        let mut src = Cycle::new(Schedule::from_indices([0, 1, 1, 1]));
        let s = src.take_schedule(4_000);
        assert_eq!(
            empirical_bound(&s, ProcSet::from_indices([0]), ProcSet::from_indices([1])),
            4
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_period_rejected() {
        let _ = Cycle::new(Schedule::new());
    }
}
