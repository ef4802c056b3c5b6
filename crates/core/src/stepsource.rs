//! Abstraction over (possibly infinite) schedules as step streams.
//!
//! Finite [`Schedule`]s are analysis objects; *runs* are driven by a
//! [`StepSource`], which may be an infinite generator (see the `st-sched`
//! crate) or a replay of a finite schedule. A drive that checks its stop
//! rule before every step (`Sim::run_automata`) pulls one process id at a time with
//! [`StepSource::next_step`]; a fleet drive that replays whole blocks pulls
//! a block at a time with [`StepSource::fill`], one call — one virtual call
//! through a `Box<dyn StepSource>` — per block.

use crate::process::ProcessId;
use crate::schedule::Schedule;

/// Most steps [`StepSource::take_schedule`] reserves room for before it has
/// pulled any (4 MiB of schedule). The requested length is a wish, not a
/// fact about the source — a two-step cursor may be asked for 2⁴⁰ — so only
/// this much is taken on trust; longer prefixes grow from here.
const TAKE_RESERVE_CAP: usize = 1 << 20;

/// A stream of scheduled steps.
///
/// Implementors may be infinite (always `Some`) or finite (eventually
/// `None`); the simulator additionally enforces its own step cap.
pub trait StepSource {
    /// Produces the process taking the next step, or `None` if the schedule
    /// is over.
    fn next_step(&mut self) -> Option<ProcessId>;

    /// Appends up to `want` steps to `out` and returns how many it
    /// appended: `want`, or fewer if the source ended first. The source
    /// advances by exactly the returned count, so `fill` and
    /// [`next_step`](Self::next_step) may be interleaved freely and give
    /// the stream `next_step` alone gives.
    ///
    /// The default pulls step by step; a generator whose stream has
    /// structure (a dwell, a member list repeated) overrides it to append
    /// runs and slices.
    fn fill(&mut self, out: &mut Schedule, want: usize) -> usize {
        for taken in 0..want {
            match self.next_step() {
                Some(p) => out.push(p),
                None => return taken,
            }
        }
        want
    }

    /// Collects the next `len` steps into a finite [`Schedule`] (shorter if
    /// the source ends first). Useful for analyzing a generator's output
    /// with the timeliness analyzer.
    fn take_schedule(&mut self, len: usize) -> Schedule
    where
        Self: Sized,
    {
        let mut s = Schedule::with_capacity(len.min(TAKE_RESERVE_CAP));
        self.fill(&mut s, len);
        s
    }
}

/// Replays a finite [`Schedule`] as a [`StepSource`].
///
/// # Examples
///
/// ```
/// use st_core::{Schedule, stepsource::{ScheduleCursor, StepSource}};
///
/// let s = Schedule::from_indices([0, 1, 2]);
/// let mut cur = ScheduleCursor::new(s.clone());
/// assert_eq!(cur.take_schedule(10), s);
/// assert!(cur.next_step().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct ScheduleCursor {
    schedule: Schedule,
    pos: usize,
}

impl ScheduleCursor {
    /// Creates a cursor at the start of `schedule`.
    pub fn new(schedule: Schedule) -> Self {
        ScheduleCursor { schedule, pos: 0 }
    }

    /// Steps remaining.
    pub fn remaining(&self) -> usize {
        self.schedule.len() - self.pos
    }
}

impl StepSource for ScheduleCursor {
    fn next_step(&mut self) -> Option<ProcessId> {
        if self.pos < self.schedule.len() {
            let p = self.schedule.step(self.pos);
            self.pos += 1;
            Some(p)
        } else {
            None
        }
    }
}

/// Adapts a closure into a [`StepSource`].
pub struct FromFn<F>(pub F);

impl<F: FnMut() -> Option<ProcessId>> StepSource for FromFn<F> {
    fn next_step(&mut self) -> Option<ProcessId> {
        (self.0)()
    }
}

impl<S: StepSource + ?Sized> StepSource for &mut S {
    fn next_step(&mut self) -> Option<ProcessId> {
        (**self).next_step()
    }

    fn fill(&mut self, out: &mut Schedule, want: usize) -> usize {
        (**self).fill(out, want)
    }
}

impl<S: StepSource + ?Sized> StepSource for Box<S> {
    fn next_step(&mut self) -> Option<ProcessId> {
        (**self).next_step()
    }

    fn fill(&mut self, out: &mut Schedule, want: usize) -> usize {
        (**self).fill(out, want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_replays_exactly() {
        let s = Schedule::from_indices([2, 0, 1, 0]);
        let mut c = ScheduleCursor::new(s.clone());
        let mut collected = Vec::new();
        while let Some(p) = c.next_step() {
            collected.push(p);
        }
        assert_eq!(Schedule::from_steps(collected), s);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn take_schedule_stops_at_end() {
        let mut c = ScheduleCursor::new(Schedule::from_indices([0, 1]));
        assert_eq!(c.take_schedule(1).len(), 1);
        assert_eq!(c.remaining(), 1);
        assert_eq!(c.take_schedule(10).len(), 1);
    }

    #[test]
    fn from_fn_adapter() {
        let mut count = 0;
        let mut src = FromFn(move || {
            count += 1;
            if count <= 3 {
                Some(ProcessId::new(count % 2))
            } else {
                None
            }
        });
        assert_eq!(src.take_schedule(10), Schedule::from_indices([1, 0, 1]));
    }

    #[test]
    fn heterogeneous_boxed_sources_drive_without_generics() {
        // The campaign engine's shape: a grid of differently-typed
        // generators behind one trait object, driven (and `take_schedule`d —
        // `Box<dyn StepSource>` is `Sized`) with no generic parameter.
        let mut grid: Vec<Box<dyn StepSource>> = vec![
            Box::new(ScheduleCursor::new(Schedule::from_indices([0, 1]))),
            Box::new(FromFn({
                let mut left = 2;
                move || {
                    left -= 1;
                    (left >= 0).then(|| ProcessId::new(2))
                }
            })),
        ];
        let taken: Vec<Schedule> = grid.iter_mut().map(|g| g.take_schedule(8)).collect();
        assert_eq!(taken[0], Schedule::from_indices([0, 1]));
        assert_eq!(taken[1], Schedule::from_indices([2, 2]));
    }

    #[test]
    fn mut_ref_and_box_forward() {
        let mut c = ScheduleCursor::new(Schedule::from_indices([0, 1, 2]));
        {
            let r = &mut c;
            assert_eq!(r.next_step(), Some(ProcessId::new(0)));
        }
        let mut b: Box<ScheduleCursor> = Box::new(c);
        assert_eq!(b.next_step(), Some(ProcessId::new(1)));
    }
}
