//! Store-collect: the simplest shared object over SWMR registers.
//!
//! Each process owns one register; `store` writes it (one step) and
//! `collect` reads all `n` registers one by one (`n` steps). A collect is
//! *not* atomic — it is the building block on which snapshots and
//! adopt-commit impose stronger semantics.

use st_core::ProcessId;
use st_sim::{ProcessCtx, Reg, RegValue, Sim, StepAccess};

/// A store-collect object: one `Option<T>` register per process.
///
/// Clone the object into each process's task; it is stateless (all state is
/// in shared registers).
#[derive(Clone, Debug)]
pub struct Collect<T> {
    regs: Vec<Reg<Option<T>>>,
}

impl<T: RegValue> Collect<T> {
    /// Allocates the object's registers in `sim` (one single-writer register
    /// per process, named `name[p]`).
    pub fn alloc(sim: &mut Sim, name: &str) -> Self {
        Collect {
            regs: sim.alloc_per_process(name, None),
        }
    }

    /// Number of component registers (= number of processes).
    pub fn width(&self) -> usize {
        self.regs.len()
    }

    /// Writes the calling process's component. **One step.**
    pub async fn store(&self, ctx: &ProcessCtx, value: T) {
        ctx.write(self.regs[ctx.pid().index()], Some(value)).await;
    }

    /// Reads all components in index order. **`n` steps.**
    pub async fn collect(&self, ctx: &ProcessCtx) -> Vec<Option<T>> {
        let mut out = Vec::with_capacity(self.regs.len());
        for &reg in &self.regs {
            out.push(ctx.read(reg).await);
        }
        out
    }

    /// Reads one component. **One step.**
    pub async fn read_one(&self, ctx: &ProcessCtx, p: ProcessId) -> Option<T> {
        ctx.read(self.regs[p.index()]).await
    }

    /// Writes the calling process's component on the machine ABI — the
    /// [`store`](Self::store) operation as one [`StepAccess`] write, for
    /// automata that inline the object's step sequence. **Costs the step's
    /// one operation.**
    pub fn store_machine(&self, mem: &mut StepAccess<'_>, value: T) {
        mem.write(self.regs[mem.pid().index()], Some(value));
    }

    /// Begins a machine-ABI collect: the `n`-read sequence of
    /// [`collect`](Self::collect) as a resumable step core (one component
    /// read per [`CollectScan::step`] call), for automata that inline the
    /// object's step sequence.
    pub fn scan(&self) -> CollectScan<T> {
        CollectScan {
            regs: self.regs.clone(),
            out: Vec::with_capacity(self.regs.len()),
        }
    }
}

/// A machine-ABI collect in progress: reads components in index order, one
/// per step — the state-machine port of [`Collect::collect`]. Obtain from
/// [`Collect::scan`]; reusable (the buffer resets when the scan completes).
#[derive(Clone, Debug)]
pub struct CollectScan<T> {
    regs: Vec<Reg<Option<T>>>,
    out: Vec<Option<T>>,
}

impl<T: RegValue> CollectScan<T> {
    /// Performs this step's component read. Returns the full collect once
    /// the last component has been read (after exactly `n` calls), leaving
    /// the scan ready for reuse. **Costs the step's one operation.**
    pub fn step(&mut self, mem: &mut StepAccess<'_>) -> Option<Vec<Option<T>>> {
        let q = self.out.len();
        let v = mem.read(self.regs[q]);
        self.out.push(v);
        if self.out.len() == self.regs.len() {
            Some(std::mem::take(&mut self.out))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::{ProcSet, Schedule, ScheduleCursor, Universe};
    use st_sim::{RunConfig, StopWhen};

    #[test]
    fn store_then_collect_sees_everything() {
        let u = Universe::new(3).unwrap();
        let mut sim = Sim::new(u);
        let obj: Collect<u64> = Collect::alloc(&mut sim, "C");
        assert_eq!(obj.width(), 3);
        for pid in u.processes() {
            let obj = obj.clone();
            sim.spawn(pid, move |ctx| async move {
                obj.store(&ctx, 100 + ctx.pid().index() as u64).await;
                let seen = obj.collect(&ctx).await;
                let count = seen.iter().flatten().count() as u64;
                ctx.decide(count);
            })
            .unwrap();
        }
        // Everyone stores first (3 steps), then collects (9 steps).
        let order: Vec<usize> = [0, 1, 2].into_iter().chain((0..9).map(|i| i % 3)).collect();
        let mut src = ScheduleCursor::new(Schedule::from_indices(order));
        sim.run(
            &mut src,
            RunConfig::steps(50).stop_when(StopWhen::AllFinished(ProcSet::full(u))),
        )
        .unwrap();
        let rep = sim.report();
        for pid in u.processes() {
            assert_eq!(
                rep.decision_value(pid),
                Some(3),
                "{pid} must see all stores"
            );
        }
    }

    /// The machine-ABI store + scan is observationally identical to the
    /// async store + collect on identical schedules.
    #[test]
    fn store_collect_machine_differential() {
        use st_sim::{Automaton, Status};

        struct CollectRunner {
            obj: Collect<u64>,
            scan: crate::CollectScan<u64>,
            stored: bool,
        }
        impl Automaton for CollectRunner {
            fn step(&mut self, mem: &mut StepAccess<'_>) -> Status {
                if !self.stored {
                    self.obj.store_machine(mem, 100 + mem.pid().index() as u64);
                    self.stored = true;
                    return Status::Running;
                }
                if let Some(seen) = self.scan.step(mem) {
                    mem.decide(seen.iter().flatten().count() as u64);
                    return Status::Done;
                }
                Status::Running
            }
        }

        let run = |machine: bool, schedule: Vec<usize>| {
            let u = Universe::new(3).unwrap();
            let mut sim = Sim::new(u);
            let obj: Collect<u64> = Collect::alloc(&mut sim, "C");
            for p in u.processes() {
                if machine {
                    sim.spawn_automaton(
                        p,
                        CollectRunner {
                            scan: obj.scan(),
                            obj: obj.clone(),
                            stored: false,
                        },
                    )
                    .unwrap();
                } else {
                    let obj = obj.clone();
                    sim.spawn(p, move |ctx| async move {
                        obj.store(&ctx, 100 + ctx.pid().index() as u64).await;
                        let seen = obj.collect(&ctx).await;
                        ctx.decide(seen.iter().flatten().count() as u64);
                    })
                    .unwrap();
                }
            }
            let mut src = ScheduleCursor::new(Schedule::from_indices(schedule));
            sim.run(&mut src, RunConfig::steps(200)).unwrap();
            let rep = sim.report();
            (
                rep.decisions,
                rep.op_counts,
                crate::access_stats(&sim),
                rep.finished,
            )
        };

        for sched in [
            (0..24).map(|i| i % 3).collect::<Vec<_>>(),
            [0, 1, 2].into_iter().chain((0..9).map(|i| i % 3)).collect(),
            (0..60).map(|i| (i * 7 + i / 5) % 3).collect(),
        ] {
            assert_eq!(run(false, sched.clone()), run(true, sched));
        }
    }

    #[test]
    fn collect_is_a_regular_read_sequence() {
        // A collect concurrent with stores may see a mix — but never values
        // that were never stored.
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let obj: Collect<u64> = Collect::alloc(&mut sim, "C");
        {
            let obj = obj.clone();
            sim.spawn(st_core::ProcessId::new(0), move |ctx| async move {
                for v in 1..=5u64 {
                    obj.store(&ctx, v).await;
                }
            })
            .unwrap();
        }
        {
            let obj = obj.clone();
            sim.spawn(st_core::ProcessId::new(1), move |ctx| async move {
                let seen = obj.collect(&ctx).await;
                if let Some(Some(v)) = seen.first() {
                    ctx.decide(*v);
                }
            })
            .unwrap();
        }
        let mut src = ScheduleCursor::new(Schedule::from_indices([0, 0, 1, 0, 1, 0, 0]));
        sim.run(&mut src, RunConfig::steps(20)).unwrap();
        let d = sim.report().decision_value(st_core::ProcessId::new(1));
        assert!(
            matches!(d, Some(1..=5)),
            "collected value must be a stored one: {d:?}"
        );
    }

    #[test]
    fn read_one_targets_a_single_component() {
        let u = Universe::new(2).unwrap();
        let mut sim = Sim::new(u);
        let obj: Collect<u64> = Collect::alloc(&mut sim, "C");
        {
            let obj = obj.clone();
            sim.spawn(st_core::ProcessId::new(0), move |ctx| async move {
                obj.store(&ctx, 7).await;
            })
            .unwrap();
        }
        {
            let obj = obj.clone();
            sim.spawn(st_core::ProcessId::new(1), move |ctx| async move {
                let v = obj.read_one(&ctx, st_core::ProcessId::new(0)).await;
                ctx.decide(v.unwrap_or(0));
            })
            .unwrap();
        }
        let mut src = ScheduleCursor::new(Schedule::from_indices([0, 1]));
        sim.run(&mut src, RunConfig::steps(5)).unwrap();
        assert_eq!(
            sim.report().decision_value(st_core::ProcessId::new(1)),
            Some(7)
        );
    }
}
