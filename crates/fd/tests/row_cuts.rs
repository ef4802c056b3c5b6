//! Row-boundary cuts: [`KAntiOmegaMachine`] folds the line 2 scan row by
//! row, so a batched allotment ([`Automaton::step_reads`]) may start and
//! end anywhere in a row and span any number of row boundaries. Whatever
//! the cuts, the machine must end up exactly where one-read-per-step scalar
//! stepping leaves it.
//!
//! Two fleets run the same schedule, one process dwell at a time: one
//! through the plain replay (scalar `step`), the other through the
//! batching engine, whose dwell window makes a dwell that fits the
//! machine's read run a single `step_reads` call of exactly that length.

use proptest::prelude::*;
use st_core::{Schedule, Universe};
use st_fd::{KAntiOmega, KAntiOmegaConfig, KAntiOmegaMachine};
use st_sim::{Automaton, RegisterStats, RunConfig, Sim};

const N: usize = 5;
const T: usize = 3;

struct Fleet {
    sim: Sim,
    fd: KAntiOmega,
    machines: Vec<KAntiOmegaMachine>,
}

fn fleet(k: usize) -> Fleet {
    let universe = Universe::new(N).unwrap();
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::alloc(&mut sim, KAntiOmegaConfig::new(k, T));
    let machines = universe.processes().map(|_| fd.machine()).collect();
    Fleet { sim, fd, machines }
}

impl Fleet {
    fn registers(&self) -> (Vec<u64>, Vec<RegisterStats>) {
        let universe = self.fd.universe();
        let mut values: Vec<u64> = universe
            .processes()
            .map(|p| self.fd.peek_heartbeat(&self.sim, p))
            .collect();
        for rank in 0..self.fd.set_count() {
            values.extend(
                universe
                    .processes()
                    .map(|q| self.fd.peek_counter(&self.sim, rank, q)),
            );
        }
        (values, self.sim.memory().stats())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_cuts_leave_the_machine_where_scalar_steps_do(
        // Each draw is a process and one of the six cuts below.
        dwells in prop::collection::vec(0..N * 6, 300..700),
        k in 1usize..=2,
    ) {
        let mut scalar = fleet(k);
        let mut batched = fleet(k);
        let scan = scalar.fd.set_count() * N;
        // One read, a row less one, a row, a row and one, several rows (not
        // a multiple of n), the whole scan.
        let cuts = [1, N - 1, N, N + 1, 2 * N + 3, scan];
        let mut batch_calls = 0usize;
        let mut cut_rows = 0usize;
        for (pid, cut) in dwells.into_iter().map(|draw| (draw / 6, draw % 6)) {
            // Inside a read phase the dwell is cut down to the machine's
            // read run, so it executes as one batch wherever it starts.
            let run = batched.machines[pid].read_run();
            let len = if run > 0 { cuts[cut].min(run) } else { cuts[cut] };
            if run > 0 {
                batch_calls += 1;
                cut_rows += usize::from(run > N && !(scan - run + len).is_multiple_of(N));
            }
            let dwell = Schedule::from_indices(std::iter::repeat_n(pid, len));
            let cfg = RunConfig::steps(len as u64);
            scalar.sim.run_automata_replay(&mut scalar.machines, &dwell, cfg).unwrap();
            batched
                .sim
                .run_automata_replay_soa(&mut batched.machines, &dwell, len, cfg)
                .unwrap();
            for (a, b) in scalar.machines.iter().zip(&batched.machines) {
                prop_assert_eq!(a.winnerset(), b.winnerset());
                prop_assert_eq!(a.fd_output(), b.fd_output());
                prop_assert_eq!(a.iterations(), b.iterations());
                prop_assert_eq!(a.read_run(), b.read_run());
            }
        }
        // Probes carry their step index: equal lists are equal step for step.
        let (plain, soa) = (scalar.sim.report(), batched.sim.report());
        prop_assert_eq!(plain.steps, soa.steps);
        prop_assert_eq!(plain.probes.events(), soa.probes.events());
        prop_assert_eq!(plain.op_counts, soa.op_counts);
        let registers = scalar.registers();
        prop_assert_eq!(&registers, &batched.registers());
        // Not vacuous: batches ran, rows were left half-read between them,
        // iterations completed and accusations moved the counters under them.
        prop_assert!(batch_calls > 100 && cut_rows > 20, "{batch_calls} batches, {cut_rows} cut rows");
        prop_assert!(scalar.machines.iter().all(|m| m.iterations() >= 2));
        prop_assert!(registers.0[N..].iter().any(|&counter| counter > 1));
    }
}
