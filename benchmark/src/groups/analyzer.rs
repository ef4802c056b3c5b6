//! Set-timeliness analysis: pair sweeps on n = 12 schedules, the full
//! `(i, j)` matrix at n = 8, and Figure 1's prefix-bound curves. The
//! simulator is never entered.

use std::hint::black_box;

use st_core::subsets::{binomial, KSubsets};
use st_core::timeliness::{naive, prefix_bounds, sweep_matrix, TimelinessAnalyzer};
use st_core::{ProcSet, ProcessId, Schedule, StepSource, Universe};
use st_sched::{Figure1, RoundRobin, SeededRandom};

use crate::metrics::{SWEEP_CELLS, SWEEP_SCHEDULES};
use crate::trace::Tracer;
use crate::util::{mix, Digest};

const N: usize = 12;
const CAP: usize = 2 * N;
const MATRIX_N: usize = 8;

pub struct AnalyzerInputs {
    universe: Universe,
    /// `(name, schedule)` in `SWEEP_SCHEDULES` order.
    schedules: Vec<(&'static str, Schedule)>,
    matrix_universe: Universe,
    matrix_schedule: Schedule,
    figure1: Schedule,
    /// `(P, Q)` pairs examined by one pass — the pass's unit of work.
    pub pairs_examined: u64,
}

impl AnalyzerInputs {
    /// `len`-step round-robin and seeded-random schedules on 12 processes,
    /// a `len / 4`-step random schedule on 8 for the matrix, and `4 · len`
    /// steps of Figure 1.
    pub fn new(seed: u64, len: usize) -> Self {
        let universe = Universe::new(N).expect("in range");
        let matrix_universe = Universe::new(MATRIX_N).expect("in range");
        let schedules = vec![
            (
                SWEEP_SCHEDULES[0],
                RoundRobin::new(universe).take_schedule(len),
            ),
            (
                SWEEP_SCHEDULES[1],
                SeededRandom::new(universe, mix(seed, 1)).take_schedule(len),
            ),
        ];
        let (p1, p2, q) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        let cell_pairs: u64 = SWEEP_CELLS
            .iter()
            .map(|&(i, j)| binomial(N, i) * binomial(N, j))
            .sum();
        let all_subsets = (1u64 << MATRIX_N) - 1;
        AnalyzerInputs {
            universe,
            schedules,
            matrix_universe,
            matrix_schedule: SeededRandom::new(matrix_universe, mix(seed, 2))
                .take_schedule(len / 4),
            figure1: Figure1::new(p1, p2, q).take_schedule(4 * len),
            pairs_examined: SWEEP_SCHEDULES.len() as u64 * cell_pairs
                + all_subsets * all_subsets
                + 3,
        }
    }

    /// The engine against the kept naive loops on the first cell, over the
    /// first fifth of every schedule (the naive loops cost ~10× the engine);
    /// `false` on any disagreement.
    pub fn cross_check_naive(&self) -> bool {
        let (i, j) = SWEEP_CELLS[0];
        let mut analyzer = TimelinessAnalyzer::new(self.universe);
        self.schedules.iter().all(|(_, schedule)| {
            let prefix = schedule.prefix(schedule.len() / 5);
            let mut engine = Vec::new();
            analyzer.all_timely_pairs_into(&prefix, i, j, CAP, &mut engine);
            engine == naive::all_timely_pairs(&prefix, self.universe, i, j, CAP)
        })
    }
}

/// One analysis pass of nine pieces; returns the fingerprint of everything it computed
/// (pair counts per cell, matrix counts, bound curves).
pub fn analyzer_pass(tracer: &Tracer, inputs: &AnalyzerInputs) -> u64 {
    let mut digest = Digest::new();
    let mut analyzer = TimelinessAnalyzer::new(inputs.universe);
    let mut pairs = Vec::new();

    let (_, random) = &inputs.schedules[1];
    tracer.piece("core.timeliness.decompose", "rnd", || {
        let mut runs = 0u64;
        for p in KSubsets::new(inputs.universe, 2) {
            analyzer.decompose(random, p);
            runs += analyzer.runs() as u64;
        }
        digest.u64(runs);
        ((), binomial(N, 2))
    });

    for (name, schedule) in &inputs.schedules {
        for (i, j) in SWEEP_CELLS {
            let span = format!("core.timeliness.pairs.{name}.{i}x{j}");
            tracer.piece(&span, name, || {
                pairs.clear();
                analyzer.all_timely_pairs_into(schedule, i, j, CAP, &mut pairs);
                digest.u64(pairs.len() as u64);
                ((), pairs.len() as u64)
            });
        }
    }

    tracer.piece("core.timeliness.sweep_matrix", "rnd8", || {
        let matrix = sweep_matrix(
            &inputs.matrix_schedule,
            inputs.matrix_universe,
            2 * MATRIX_N,
            1,
        );
        let timely: u64 = matrix.cells().iter().map(|c| c.timely_pairs).sum();
        digest.u64(timely);
        ((), timely)
    });

    tracer.piece("core.timeliness.prefix_bounds", "figure1", || {
        let s1 = ProcSet::singleton(ProcessId::new(0));
        let s2 = ProcSet::singleton(ProcessId::new(1));
        let q = ProcSet::singleton(ProcessId::new(2));
        let len = inputs.figure1.len();
        let checkpoints: Vec<usize> = (0..=6).map(|shift| len >> (6 - shift)).collect();
        let rows = prefix_bounds(
            &inputs.figure1,
            &[(s1, q), (s2, q), (s1.union(s2), q)],
            &checkpoints,
        );
        for bound in rows.iter().flatten() {
            digest.u64(*bound as u64);
        }
        (black_box(rows), len as u64)
    });
    digest.finish()
}
