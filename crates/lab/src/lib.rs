//! Experiment harness: regenerates every figure and theorem of the paper as
//! a measured table.
//!
//! | Id | Paper artifact | Module |
//! |----|----------------|--------|
//! | E1 | Figure 1 (set-timely, not process-timely)        | [`e1_figure1`] |
//! | E2 | Figure 2 / Theorem 23 (k-anti-Ω convergence)     | [`e2_fd`] |
//! | E3 | Theorem 24 / Corollary 25 (agreement solvable)   | [`e3_agreement`] |
//! | E4 | Theorem 26 (the i = k / i = k+1 boundary)        | [`e4_boundary`] |
//! | E5 | Theorem 27 (the full solvability matrix)         | [`e5_matrix`] |
//! | E6 | Theorem 26 proof (the BG reduction, executed)    | [`e6_bg`] |
//! | E7 | Ablations (timeout policy, synchrony quality)    | [`e7_ablation`] |
//! | E8 | Motivation: set vs process timeliness            | [`e8_motivation`] |
//! | E9 | n-scaling: the lean stack at n = 64…1024         | [`e9_scaling`] |
//!
//! Run them all with the `stlab` binary: `cargo run -p st-lab --release --bin stlab -- all`.
//!
//! Besides the experiments, the lab ships a named **fault-injection
//! scenario catalog** ([`scenarios`], documented in `SCENARIOS.md`):
//! `stlab --scenario <name>` runs a cataloged fault shape (flapping
//! timeliness, gray failure, burst clogging, crash-recovery, the adaptive
//! adversary) as a campaign with the always-on invariant checker, and
//! `stlab --list-scenarios` prints the catalog. Any recorded
//! `InvariantViolation` makes the run exit non-zero and prints a
//! replayable counterexample schedule.
//!
//! `stlab fuzz` ([`fuzz`]) goes further: a deterministic coverage-guided
//! fuzz session over generator-spec space (clean conforming seeds, the
//! spec mutator, the always-on checker as oracle), with `--shrink`
//! delta-debugging any finding to a minimal still-violating scenario and
//! `--save-counterexample` / `--replay` persisting and re-executing it.
//!
//! # The campaign layer
//!
//! E2–E9 no longer hand-roll their loops: each builds a
//! `st_campaign::Campaign` of declarative scenarios (generator spec ×
//! workload × crash plan × seed) and renders its tables from the outcome
//! list — E5's solvable/adversarial matrix cells and E6's BG reduction
//! rows included. Campaigns execute on a work-stealing worker pool
//! (`LabConfig::threads`, the `stlab --threads N` flag) and merge outcomes
//! in rank order, so **every table is identical for every thread count** —
//! enforced by golden tests against `tests/golden/*.txt`, captured from the
//! pre-campaign sequential harness at the fixed seed. E1 keeps its bespoke
//! prefix-curve driver; E5's companion sweep parallelizes inside
//! `st_core::timeliness::sweep_matrix`.
//!
//! # Persistence and resume
//!
//! Every campaign experiment runs through
//! [`LabConfig::run_campaign`], which consults the optional
//! [`LabSession`]: `stlab --outcomes store.json` records every scenario
//! outcome (keyed by experiment id, rank, and serialized spec) into a
//! versioned `st_campaign::OutcomeStore`, and `stlab --resume store.json`
//! skips every stored scenario whose spec is unchanged. Interrupt a sweep,
//! resume it, and the rendered tables — and the rewritten store — are
//! byte-identical to an uninterrupted run at any thread count (CI's
//! `campaign-resume-smoke` enforces this end to end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod e1_figure1;
pub mod e2_fd;
pub mod e3_agreement;
pub mod e4_boundary;
pub mod e5_matrix;
pub mod e6_bg;
pub mod e7_ablation;
pub mod e8_motivation;
pub mod e9_scaling;
pub mod fuzz;
pub mod scenarios;
pub mod table;

pub use config::{violation_free, ExperimentResult, LabConfig, LabSession};
pub use table::Table;

/// Runs one experiment by id (`"e1"`…`"e7"`).
pub fn run_experiment(id: &str, cfg: &LabConfig) -> Option<ExperimentResult> {
    match id {
        "e1" => Some(e1_figure1::run(cfg)),
        "e2" => Some(e2_fd::run(cfg)),
        "e3" => Some(e3_agreement::run(cfg)),
        "e4" => Some(e4_boundary::run(cfg)),
        "e5" => Some(e5_matrix::run(cfg)),
        "e6" => Some(e6_bg::run(cfg)),
        "e7" => Some(e7_ablation::run(cfg)),
        "e8" => Some(e8_motivation::run(cfg)),
        "e9" => Some(e9_scaling::run(cfg)),
        _ => None,
    }
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 9] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];
