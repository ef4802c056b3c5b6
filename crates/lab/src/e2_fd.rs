//! E2 — Figure 2 / Theorem 23: k-anti-Ω convergence in `S^k_{t+1,n}`.
//!
//! For a grid of `(n, k, t)` and schedule families, runs the Figure 2
//! algorithm and measures: stabilization step (Lemma 22), whether the final
//! common winnerset contains a correct process (Lemma 20), and whether the
//! k-anti-Ω specification held (Theorem 23). Schedules outside the system
//! (rotating starvation) are included as negative controls.
//!
//! The grid is a campaign (`st-campaign`): every row is a declarative
//! [`Scenario`] — conforming/crash/starvation generator spec × the
//! FD-convergence workload on the machine-slot fast path — executed by the
//! work-stealing engine (`cfg.threads` workers, identical tables for every
//! count).

use st_campaign::{Campaign, FdAbi, FdDetector, FdOutcome, Scenario, Workload};
use st_core::{ProcSet, ProcessId, Universe};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, GeneratorSpec};

use crate::config::{ExperimentResult, LabConfig};
use crate::table::Table;

/// What one row of the grid expects and how it renders.
struct Row {
    n: usize,
    k: usize,
    t: usize,
    schedule: &'static str,
    crashed: ProcSet,
    correct: ProcSet,
    expect_converge: bool,
}

fn fd_workload(k: usize, t: usize) -> Workload {
    Workload::FdConvergence {
        k,
        t,
        policy: TimeoutPolicy::Increment,
        // One automaton slot per process — the whole grid is
        // simulator-bound.
        abi: FdAbi::MachineSlot,
        detector: FdDetector::SetBased,
        // Certify S^k_{t+1,n} membership on the executed schedule itself.
        certify_membership: true,
    }
}

/// Runs E2.
pub fn run(cfg: &LabConfig) -> ExperimentResult {
    let mut table = Table::new([
        "n",
        "k",
        "t",
        "schedule",
        "crashes",
        "in-system",
        "stabilized@step",
        "winnerset",
        "has_correct",
        "k-anti-Ω",
    ]);
    let mut pass = true;
    let budget = cfg.budget(800_000);

    let grid: &[(usize, usize, usize)] = if cfg.fast {
        &[(3, 1, 1), (4, 1, 2), (4, 2, 2)]
    } else {
        &[
            (3, 1, 1),
            (3, 1, 2),
            (4, 1, 2),
            (4, 2, 2),
            (4, 2, 3),
            (5, 1, 3),
            (5, 2, 3),
            (5, 3, 4),
            (6, 2, 4),
        ]
    };

    let mut campaign = Campaign::new();
    let mut rows: Vec<Row> = Vec::new();
    for &(n, k, t) in grid {
        let universe = Universe::new(n).unwrap();
        let full = ProcSet::full(universe);
        let p: ProcSet = (0..k).map(ProcessId::new).collect();
        let q: ProcSet = (0..=t).map(ProcessId::new).collect();
        let conforming =
            GeneratorSpec::set_timely(p, q, 2 * (t + 1), GeneratorSpec::seeded_random(0));

        // Conforming, fault-free.
        campaign.push(Scenario::new(
            "conforming",
            universe,
            conforming.clone(),
            fd_workload(k, t),
            budget,
            cfg.seed,
        ));
        rows.push(Row {
            n,
            k,
            t,
            schedule: "SetTimely",
            crashed: ProcSet::EMPTY,
            correct: full,
            expect_converge: true,
        });

        // Conforming, with t crashes (crash the top-t, keeping P alive).
        if n - t >= k {
            let crashed: ProcSet = ((n - t)..n).map(ProcessId::new).collect();
            if p.is_disjoint(crashed) {
                let plan = CrashPlan::all_at(crashed, 2_000);
                let spec =
                    GeneratorSpec::set_timely(p, q, 2 * (t + 1), GeneratorSpec::seeded_random(1))
                        .crashed(plan);
                campaign.push(Scenario::new(
                    "conforming+crash",
                    universe,
                    spec,
                    fd_workload(k, t),
                    budget,
                    cfg.seed,
                ));
                rows.push(Row {
                    n,
                    k,
                    t,
                    schedule: "SetTimely+crash",
                    crashed,
                    correct: crashed.complement(universe),
                    expect_converge: true,
                });
            }
        }

        // Negative control: rotating starvation of k-sets (outside the
        // system) — no convergence expected.
        campaign.push(Scenario::new(
            "starvation",
            universe,
            GeneratorSpec::RotatingStarvation { k, base: 8 },
            fd_workload(k, t),
            budget,
            cfg.seed,
        ));
        rows.push(Row {
            n,
            k,
            t,
            schedule: "RotatingStarvation",
            crashed: ProcSet::EMPTY,
            correct: full,
            expect_converge: false,
        });
    }

    let outcomes = cfg.run_campaign("e2", &campaign);
    pass &= crate::config::violation_free(&outcomes);
    for (row, outcome) in rows.iter().zip(&outcomes) {
        let fd = outcome.data.as_fd().expect("FD campaign");
        pass &= record(&mut table, row, fd);
    }

    ExperimentResult {
        id: "E2",
        title: "Figure 2 / Theorem 23 — k-anti-Ω convergence in S^k_{t+1,n}",
        tables: vec![("convergence grid".into(), table)],
        notes: vec![
            "conforming schedules: common winnerset with a correct member (Lemmas 20/22)".into(),
            "rotating starvation (negative control): no convergence in the same budget".into(),
        ],
        pass,
    }
}

fn record(table: &mut Table, row: &Row, fd: &FdOutcome) -> bool {
    let (stab_str, ws_str, has_correct) = match fd.stabilization {
        Some(s) => (
            s.step.to_string(),
            s.winnerset.to_string(),
            !s.winnerset.intersection(row.correct).is_empty(),
        ),
        None => ("-".into(), "-".into(), false),
    };
    table.row([
        row.n.to_string(),
        row.k.to_string(),
        row.t.to_string(),
        row.schedule.to_string(),
        row.crashed.len().to_string(),
        fd.membership
            .map_or("no".into(), |tp| format!("yes(b={})", tp.bound)),
        stab_str,
        ws_str,
        if fd.stabilization.is_some() {
            has_correct.to_string()
        } else {
            "-".into()
        },
        fd.witness.map_or("violated".to_string(), |w| {
            format!("holds (c={})", w.trusted)
        }),
    ]);
    if row.expect_converge {
        fd.membership.is_some() && fd.stabilization.is_some() && has_correct && fd.witness.is_some()
    } else {
        // The negative control row is informational: an oblivious adversary
        // is not guaranteed to defeat the detector on every finite budget
        // (the defeating schedule of the impossibility proof is adaptive —
        // see E4/E5). The row shows what happened; it never fails E2.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_matches_paper() {
        let result = run(&LabConfig::fast());
        assert!(result.pass, "{}", result.render());
        // Golden: the campaign port reproduces the pre-port tables byte for
        // byte at the fixed seed.
        // (The golden file was captured via `stlab`, whose `println!` adds
        // one trailing newline to the render.)
        assert_eq!(
            format!("{}\n", result.render()),
            include_str!("../tests/golden/e2_fast.txt"),
            "E2 output drifted from the golden table"
        );
    }
}
