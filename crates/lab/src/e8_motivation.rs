//! E8 — the paper's motivation, measured: set timeliness succeeds where
//! process timeliness fails.
//!
//! Section 1 of the paper argues that per-process timeliness (the basis of
//! earlier partial-synchrony models) cannot capture sub-consensus synchrony:
//! a set of processes may be timely *as a set* while every member flaps.
//! This experiment runs the two detectors side by side on exactly such a
//! schedule ([`st_sched::AlternatingRotation`]: groups
//! alternate strictly, representatives rotate on growing runs):
//!
//! - the paper's **set-based** Figure 2 k-anti-Ω stabilizes quickly on one
//!   of the groups;
//! - the **process-based** baseline (same machinery, singleton candidates)
//!   keeps flapping for the whole run — every individual's accusation
//!   counter grows forever.
//!
//! The side-by-side is a campaign: per case, one scenario with the
//! set-based detector and one with the process-based baseline (both one
//! automaton slot per process), over the same alternating-rotation
//! generator spec. The scenarios name [`FdAbi::Async`], which runs the slot
//! drive: the value stays because it is part of their spec and store key.

use st_campaign::{Campaign, FdAbi, FdDetector, Scenario, Workload};
use st_core::{ProcSet, Universe};
use st_fd::TimeoutPolicy;
use st_sched::GeneratorSpec;

use crate::config::{ExperimentResult, LabConfig};
use crate::table::Table;

/// Runs E8.
pub fn run(cfg: &LabConfig) -> ExperimentResult {
    let mut table = Table::new([
        "n",
        "k",
        "t",
        "detector",
        "stabilized@step",
        "winnerset",
        "late_flaps",
    ]);
    let mut pass = true;
    let budget = cfg.budget(1_600_000);

    let cases: &[(usize, Vec<ProcSet>)] = &[
        (
            4,
            vec![ProcSet::from_indices([0, 1]), ProcSet::from_indices([2, 3])],
        ),
        (
            6,
            vec![
                ProcSet::from_indices([0, 1, 2]),
                ProcSet::from_indices([3, 4, 5]),
            ],
        ),
    ];
    let cases = if cfg.fast { &cases[..1] } else { cases };

    let mut campaign = Campaign::new();
    let mut rows: Vec<(usize, usize, usize, &Vec<ProcSet>)> = Vec::new();
    for (n, groups) in cases {
        let n = *n;
        let k = groups[0].len();
        let t = n - 2; // maximal t with the witness group as a k-set
        let t = t.max(k);
        let universe = Universe::new(n).unwrap();
        let spec = GeneratorSpec::AlternatingRotation {
            groups: groups.clone(),
            base: 8,
        };
        for detector in [FdDetector::SetBased, FdDetector::ProcessBased] {
            campaign.push(Scenario::new(
                "motivation",
                universe,
                spec.clone(),
                Workload::FdConvergence {
                    k,
                    t,
                    policy: TimeoutPolicy::Increment,
                    abi: FdAbi::Async,
                    detector,
                    certify_membership: false,
                },
                budget,
                cfg.seed,
            ));
        }
        rows.push((n, k, t, groups));
    }

    let outcomes = cfg.run_campaign("e8", &campaign);
    pass &= crate::config::violation_free(&outcomes);
    for ((n, k, t, groups), pair) in rows.iter().zip(outcomes.chunks(2)) {
        // Set-based Figure 2.
        let set_fd = pair[0].data.as_fd().expect("FD campaign");
        match set_fd.stabilization {
            Some(s) if set_fd.late_flaps == 0 => {
                // The stabilized winnerset must be one of the timely groups.
                let is_group = groups.contains(&s.winnerset);
                table.row([
                    n.to_string(),
                    k.to_string(),
                    t.to_string(),
                    "set-based (Figure 2)".to_string(),
                    s.step.to_string(),
                    s.winnerset.to_string(),
                    set_fd.late_flaps.to_string(),
                ]);
                pass &= is_group && s.step < budget / 2;
            }
            _ => {
                table.row([
                    n.to_string(),
                    k.to_string(),
                    t.to_string(),
                    "set-based (Figure 2)".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    set_fd.late_flaps.to_string(),
                ]);
                pass = false;
            }
        }

        // Process-based baseline on the same workload.
        let base_fd = pair[1].data.as_fd().expect("FD campaign");
        table.row([
            n.to_string(),
            k.to_string(),
            t.to_string(),
            "process-based baseline".to_string(),
            "flapping".to_string(),
            "-".to_string(),
            base_fd.late_flaps.to_string(),
        ]);
        pass &= base_fd.late_flaps > 0;
    }

    ExperimentResult {
        id: "E8",
        title: "Motivation — set timeliness succeeds where process timeliness fails",
        tables: vec![("detectors on a set-timely-only schedule".into(), table)],
        notes: vec![
            "workload: groups alternate strictly; every individual flaps (generalized Figure 1)"
                .into(),
            "Figure 2 locks onto a timely group; the per-process baseline never settles".into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_matches_motivation() {
        let result = run(&LabConfig::fast());
        assert!(result.pass, "{}", result.render());
        // Golden: the campaign port reproduces the pre-port tables byte for
        // byte at the fixed seed (trailing newline from the capture).
        assert_eq!(
            format!("{}\n", result.render()),
            include_str!("../tests/golden/e8_fast.txt"),
            "E8 output drifted from the golden table"
        );
    }
}
