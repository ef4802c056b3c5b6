//! E4 — Theorem 26: the boundary between `S^k_{n,n}` and `S^{k+1}_{n,n}`.
//!
//! For `(k,k,n)`-agreement: on the solvable side (`S^k_{n,n}`, via a
//! conforming schedule) the stack decides; on the unsolvable side
//! (`S^{k+1}_{n,n}`) the **adaptive adversary** blocks every decision
//! forever while freezing at most `k` processes at a time, so every
//! `(k+1)`-set stays timely — certified post hoc with the analyzer. Safety
//! holds on both sides.
//!
//! Both sides are campaign scenarios: the solvable side is the agreement
//! workload over a conforming `SetTimely` spec, the unsolvable side is the
//! [`Workload::AdversarialAgreement`] workload (the adversary constructs
//! its schedule adaptively; the generator spec is a placeholder). Both run
//! the stack `AgreementStack` spawns, one machine per process.

use st_campaign::{Campaign, Scenario, Workload};
use st_core::{AgreementTask, ProcSet, ProcessId, Value};
use st_fd::TimeoutPolicy;
use st_sched::GeneratorSpec;

use crate::config::{ExperimentResult, LabConfig};
use crate::table::Table;

fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|v| 500 + 3 * v).collect()
}

/// Runs E4.
pub fn run(cfg: &LabConfig) -> ExperimentResult {
    let mut table = Table::new([
        "task",
        "side",
        "schedule",
        "decided",
        "safe",
        "max_frozen",
        "certificate",
    ]);
    let mut pass = true;

    let grid: &[(usize, usize)] = if cfg.fast {
        &[(1, 3)]
    } else {
        &[(1, 3), (1, 4), (2, 4), (2, 5)]
    };

    let mut campaign = Campaign::new();
    for &(k, n) in grid {
        let universe = AgreementTask::new(k, k, n).unwrap().universe();
        let full = ProcSet::full(universe);

        // Solvable side: S^k_{n,n} — a size-k set timely wrt everyone.
        let p: ProcSet = (0..k).map(ProcessId::new).collect();
        campaign.push(Scenario::new(
            "solvable",
            universe,
            GeneratorSpec::set_timely(p, full, 2 * n, GeneratorSpec::seeded_random(0)),
            Workload::Agreement {
                t: k,
                k,
                inputs: inputs(n),
                policy: TimeoutPolicy::Increment,
                certify: None,
            },
            cfg.budget(4_000_000),
            cfg.seed,
        ));

        // Unsolvable side: S^{k+1}_{n,n} — adaptive adversary.
        let witness_p: ProcSet = (0..=k).map(ProcessId::new).collect(); // size k+1
        campaign.push(Scenario::new(
            "unsolvable",
            universe,
            GeneratorSpec::round_robin(), // ignored: the adversary schedules
            Workload::AdversarialAgreement {
                t: k,
                k,
                inputs: inputs(n),
                policy: TimeoutPolicy::Increment,
                precrashed: ProcSet::EMPTY,
                witness: Some((witness_p, full)),
            },
            cfg.budget(1_200_000),
            cfg.seed,
        ));
    }

    let outcomes = cfg.run_campaign("e4", &campaign);
    pass &= crate::config::violation_free(&outcomes);
    for (&(k, n), pair) in grid.iter().zip(outcomes.chunks(2)) {
        let task = AgreementTask::new(k, k, n).unwrap();

        let run = pair[0].data.as_agreement().expect("solvable side");
        table.row([
            task.to_string(),
            format!("S^{k}_{{{n},{n}}}"),
            "SetTimely".to_string(),
            run.decided_count().to_string(),
            run.safe.to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        pass &= run.clean;

        let adv = pair[1].data.as_adversarial().expect("unsolvable side");
        let cert = adv.certificate.expect("requested");
        table.row([
            task.to_string(),
            format!("S^{}_{{{n},{n}}}", k + 1),
            "AdaptiveAdversary".to_string(),
            adv.decided.to_string(),
            adv.safe.to_string(),
            adv.max_frozen.to_string(),
            format!("{} wrt Π_{n} bound {}", cert.p, cert.bound),
        ]);
        pass &= adv.blocked && adv.safe && adv.max_frozen <= k && cert.bound <= 4 * n;
    }

    ExperimentResult {
        id: "E4",
        title: "Theorem 26 — (k,k,n) solvable in S^k_{n,n}, not in S^{k+1}_{n,n}",
        tables: vec![("boundary runs".into(), table)],
        notes: vec![
            "unsolvable side: ≤ k frozen at a time keeps every (k+1)-set timely (certified), \
             yet no process ever decides — the operational content of the BG reduction"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_matches_paper() {
        let result = run(&LabConfig::fast());
        assert!(result.pass, "{}", result.render());
        // Golden: the campaign port reproduces the pre-port tables byte for
        // byte at the fixed seed (trailing newline from the capture).
        assert_eq!(
            format!("{}\n", result.render()),
            include_str!("../tests/golden/e4_fast.txt"),
            "E4 output drifted from the golden table"
        );
    }
}
