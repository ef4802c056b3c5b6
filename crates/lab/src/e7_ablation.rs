//! E7 — ablations of two design choices: the Figure 2 timeout policy and
//! the synchrony quality of the schedule.
//!
//! 1. **Timeout policy** (Figure 2 line 17): the paper's increment-by-one
//!    versus doubling. Doubling reaches a sufficient timeout in
//!    exponentially fewer expirations, so convergence should come earlier in
//!    steps, at the cost of overshooting timeouts.
//! 2. **Synchrony quality**: stabilization step as a function of the
//!    enforced timeliness bound of the schedule — worse bounds (weaker
//!    synchrony) must push convergence later, tracing the "cost of partial
//!    synchrony" curve.
//!
//! Both ablations are one campaign: policy and bound axes become scenarios
//! over the FD-convergence workload on the typed machine fleet (static
//! dispatch, the simulator's fastest scalar drive) and run in parallel — the multi-million-step sweeps are where `--threads`
//! actually pays.

use st_campaign::{Campaign, FdAbi, FdDetector, Scenario, Workload};
use st_core::{ProcSet, ProcessId};
use st_fd::TimeoutPolicy;
use st_sched::GeneratorSpec;

use crate::config::{ExperimentResult, LabConfig};
use crate::table::Table;

fn fleet_workload(k: usize, t: usize, policy: TimeoutPolicy) -> Workload {
    Workload::FdConvergence {
        k,
        t,
        policy,
        abi: FdAbi::MachineFleet,
        detector: FdDetector::SetBased,
        certify_membership: false,
    }
}

/// Runs E7.
pub fn run(cfg: &LabConfig) -> ExperimentResult {
    let mut pass = true;

    let (n, k, t) = (4usize, 1usize, 2usize);
    let universe = st_core::Universe::new(n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q: ProcSet = (0..=t).map(ProcessId::new).collect();
    let loose_bound = if cfg.fast { 24 } else { 48 };
    let policies = [TimeoutPolicy::Increment, TimeoutPolicy::Double];
    let bounds: &[usize] = if cfg.fast {
        &[4, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };

    // Ablation 1: timeout policy, at a deliberately loose schedule bound so
    // that timers must grow substantially before convergence.
    let mut campaign = Campaign::new();
    for policy in policies {
        campaign.push(Scenario::new(
            "policy",
            universe,
            GeneratorSpec::set_timely(p, q, loose_bound, GeneratorSpec::seeded_random(0)),
            fleet_workload(k, t, policy),
            cfg.budget(6_000_000),
            cfg.seed,
        ));
    }
    // Ablation 2: synchrony quality sweep (paper policy).
    for &bound in bounds {
        campaign.push(Scenario::new(
            "bound",
            universe,
            GeneratorSpec::set_timely(p, q, bound, GeneratorSpec::seeded_random(1)),
            fleet_workload(k, t, TimeoutPolicy::Increment),
            cfg.budget(8_000_000),
            cfg.seed,
        ));
    }
    let outcomes = cfg.run_campaign("e7", &campaign);
    pass &= crate::config::violation_free(&outcomes);
    let stabs: Vec<Option<u64>> = outcomes
        .iter()
        .map(|o| {
            o.data
                .as_fd()
                .expect("FD campaign")
                .stabilization
                .map(|s| s.step)
        })
        .collect();
    let (policy_stabs, bound_stabs) = stabs.split_at(policies.len());

    let mut policy_table = Table::new(["n", "k", "t", "bound", "policy", "stabilized@step"]);
    for (policy, stab) in policies.iter().zip(policy_stabs) {
        policy_table.row([
            n.to_string(),
            k.to_string(),
            t.to_string(),
            loose_bound.to_string(),
            format!("{policy:?}"),
            stab.map_or("-".into(), |s| s.to_string()),
        ]);
    }
    // Both must converge; doubling must not be slower.
    pass &= policy_stabs.iter().all(|r| r.is_some());
    if let [Some(inc), Some(dbl)] = policy_stabs[..] {
        pass &= dbl <= inc;
    }

    let mut sweep_table = Table::new(["bound", "stabilized@step"]);
    let mut prev: Option<u64> = None;
    let mut monotone_violations = 0usize;
    for (&bound, &stab) in bounds.iter().zip(bound_stabs) {
        sweep_table.row([
            bound.to_string(),
            stab.map_or("-".into(), |s| s.to_string()),
        ]);
        pass &= stab.is_some();
        if let (Some(prev_s), Some(s)) = (prev, stab) {
            // Stabilization tracks the *observed* worst gap of the filler,
            // which saturates once the enforced cap exceeds it: large bounds
            // plateau. Count only genuine decreases (beyond 5% of the
            // plateau level) as inversions.
            if s < prev_s - prev_s / 20 {
                monotone_violations += 1;
            }
        }
        prev = stab;
    }
    // The trend must be non-decreasing up to the plateau (tolerate one
    // genuine local inversion from scheduling noise).
    pass &= monotone_violations <= 1;

    ExperimentResult {
        id: "E7",
        title: "Ablations — timeout policy and synchrony quality",
        tables: vec![
            ("timeout policy (Figure 2 line 17)".into(), policy_table),
            ("stabilization vs schedule bound".into(), sweep_table),
        ],
        notes: vec![
            "doubling converges no later than increment at loose bounds".into(),
            "weaker synchrony (larger bound) delays convergence until the filler's \
             observed worst gap, not the enforced cap, dominates (plateau)"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_matches_expectations() {
        let result = run(&LabConfig::fast());
        assert!(result.pass, "{}", result.render());
        // Golden: the campaign port reproduces the pre-port tables byte for
        // byte at the fixed seed (trailing newline from the capture).
        assert_eq!(
            format!("{}\n", result.render()),
            include_str!("../tests/golden/e7_fast.txt"),
            "E7 output drifted from the golden table"
        );
    }
}
