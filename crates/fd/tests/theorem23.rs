//! End-to-end tests of Theorem 23: the Figure 2 algorithm implements
//! t-resilient k-anti-Ω in system `S^k_{t+1,n}` — and visibly fails to
//! converge outside it.

use st_core::timeliness::TimelinessAnalyzer;
use st_core::{ProcSet, ProcessId, StepSource, Universe};
use st_fd::convergence::{kanti_omega_witness, winnerset_stabilization};
use st_fd::{KAntiOmega, KAntiOmegaConfig, TimeoutPolicy};
use st_sched::{CrashAfter, CrashPlan, RotatingStarvation, SeededRandom, SetTimely};
use st_sim::{RunConfig, RunReport, Sim};

/// Runs Figure 2 on all processes under the given source; returns the report.
fn run_fd<S: StepSource>(
    n: usize,
    config: KAntiOmegaConfig,
    src: &mut S,
    budget: u64,
) -> RunReport {
    let universe = Universe::new(n).unwrap();
    let mut sim = Sim::new(universe);
    let fd = KAntiOmega::alloc(&mut sim, config);
    let mut fleet: Vec<_> = universe.processes().map(|_| fd.machine()).collect();
    sim.run_automata(&mut fleet, src, RunConfig::steps(budget))
        .unwrap();
    sim.report()
}

/// Theorem 23, fault-free: on a set-timely schedule every correct process
/// converges to one common winnerset containing a correct process
/// (Lemma 22), hence the k-anti-Ω property holds.
#[test]
fn converges_in_matching_system_fault_free() {
    for (n, k, t) in [(3, 1, 1), (3, 1, 2), (4, 2, 2), (4, 1, 3), (5, 2, 3)] {
        let universe = Universe::new(n).unwrap();
        // Timely pair: P = {p0..p_{k-1}} wrt Q = {p0..p_t} with bound 2(t+1).
        let p: ProcSet = (0..k).map(ProcessId::new).collect();
        let q: ProcSet = (0..=t).map(ProcessId::new).collect();
        let generator = || SetTimely::new(p, q, 2 * (t + 1), SeededRandom::new(universe, 7));
        let report = run_fd(n, KAntiOmegaConfig::new(k, t), &mut generator(), 400_000);
        let correct = ProcSet::full(universe);

        // Premise first: the executed schedule — a fresh build of the
        // generator, cut at the steps the run executed — really is in
        // S^k_{t+1,n}, so the convergence claims are about the same trace.
        let executed = generator().take_schedule(report.steps as usize);
        let membership = TimelinessAnalyzer::new(universe)
            .find_timely_pair(&executed, k, t + 1, 2 * (t + 1))
            .unwrap_or_else(|| panic!("schedule not in S^{k}_{{{},{n}}}", t + 1));
        assert_eq!(membership.p.len(), k);
        assert_eq!(membership.q.len(), t + 1);

        let stab = winnerset_stabilization(&report, correct)
            .unwrap_or_else(|| panic!("no stabilization for n={n} k={k} t={t}"));
        assert_eq!(stab.winnerset.len(), k);
        assert!(
            !stab.winnerset.intersection(correct).is_empty(),
            "winnerset must contain a correct process"
        );
        let witness = kanti_omega_witness(&report, correct).expect("k-anti-Ω property");
        assert!(stab.winnerset.contains(witness.trusted));
    }
}

/// Theorem 23 with crashes: t processes crash; the common winnerset still
/// contains a correct process (Lemma 20).
#[test]
fn converges_with_t_crashes() {
    for (n, k, t, seed) in [(4, 1, 2, 1u64), (5, 2, 2, 2), (5, 1, 3, 3)] {
        let universe = Universe::new(n).unwrap();
        // P must stay live: crash the top-t processes, keep {p0..p_{k-1}}.
        let p: ProcSet = (0..k).map(ProcessId::new).collect();
        let q: ProcSet = (0..=t).map(ProcessId::new).collect();
        let crashed: ProcSet = ((n - t)..n).map(ProcessId::new).collect();
        assert!(p.is_disjoint(crashed));
        let plan = CrashPlan::all_at(crashed, 3_000);
        let filler = CrashAfter::new(SeededRandom::new(universe, seed), plan.clone());
        let mut src = SetTimely::new(p, q, 2 * (t + 1), filler).with_crashes(plan);
        let report = run_fd(n, KAntiOmegaConfig::new(k, t), &mut src, 600_000);
        let correct = crashed.complement(universe);

        let stab = winnerset_stabilization(&report, correct)
            .unwrap_or_else(|| panic!("no stabilization for n={n} k={k} t={t}"));
        assert!(
            !stab.winnerset.intersection(correct).is_empty(),
            "n={n} k={k} t={t}: winnerset {} has no correct member (correct = {})",
            stab.winnerset,
            correct
        );
        assert!(kanti_omega_witness(&report, correct).is_some());
    }
}

/// Fully crashed candidate sets are eventually excluded (Lemma 17): if the
/// initial winner {p0} crashes, the FD moves off it.
#[test]
fn moves_off_crashed_winner() {
    let n = 3;
    let universe = Universe::new(n).unwrap();
    let crashed = ProcSet::from_indices([0]);
    let p = ProcSet::from_indices([1]);
    let q = ProcSet::from_indices([1, 2]);
    let plan = CrashPlan::all_at(crashed, 2_000);
    let filler = CrashAfter::new(SeededRandom::new(universe, 9), plan.clone());
    let mut src = SetTimely::new(p, q, 4, filler).with_crashes(plan);
    let report = run_fd(n, KAntiOmegaConfig::new(1, 1), &mut src, 400_000);
    let correct = ProcSet::from_indices([1, 2]);
    let stab = winnerset_stabilization(&report, correct).expect("stabilizes");
    assert!(
        !stab.winnerset.contains(ProcessId::new(0)),
        "crashed p0 must leave the winnerset, got {}",
        stab.winnerset
    );
}

/// Outside `S^k_{t+1,n}`: under rotating starvation of every size-k set the
/// detector keeps flapping — no common winnerset in the same budget that
/// suffices amply above.
#[test]
fn keeps_flapping_under_rotating_starvation() {
    let n = 4;
    let k = 1;
    let t = 1;
    let universe = Universe::new(n).unwrap();
    let mut src = RotatingStarvation::new(universe, k);
    let report = run_fd(n, KAntiOmegaConfig::new(k, t), &mut src, 400_000);
    let correct = ProcSet::full(universe);
    // Either no common final winnerset, or late flapping is still visible:
    // some process changed its output in the last quarter of the run.
    let stab = winnerset_stabilization(&report, correct);
    let late_changes: usize = correct
        .iter()
        .map(|p| st_fd::convergence::changes_after(&report, p, 300_000))
        .sum();
    assert!(
        stab.is_none() || late_changes > 0,
        "unexpected convergence under starvation: {stab:?}, late_changes={late_changes}"
    );
}

/// The doubling ablation converges too (faster in iterations, same
/// destination).
#[test]
fn doubling_policy_also_converges() {
    let n = 4;
    let (k, t) = (1, 2);
    let universe = Universe::new(n).unwrap();
    let p = ProcSet::from_indices([0]);
    let q = ProcSet::from_indices([0, 1, 2]);
    for policy in [TimeoutPolicy::Increment, TimeoutPolicy::Double] {
        let mut src = SetTimely::new(p, q, 6, SeededRandom::new(universe, 21));
        let report = run_fd(
            n,
            KAntiOmegaConfig::new(k, t).with_policy(policy),
            &mut src,
            400_000,
        );
        let stab = winnerset_stabilization(&report, ProcSet::full(universe));
        assert!(stab.is_some(), "policy {policy:?} failed to converge");
    }
}
