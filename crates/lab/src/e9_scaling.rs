//! E9 — n-scaling: the paper's stack at k = 1, n ∈ {64, 256, 1024}.
//!
//! Every other experiment lives at paper scale (n ≤ 6) where the
//! `ProcSet`-based detectors apply. This experiment scales the Figure 2
//! machine at k = 1 (O(n) state per process) and the k-set agreement
//! machine on top of it — built by the `LeanOmega` / `LeanConsensus`
//! constructors, which pin k = 1 and the set width — to universe sizes
//! beyond `st_core::PROCSET_CAPACITY`, and runs every cell **twice**, under
//! the `plain` and the `soa` fleet-drive names. Both names run one drive
//! (`Sim::run_automata`, which batches by itself), so the rows of a pair
//! agree by construction and compare nothing; they stay because the
//! rendered table is a golden. The large-n check of the batched engine
//! against the scalar replay is `st-agreement`'s `tests/soa_differential.rs`
//! (`wide_kanti_fleet_identical_at_n256`, `lean_fd_fleet_identical_at_n1024`).
//!
//! Schedule shape: [`GeneratorSpec::bursty`] with a dwell of one full k = 1
//! FD iteration (n² + n + 2 steps), so each turn completes a whole
//! heartbeat scan uncontended. One rotation is then ~n³ fleet steps, which
//! is why n = 1024 rows are **budget-bounded informational**: a rotation
//! would be ~10⁹ steps, so those rows run a fixed budget, are checked for
//! invariant violations, and are exempt from the stabilization/decision
//! expectations (rendered as `cap` in the expectation column).
//!
//! The size axis is `LabConfig::sizes()`: `{64}` in fast mode,
//! `{64, 256, 1024}` in full mode, `stlab --sizes` to override.
//!
//! # The second grid: the same machine at other parameters
//!
//! A second grid runs the same `KAntiOmegaMachine` through
//! `Workload::WideFdConvergence` at every size on the axis up to n = 256:
//! the narrowest set width that holds `n` instead of the fixed one, a
//! dwell of exactly one accusation-free iteration (`wide_iteration`, one
//! step shorter than `burst` at k = 1 — which is all that separates its
//! k = 1 rows from the first table's convergence rows), k = 2 as well, and
//! the winnerset reported by rank and members rather than as a leader
//! index; the same (plain, SoA) pairing applies. k = 1 rows
//! are expected to stabilize within four bursty rotations; k = 2 rows
//! (full mode only — `|Π²_n|·n` steps per iteration is test-suite hostile)
//! follow the same budget-cap rule as the lean grid. Sizes above 256 are
//! skipped: one k = 1 rotation is `(n² + n + 1)·n ≈ 10⁹` steps at
//! n = 1024, past the budget cap before the detector finishes a transient.

use st_campaign::{Campaign, FleetReplayDrive, LeanOutcome, Scenario, Workload};
use st_core::Universe;
use st_fd::TimeoutPolicy;
use st_sched::GeneratorSpec;

use crate::config::{ExperimentResult, LabConfig};
use crate::table::Table;

/// Budget ceiling per row: large enough for every expected-to-converge
/// cell at n ≤ 256. It bounds run time only — a fleet run streams its
/// schedule, so memory does not follow the budget — and the golden tables
/// pin its value (which rows render as `cap`).
const BUDGET_CAP: u64 = 128_000_000;

/// Budget for rows whose universe is so large a single rotation exceeds
/// the cap — informational cells, run for violation-checking only.
const INFORMATIONAL_BUDGET: u64 = 16_000_000;

struct Row {
    n: usize,
    workload: &'static str,
    drive: &'static str,
    /// Whether the budget covers the rotations stabilization needs.
    expect: bool,
}

/// The dwell of one full k = 1 FD iteration: the n² counter reads, the
/// heartbeat write and n heartbeat reads, and the decision-scan step the
/// agreement machine adds.
fn burst(n: usize) -> u64 {
    (n * n + n + 2) as u64
}

fn budgets(n: usize) -> (u64, u64, bool) {
    let rotation = burst(n) * n as u64;
    // The detector's counter matrix equalizes over a ~3-iteration transient
    // (initial timeouts are 1, so iteration one accuses everyone; the
    // staircase of mid-rotation counter states flaps the argmin once
    // before it settles) — four rotations are one of margin. Consensus
    // additionally needs the leader's decision to spread: six.
    let conv = 4 * rotation;
    let agree = 6 * rotation;
    if rotation > BUDGET_CAP {
        (INFORMATIONAL_BUDGET, INFORMATIONAL_BUDGET, false)
    } else {
        (
            conv.min(BUDGET_CAP),
            agree.min(BUDGET_CAP),
            agree <= BUDGET_CAP,
        )
    }
}

/// Runs E9.
pub fn run(cfg: &LabConfig) -> ExperimentResult {
    let mut table = Table::new([
        "n",
        "workload",
        "drive",
        "budget",
        "status",
        "stabilized@step",
        "leader",
        "pubs",
        "late_flaps",
        "decided",
        "distinct",
        "expectation",
    ]);
    let mut pass = true;

    let t_of = |n: usize| (n / 16).max(1); // same resilience fraction at every size
    let drives = [
        ("plain", FleetReplayDrive::Plain),
        ("soa", FleetReplayDrive::Soa { slice_len: 64 }),
    ];

    let mut campaign = Campaign::new();
    let mut rows: Vec<Row> = Vec::new();
    for &n in &cfg.sizes() {
        let universe = Universe::new(n).expect("size axis within MAX_PROCESSES");
        let (conv_budget, agree_budget, expect) = budgets(n);
        let spec = GeneratorSpec::bursty(burst(n));
        for (drive_name, drive) in drives {
            campaign.push(Scenario::new(
                format!("n{n}/convergence/{drive_name}"),
                universe,
                spec.clone(),
                Workload::LeanConvergence {
                    t: t_of(n),
                    policy: TimeoutPolicy::Increment,
                    drive,
                },
                conv_budget,
                cfg.seed,
            ));
            rows.push(Row {
                n,
                workload: "convergence",
                drive: drive_name,
                expect,
            });
        }
        for (drive_name, drive) in drives {
            campaign.push(Scenario::new(
                format!("n{n}/agreement/{drive_name}"),
                universe,
                spec.clone(),
                Workload::LeanAgreement {
                    t: t_of(n),
                    policy: TimeoutPolicy::Increment,
                    drive,
                },
                agree_budget,
                cfg.seed,
            ));
            rows.push(Row {
                n,
                workload: "agreement",
                drive: drive_name,
                expect,
            });
        }
    }

    let outcomes = cfg.run_campaign("e9", &campaign);
    pass &= crate::config::violation_free(&outcomes);

    let mut notes = Vec::new();
    for (pair, outcome_pair) in rows.chunks(2).zip(outcomes.chunks(2)) {
        // Rows come in (plain, soa) pairs per (n, workload) cell. Both
        // names run one engine at one slice length, so the rows must match
        // (see the module doc for where the engine meets the scalar replay).
        let (row, lean) = (&pair[0], lean_of(&outcome_pair[0].data));
        let soa_lean = lean_of(&outcome_pair[1].data);
        let identical = lean == soa_lean;
        pass &= identical;
        if !identical {
            notes.push(format!(
                "DRIVE DIVERGENCE at n={} {}: plain {:?} vs soa {:?}",
                row.n, row.workload, lean, soa_lean
            ));
        }
        for (r, o) in pair.iter().zip(outcome_pair) {
            let l = lean_of(&o.data);
            pass &= record(&mut table, r, l, o.label.contains("convergence"));
        }
    }
    notes.push(format!(
        "size axis {:?}; every (n, workload) cell runs plain and SoA fleet drives — rows must match",
        cfg.sizes()
    ));
    notes.push(
        "n = 1024 rows (full mode) are budget-bounded informational: a single bursty rotation \
         exceeds the budget cap, so they are violation-checked but exempt from stabilization"
            .into(),
    );

    let (wide_table, wide_pass) = run_wide_grid(cfg, &mut notes);
    pass &= wide_pass;

    ExperimentResult {
        id: "E9",
        title: "n-scaling — the lean O(n)-state stack beyond PROCSET_CAPACITY",
        tables: vec![
            ("n-scaling grid".into(), table),
            (
                "paper-detector n-scaling (KAntiOmega, wide sets)".into(),
                wide_table,
            ),
        ],
        notes,
        pass,
    }
}

/// Largest universe the wide paper-detector grid runs at: one k = 1
/// rotation at n = 1024 exceeds [`BUDGET_CAP`] before the transient ends.
const WIDE_MAX_N: usize = 256;

struct WideRow {
    n: usize,
    k: usize,
    drive: &'static str,
    budget: u64,
    expect: bool,
}

/// One full Figure 2 loop iteration for the width-generic detector:
/// `|Π^k_n|·n` counter reads + 1 heartbeat write + `n` heartbeat reads
/// (`KAntiOmega::steps_per_iteration(0)`).
fn wide_iteration(n: usize, k: usize) -> u64 {
    st_core::subsets::binomial(n, k) * n as u64 + 1 + n as u64
}

fn wide_budget(n: usize, k: usize) -> (u64, bool) {
    let rotation = wide_iteration(n, k) * n as u64;
    let conv = 4 * rotation;
    if rotation > BUDGET_CAP {
        (INFORMATIONAL_BUDGET, false)
    } else {
        (conv.min(BUDGET_CAP), conv <= BUDGET_CAP)
    }
}

/// The paper-detector half of E9: `Workload::WideFdConvergence` cells in
/// (plain, soa) pairs over the size axis clamped to [`WIDE_MAX_N`].
fn run_wide_grid(cfg: &LabConfig, notes: &mut Vec<String>) -> (Table, bool) {
    let mut table = Table::new([
        "n",
        "k",
        "drive",
        "budget",
        "status",
        "stabilized@step",
        "winnerset",
        "pubs",
        "late_flaps",
        "expectation",
    ]);
    let mut pass = true;

    let t_of = |n: usize| (n / 16).max(1);
    let drives = [
        ("plain", FleetReplayDrive::Plain),
        ("soa", FleetReplayDrive::Soa { slice_len: 64 }),
    ];
    // k = 2 squares the per-iteration cost (`|Π²_n|·n`): paper-grade runs
    // only.
    let ks: &[usize] = if cfg.fast { &[1] } else { &[1, 2] };

    let mut campaign = Campaign::new();
    let mut rows: Vec<WideRow> = Vec::new();
    for &n in &cfg.sizes() {
        if n > WIDE_MAX_N {
            continue;
        }
        let universe = Universe::new(n).expect("size axis within MAX_PROCESSES");
        for &k in ks {
            if k == 2 && n > 128 {
                continue; // one k = 2 rotation at n = 256 dwarfs the cap
            }
            let (budget, expect) = wide_budget(n, k);
            let spec = GeneratorSpec::bursty(wide_iteration(n, k));
            for (drive_name, drive) in drives {
                campaign.push(Scenario::new(
                    format!("n{n}/wide-k{k}/{drive_name}"),
                    universe,
                    spec.clone(),
                    Workload::WideFdConvergence {
                        k,
                        t: t_of(n).max(k),
                        policy: TimeoutPolicy::Increment,
                        drive,
                    },
                    budget,
                    cfg.seed,
                ));
                rows.push(WideRow {
                    n,
                    k,
                    drive: drive_name,
                    budget,
                    expect,
                });
            }
        }
    }

    let outcomes = cfg.run_campaign("e9-wide", &campaign);
    pass &= crate::config::violation_free(&outcomes);

    for (pair, outcome_pair) in rows.chunks(2).zip(outcomes.chunks(2)) {
        let row = &pair[0];
        let wide = wide_of(&outcome_pair[0].data);
        let soa_wide = wide_of(&outcome_pair[1].data);
        let identical = wide == soa_wide;
        pass &= identical;
        if !identical {
            notes.push(format!(
                "DRIVE DIVERGENCE at n={} k={} (paper detector): plain {:?} vs soa {:?}",
                row.n, row.k, wide, soa_wide
            ));
        }
        for (r, o) in pair.iter().zip(outcome_pair) {
            let w = wide_of(&o.data);
            let (stab_str, ws_str) = match &w.stabilization {
                Some(s) => (s.step.to_string(), format!("|{}|", s.members.len())),
                None => ("-".into(), "-".into()),
            };
            table.row([
                r.n.to_string(),
                r.k.to_string(),
                r.drive.to_string(),
                format!("{}k", r.budget / 1_000),
                format!("{:?}", w.status),
                stab_str,
                ws_str,
                w.publications.to_string(),
                w.late_flaps.to_string(),
                if r.expect { "converge" } else { "cap" }.to_string(),
            ]);
            if r.expect {
                let ok = w
                    .stabilization
                    .as_ref()
                    .is_some_and(|s| s.members.len() == r.k);
                pass &= ok;
                if !ok {
                    notes.push(format!(
                        "paper detector failed to stabilize to a k-set at n={} k={} ({})",
                        r.n, r.k, r.drive
                    ));
                }
            }
        }
    }
    notes.push(format!(
        "paper-detector grid: KAntiOmega on WideProcSet universes, k ∈ {ks:?}, sizes clamped \
         to n ≤ {WIDE_MAX_N}; same plain/SoA pairing discipline as the lean grid"
    ));

    (table, pass)
}

fn wide_of(data: &st_campaign::OutcomeData) -> &st_campaign::WideFdOutcome {
    data.as_wide_fd().expect("e9-wide is a wide-fd campaign")
}

fn lean_of(data: &st_campaign::OutcomeData) -> &LeanOutcome {
    data.as_lean().expect("E9 is a lean campaign")
}

fn record(table: &mut Table, row: &Row, l: &LeanOutcome, convergence: bool) -> bool {
    let (stab_str, leader_str) = match &l.stabilization {
        Some(s) => (s.step.to_string(), format!("p{}", s.leader)),
        None => ("-".into(), "-".into()),
    };
    table.row([
        row.n.to_string(),
        row.workload.to_string(),
        row.drive.to_string(),
        budget_str(row),
        format!("{:?}", l.status),
        stab_str,
        leader_str,
        l.publications.to_string(),
        l.late_flaps.to_string(),
        l.decided.to_string(),
        l.distinct_values.len().to_string(),
        if row.expect { "converge" } else { "cap" }.to_string(),
    ]);
    if !row.expect {
        return true; // informational row: violation-checking only
    }
    if convergence {
        l.stabilization.is_some()
    } else {
        // Agreement: one decided value, spread to a majority. Leader
        // stabilization is not expected here — machines halt on decision,
        // freezing their leader publications wherever the transient stood.
        l.distinct_values.len() == 1 && l.decided > row.n / 2
    }
}

fn budget_str(row: &Row) -> String {
    let (conv, agree, _) = budgets(row.n);
    let b = if row.workload == "convergence" {
        conv
    } else {
        agree
    };
    format!("{}k", b / 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_fast_converges_and_drives_agree() {
        let result = run(&LabConfig::fast());
        assert!(result.pass, "{}", result.render());
        // Golden: captured via `stlab --fast e9`, whose `println!` adds one
        // trailing newline to the render.
        assert_eq!(
            format!("{}\n", result.render()),
            include_str!("../tests/golden/e9_fast.txt"),
            "E9 output drifted from the golden table"
        );
    }

    #[test]
    fn budget_tiers() {
        let (c64, a64, e64) = budgets(64);
        assert!(e64 && c64 < a64 && a64 <= BUDGET_CAP);
        let (_, a256, e256) = budgets(256);
        assert!(e256 && a256 <= BUDGET_CAP);
        let (c1024, a1024, e1024) = budgets(1024);
        assert!(!e1024);
        assert_eq!((c1024, a1024), (INFORMATIONAL_BUDGET, INFORMATIONAL_BUDGET));
    }
}
