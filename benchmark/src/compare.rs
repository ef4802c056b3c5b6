//! The comparator: two sets of runs, one verdict per (workload, end-to-end
//! metric), by the benchmark's own bounds and the quartile-spread rule of
//! the choosing-metrics guide (§6.5, §8). Comparing two sets of the same
//! commit is how the benchmark's steadiness is checked.

use std::collections::BTreeMap;

use crate::metrics::{Better, EndToEndDef, END_TO_END, WORKLOADS};
use crate::results::RunResult;
use crate::run::metric_values;
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    /// The run-to-run spread is wider than the bound, so a change of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `parent` against `change`, values in run order (run `i` of each set used
/// the same seed, so they pair up).
pub fn verdict(def: &EndToEndDef, parent: &[f64], change: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (median(change) - median(parent)) / median(parent);
    let noisy = spread(parent).max(spread(change)) > def.bound;
    let max = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let every_run_better = max(change) < min(parent);
    let every_run_worse = min(change) > max(parent);

    if worse_by > def.bound {
        return if noisy && !every_run_worse {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        };
    }
    // A gain: the change wins nine tenths of the pairs (ties count for
    // neither) and the medians differ by more than the parent's own spread.
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| sign * change[i] < sign * parent[i])
        .count();
    let (q1, _, q3) = quartiles(parent);
    let beyond_noise = (median(change) - median(parent)).abs() > q3 - q1;
    if worse_by < 0.0 && beyond_noise && pairs > 0 && wins * 10 >= pairs * 9 {
        return Verdict::Improved;
    }
    if noisy {
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    Verdict::Unchanged
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub parent_median: f64,
    pub change_median: f64,
    pub verdict: Verdict,
}

/// One row per (workload, end-to-end metric) both sets measured.
pub fn compare_sets(parent: &[RunResult], change: &[RunResult]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let a = metric_values(parent, w.name, false, def.name);
            let b = metric_values(change, w.name, false, def.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: w.name,
                metric: def.name,
                parent_median: median(&a),
                change_median: median(&b),
                verdict: verdict(def, &a, &b),
            });
        }
    }
    rows
}

/// Deterministic counts that differ between the sets, as
/// `(workload, seed, count name)`. Runs are matched by workload and seed.
pub fn count_differences(parent: &[RunResult], change: &[RunResult]) -> Vec<(String, u64, String)> {
    let index = |runs: &[RunResult]| -> BTreeMap<(String, u64), Vec<(String, u64)>> {
        runs.iter()
            .filter(|r| !r.traced)
            .map(|r| ((r.workload.clone(), r.seed), r.counts.clone()))
            .collect()
    };
    let (a, b) = (index(parent), index(change));
    let mut differences = Vec::new();
    for ((workload, seed), counts) in &a {
        let Some(other) = b.get(&(workload.clone(), *seed)) else {
            continue;
        };
        for (name, value) in counts {
            if other.iter().find(|(n, _)| n == name).map(|(_, v)| v) != Some(value) {
                differences.push((workload.clone(), *seed, name.clone()));
            }
        }
    }
    differences
}

/// Prints the comparison; `true` when nothing regressed and every count
/// repeated.
pub fn report(parent: &[RunResult], change: &[RunResult]) -> bool {
    let rows = compare_sets(parent, change);
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "parent", "change", "change%"
    );
    for row in &rows {
        println!(
            "{:<18} {:<14} {:>14.4} {:>14.4} {:>+7.2}%  {}",
            row.workload,
            row.metric,
            row.parent_median,
            row.change_median,
            (row.change_median - row.parent_median) / row.parent_median * 100.0,
            row.verdict.name()
        );
    }
    let differences = count_differences(parent, change);
    for (workload, seed, name) in &differences {
        println!("count differs: {workload} seed {seed}: {name}");
    }
    if differences.is_empty() {
        println!("deterministic counts: identical for every (workload, seed) in both sets");
    }
    for verdict in [Verdict::Regressed, Verdict::Unresolved] {
        let n = rows.iter().filter(|r| r.verdict == verdict).count();
        println!("{}: {n} of {}", verdict.name(), rows.len());
    }
    differences.is_empty() && rows.iter().all(|r| r.verdict != Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::tests::sample_run;

    const LOWER: EndToEndDef = EndToEndDef {
        name: "pass_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEndDef = EndToEndDef {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = around(1.0, 0.002);
        let b: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&LOWER, &a, &b), Verdict::Unchanged);
        assert_eq!(verdict(&HIGHER, &a, &b), Verdict::Unchanged);
    }

    #[test]
    fn a_shift_past_the_bound_is_a_regression_in_the_metrics_direction() {
        let a = around(1.0, 0.002);
        let slower = around(1.2, 0.002);
        assert_eq!(verdict(&LOWER, &a, &slower), Verdict::Regressed);
        assert_eq!(verdict(&HIGHER, &a, &slower), Verdict::Improved);
        assert_eq!(verdict(&HIGHER, &slower, &a), Verdict::Regressed);
        assert_eq!(verdict(&LOWER, &slower, &a), Verdict::Improved);
    }

    #[test]
    fn a_shift_inside_the_bound_but_past_the_noise_is_a_gain_only_when_it_wins_the_pairs() {
        let a = around(1.0, 0.002);
        let faster = around(0.95, 0.002);
        assert_eq!(verdict(&LOWER, &a, &faster), Verdict::Improved);
        // Slower by less than the bound: not a regression, not a gain.
        assert_eq!(verdict(&LOWER, &faster, &a), Verdict::Unchanged);
        // A median shift that loses half the pairs is not a gain.
        let mut mixed = a.clone();
        for v in mixed.iter_mut().step_by(2) {
            *v -= 0.02;
        }
        assert_eq!(verdict(&LOWER, &a, &mixed), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_agrees() {
        let noisy = around(1.0, 0.05); // IQR/median ≈ 0.26
        let also_noisy = around(1.05, 0.05);
        assert_eq!(verdict(&LOWER, &noisy, &also_noisy), Verdict::Unresolved);
        let worse_overlapping = around(1.2, 0.05);
        assert_eq!(
            verdict(&LOWER, &noisy, &worse_overlapping),
            Verdict::Unresolved
        );
        let far_worse = around(2.0, 0.05);
        assert_eq!(verdict(&LOWER, &noisy, &far_worse), Verdict::Regressed);
        assert_eq!(verdict(&LOWER, &far_worse, &noisy), Verdict::Improved);
    }

    #[test]
    fn sets_compare_per_workload_and_counts_must_repeat() {
        let set = |wall: f64| -> Vec<RunResult> {
            (0..5)
                .map(|i| sample_run("campaign_batch", i, wall + 0.001 * i as f64))
                .collect()
        };
        let (a, mut b) = (set(1.0), set(1.5));
        let rows = compare_sets(&a, &b);
        assert_eq!(rows.len(), 2, "the two metrics the sample runs carry");
        assert!(rows.iter().all(|r| r.workload == "campaign_batch"));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Regressed));
        assert!(count_differences(&a, &b).is_empty());
        b[3].counts[0].1 -= 1;
        assert_eq!(
            count_differences(&a, &b),
            [("campaign_batch".to_string(), 3, "steps".to_string())]
        );
    }
}
