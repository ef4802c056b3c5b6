//! Running: one workload in this process, or a set of runs as child
//! processes (one process per run, so peak memory and cold caches are per
//! run) gathered into one results file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::env::{peak_rss_mb, Env};
use crate::metrics::{self, END_TO_END, WORKLOADS};
use crate::results::{set_to_json, Metric, RunResult};
use crate::stats::{percentile, quartiles, spread, supported_tail};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Pass, Size, Workload};

/// Times set-up (inputs + warm-up pass) is repeated at least; `setup_s` is
/// the fastest, by the reasoning of [`pass_floor`].
const SETUP_REPS: usize = 3;

/// A cheap set-up is repeated further, once after each pass, until the
/// repeats have taken this long in total: a floor over three 40 ms samples
/// is not steady, one over 1.5 s of them is.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

#[derive(Clone, Debug)]
pub struct RunOptions {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    /// `Some` makes a set of child-process runs per workload.
    pub runs: Option<usize>,
    pub trace: bool,
    pub smoke: bool,
    /// Label of the results file a set writes.
    pub out: String,
}

/// Where run files, traces and scratch files go: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_file(workload: &str, seed: u64, traced: bool) -> PathBuf {
    out_dir().join(format!("run-{workload}-s{seed}-t{}.json", u8::from(traced)))
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The wall time of a pass on an undisturbed machine: for each piece of
/// the pass, the fastest time any pass of the run took for it, summed.
///
/// The host's other tenants slow this VM by about a third for seconds at a
/// time (two clear modes in any long series of identical passes), so a
/// median over a few seconds of passes follows the neighbours, not the
/// code. A piece is short enough to fall wholly inside a quiet stretch, and
/// the code's own cost is a floor under every observation of it.
fn pass_floor(passes: &[Pass]) -> f64 {
    let pieces = passes[0].pieces.len();
    (0..pieces)
        .map(|k| {
            passes
                .iter()
                .filter_map(|p| p.pieces.get(k))
                .min()
                .expect("every pass has the workload's pieces")
                .as_secs_f64()
        })
        .sum()
}

fn floor_of(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn pass_wall(pass: &Pass) -> Duration {
    pass.pieces.iter().sum()
}

/// One run of `name`, in this process. Prints the driver's line last.
pub fn run_single(name: &str, opts: &RunOptions) -> Result<RunResult, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".into());
    }
    let env = Env::capture();
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out/: {e}"))?;
    let scratch = Scratch(out_dir().join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("cannot create scratch: {e}"))?;
    let size = if opts.smoke { Size::Smoke } else { Size::Full };
    let budget = Duration::from_secs(opts.seconds);
    let off = Tracer::new(false);
    let tracer = Tracer::new(opts.trace);

    // One set-up: inputs from the seed, then a warm-up — a smoke-size pass
    // on inputs of its own — so that whatever the system initializes lazily
    // is paid here, not in a timed pass.
    let set_up = || -> Result<(Box<dyn Workload>, f64), String> {
        let start = Instant::now();
        let unknown = || format!("unknown workload {name:?}");
        let workload = workloads::set_up(name, opts.seed, &scratch.0, size).ok_or_else(unknown)?;
        workloads::set_up(name, opts.seed, &scratch.0, Size::Smoke)
            .ok_or_else(unknown)?
            .pass(&off);
        Ok((workload, start.elapsed().as_secs_f64()))
    };
    // Set-up is timed several times, spread over the run (before the first
    // pass, after passes, after the last) so the repeats do not all fall
    // into one slow stretch of the machine. A traced or smoke run reports
    // no set-up time and sets up once.
    let repeat_setup = !(opts.smoke || opts.trace);
    let (mut workload, first_setup) = set_up()?;
    let mut setup_s = vec![first_setup];

    // The timed loop: at least the workload's minimum of passes, and until
    // the budget is spent. A traced run alternates untraced and traced
    // passes, so both see the same drift.
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let min_passes = if opts.smoke { 1 } else { workload.min_passes() };
    let mut measured = Duration::ZERO;
    while untraced.len() + traced.len() < min_passes || measured < budget {
        untraced.push(workload.pass(&off));
        if opts.trace {
            traced.push(tracer.span("pass", name, || workload.pass(&tracer)));
        }
        measured = untraced.iter().chain(&traced).map(pass_wall).sum();
        let spent = Duration::from_secs_f64(setup_s.iter().sum());
        if repeat_setup && (setup_s.len() + 1 < SETUP_REPS || spent < SETUP_BUDGET) {
            setup_s.push(set_up()?.1);
        }
    }
    while repeat_setup && setup_s.len() < SETUP_REPS {
        setup_s.push(set_up()?.1);
    }

    let (mut attempted, mut failed) = workload.verify(&tracer);
    for pass in untraced.iter().chain(&traced) {
        attempted += pass.ops;
        failed += pass.failed;
        if workload.passes_repeat() && pass.counts != untraced[0].counts {
            eprintln!("{name}: a pass's counts differ from the first pass's");
            failed += 1;
        }
    }
    let floor_s = pass_floor(&untraced);
    let work_per_pass = untraced.iter().map(|p| p.work).sum::<f64>() / untraced.len() as f64;

    let metrics = if opts.trace {
        workload.probes(&tracer);
        workloads::small_probes(&tracer, opts.seed, &scratch.0, workload.groups());
        let spans = tracer.spans();
        let overhead = pass_floor(&traced) / floor_s;
        let trace_path = out_dir().join(format!("trace-{name}.json"));
        let doc = trace::to_json(name, opts.seed, &spans);
        std::fs::write(&trace_path, doc.to_string() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        layer_metrics(&spans, overhead)?
    } else {
        END_TO_END
            .iter()
            .map(|def| {
                let value = match def.name {
                    "pass_wall_s" => floor_s,
                    "work_per_s" => work_per_pass / floor_s,
                    "peak_rss_mb" => peak_rss_mb(),
                    "setup_s" => floor_of(&setup_s),
                    other => unreachable!("no measurement defined for {other}"),
                };
                if !(value.is_finite() && value > 0.0) {
                    return Err(format!("{}: measured {value}", def.name));
                }
                Ok(Metric {
                    name: def.name.to_string(),
                    unit: def.unit.to_string(),
                    value,
                })
            })
            .collect::<Result<_, String>>()?
    };

    let result = RunResult {
        workload: name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        workers: workload.workers() as u64,
        env,
        attempted: attempted.max(1),
        failed,
        metrics,
        samples: vec![
            (
                "pass_wall_s".to_string(),
                untraced
                    .iter()
                    .map(|p| pass_wall(p).as_secs_f64())
                    .collect(),
            ),
            ("setup_s".to_string(), setup_s),
        ],
        counts: untraced[0]
            .counts
            .iter()
            .map(|&(n, v)| (n.to_string(), v))
            .collect(),
    };
    let path = run_file(name, opts.seed, opts.trace);
    std::fs::write(&path, result.to_json().to_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    print_run(&result);
    println!("{}", result.driver_line());
    Ok(result)
}

/// Every per-layer metric: the span-backed ones from the spans, the rest
/// from the ratios and differences their names promise.
fn layer_metrics(spans: &[trace::Span], trace_overhead: f64) -> Result<Vec<Metric>, String> {
    let mut values: BTreeMap<String, f64> = metrics::extract(spans);
    let get = |values: &BTreeMap<String, f64>, name: &str| {
        values
            .get(name)
            .copied()
            .ok_or_else(|| format!("{name}: its span never ran"))
    };
    let fastest = |name: &str| {
        metrics::durations(spans, name)
            .into_iter()
            .reduce(f64::min)
            .ok_or_else(|| format!("span {name} never ran"))
    };

    let unchecked = get(&values, "campaign.scenario.unchecked_ns_per_step")?;
    let checked = get(&values, "campaign.scenario.checked_ns_per_step")?;
    let count_of = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.count as f64)
            .ok_or_else(|| format!("span {name} never ran"))
    };
    // Per-step shares of the per-scenario costs, on the cell's step count.
    let steps = count_of("campaign.scenario.unchecked")?;
    let rungs = get(&values, "sched.build_us")? * 1e3 / steps
        + get(&values, "sched.pull_ns_per_step")?
        + get(&values, "agreement.stack_build_us")? * 1e3 / steps
        + get(&values, "sim.runner.machine_slot_ns_per_step")?;
    let derived = [
        ("campaign.invariant.overhead_ratio", checked / unchecked),
        (
            "campaign.scenario.unattributed_ns_per_step",
            unchecked - rungs,
        ),
        (
            "core.parallel.speedup_2w",
            fastest("campaign.campaign.run_parallel_1w")?
                / fastest("campaign.campaign.run_parallel_2w")?,
        ),
        (
            "campaign.campaign.chunk_overhead_us",
            (fastest("campaign.campaign.run_chunked_noop")?
                - fastest("campaign.campaign.run_parallel_ref")?)
                * 1e6
                / count_of("campaign.campaign.run_chunked_noop")?,
        ),
        (
            "serve.overhead_ratio",
            fastest("serve.job")? / fastest("serve.batch_ref")?,
        ),
        ("serve.job_ms_p80", metrics::job_ms_p80(spans)),
        (
            "campaign.scenario.fleet_overhead_ns_per_step",
            get(&values, "sim.fleet.lean_agree.n256.plain.ns_per_step")?
                - get(&values, "sim.runner.replay_plain_ns_per_step.n256")?,
        ),
        ("trace_overhead_ratio", trace_overhead),
    ];
    for (name, value) in derived {
        values.insert(name.to_string(), value);
    }

    metrics::per_layer()
        .iter()
        .map(|def| {
            let value = get(&values, &def.name)?;
            if !value.is_finite() {
                return Err(format!("{}: measured {value}", def.name));
            }
            Ok(Metric {
                name: def.name.clone(),
                unit: def.unit.to_string(),
                value,
            })
        })
        .collect()
}

fn print_run(run: &RunResult) {
    eprintln!(
        "{} seed {} ({}): attempted {}, failed {}",
        run.workload,
        run.seed,
        if run.traced { "traced" } else { "untraced" },
        run.attempted,
        run.failed
    );
    for m in &run.metrics {
        eprintln!("  {:<52} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, values) in &run.samples {
        eprintln!("  samples {name}: n = {}", values.len());
    }
}

/// A set: `runs` untraced child runs per workload (seeds `seed`, `seed+1`,
/// …), plus one traced run each when asked. Prints every metric with its
/// median, quartiles and sample count; writes `out/results-<label>.json`.
pub fn run_set(opts: &RunOptions) -> Result<bool, String> {
    let names: Vec<&str> = match &opts.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let runs = opts.runs.unwrap_or(5);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut results = Vec::new();
    let mut all_ok = true;
    for name in names {
        let mut plan: Vec<(u64, bool)> = (0..runs as u64).map(|r| (opts.seed + r, false)).collect();
        if opts.trace {
            plan.push((opts.seed, true));
        }
        for (seed, traced) in plan {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdout(std::process::Stdio::null());
            if opts.smoke {
                child.arg("--smoke");
            }
            // A run that fails its checks exits 1 but still leaves its file;
            // one that died leaves none (a stale one is removed first).
            let path = run_file(name, seed, traced);
            let _ = std::fs::remove_file(&path);
            let status = child
                .status()
                .map_err(|e| format!("cannot start a run of {name}: {e}"))?;
            let Ok(text) = std::fs::read_to_string(&path) else {
                eprintln!("{name} seed {seed}: run exited with {status} and no result");
                all_ok = false;
                continue;
            };
            let doc = st_core::Json::parse(&text).map_err(|e| e.to_string())?;
            let run = RunResult::from_json(&doc)?;
            all_ok &= run.correct();
            results.push(run);
        }
    }
    print_set(&results);
    let path = out_dir().join(format!("results-{}.json", opts.out));
    std::fs::write(&path, set_to_json(&results).to_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("results written to {}", path.display());
    Ok(all_ok)
}

/// The values of `metric` over the runs of `workload` with the given
/// tracing mode, in run order.
pub fn metric_values(runs: &[RunResult], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metric(metric))
        .collect()
}

fn print_set(runs: &[RunResult]) {
    println!(
        "{:<18} {:<50} {:>6} {:>14} {:>14} {:>14} {:>8} {:>4}",
        "workload", "metric", "unit", "median", "q1", "q3", "spread", "n"
    );
    let row = |workload: &str, metric: &str, unit: &str, values: &[f64]| {
        if values.is_empty() {
            return;
        }
        let (q1, q2, q3) = quartiles(values);
        println!(
            "{workload:<18} {metric:<50} {unit:>6} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>4}",
            spread(values) * 100.0,
            values.len()
        );
    };
    for w in &WORKLOADS {
        for def in &END_TO_END {
            row(
                w.name,
                def.name,
                def.unit,
                &metric_values(runs, w.name, false, def.name),
            );
        }
        // Pass latency pooled over the runs: the median and the highest
        // percentile with at least ten samples beyond it.
        let pooled: Vec<f64> = runs
            .iter()
            .filter(|r| r.workload == w.name && !r.traced)
            .flat_map(|r| r.samples.iter().filter(|(n, _)| n == "pass_wall_s"))
            .flat_map(|(_, values)| values.iter().copied())
            .collect();
        if !pooled.is_empty() {
            let tail = supported_tail(pooled.len(), 10);
            println!(
                "{:<18} pooled pass_wall_s: n = {}, p50 = {:.4} s{}",
                w.name,
                pooled.len(),
                percentile(&pooled, 50),
                tail.map_or(String::new(), |p| format!(
                    ", p{p} = {:.4} s",
                    percentile(&pooled, p)
                ))
            );
        }
        let failed: u64 = runs
            .iter()
            .filter(|r| r.workload == w.name)
            .map(|r| r.failed)
            .sum();
        let ops: u64 = runs
            .iter()
            .filter(|r| r.workload == w.name)
            .map(|r| r.attempted)
            .sum();
        if ops > 0 {
            println!("{:<18} failed_ops: {failed} of {ops}", w.name);
        }
        for def in metrics::per_layer() {
            row(
                w.name,
                &def.name,
                def.unit,
                &metric_values(runs, w.name, true, &def.name),
            );
        }
    }
}
