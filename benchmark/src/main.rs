//! The repository's benchmark: seven workloads from `stlab all` to a served
//! campaign, each layer timed from outside through the crates' public
//! functions. See `README.md` beside this package for the layer tables.
//!
//! ```text
//! st-benchmark run [--workload W] [--seed S] [--seconds T] [--runs R]
//!                  [--trace [0|1]] [--out LABEL] [--smoke]
//! st-benchmark compare PARENT.json CHANGE.json
//! st-benchmark manifest
//! ```
//!
//! `run --workload W` without `--runs` is one run in this process: the form
//! the driver calls, ending with its one-line JSON result on standard
//! output. Any other `run` makes a set: child processes, one per run, with
//! seeds `S, S+1, …`, summarized and written to `out/results-LABEL.json`.

mod compare;
mod env;
mod groups;
mod metrics;
mod results;
mod run;
mod stats;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;

use run::RunOptions;

const USAGE: &str = "usage:
  st-benchmark run [--workload W] [--seed S] [--seconds T] [--runs R] [--trace [0|1]] [--out LABEL] [--smoke]
  st-benchmark compare PARENT.json CHANGE.json
  st-benchmark manifest

exit codes: 0 all checks passed, 1 a correctness check failed or a metric regressed, 2 usage";

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        runs: None,
        trace: false,
        smoke: false,
        out: "latest".to_string(),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag} takes a whole number, got {text:?}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                if !metrics::WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?} (known: {})",
                        known.join(", ")
                    ));
                }
                opts.workload = Some(name);
            }
            "--seed" => opts.seed = number(value(&mut i, "--seed")?, "--seed")?,
            "--seconds" => opts.seconds = number(value(&mut i, "--seconds")?, "--seconds")?,
            "--runs" => {
                opts.runs = Some(number(value(&mut i, "--runs")?, "--runs")?.max(1) as usize)
            }
            "--out" => opts.out = value(&mut i, "--out")?,
            "--smoke" => opts.smoke = true,
            "--trace" => {
                // The driver passes `--trace 0|1`; bare `--trace` means 1.
                opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome: Result<bool, String> = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => match (&opts.workload, opts.runs) {
                (Some(name), None) => run::run_single(name, &opts).map(|r| r.correct()),
                _ => run::run_set(&opts),
            },
            Err(message) => {
                eprintln!("{message}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        Some("compare") if args.len() == 3 => results::load_set(&args[1])
            .and_then(|parent| Ok((parent, results::load_set(&args[2])?)))
            .map(|(parent, change)| compare::report(&parent, &change)),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("st-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
