//! `stlab` — runs the paper's experiments and prints their tables.
//!
//! See [`HELP`] (`stlab --help`) for usage and the exit-code contract.
//!
//! `--fast` shrinks budgets and grids (smoke runs); `--tsv` additionally
//! emits each table as tab-separated values for downstream plotting;
//! `--threads N` sets the campaign worker count (default: one per hardware
//! thread — results are identical for every value, see `st-campaign`).
//!
//! Persistence: `--outcomes PATH` writes every campaign scenario's outcome
//! to a versioned store file, checkpointed after **every experiment** (a
//! killed sweep keeps everything finished so far); `--resume PATH` loads
//! such a store first and skips every scenario it already holds (matching
//! experiment, rank, and unchanged spec), carrying the rest of the store
//! forward — resuming a subset of experiments never discards the others'
//! stored outcomes. An interrupted sweep resumed this way renders
//! byte-identical tables — and rewrites a byte-identical store — compared
//! to an uninterrupted run. A store written by a different schema version
//! is refused with a typed error (exit code 2), never silently partially
//! resumed.
//!
//! Serving: `--serve ADDR` routes every experiment campaign through the
//! `st-serve` daemon at `ADDR` (see `PROTOCOL.md`) instead of executing
//! in-process. Tables, verdicts, and recorded stores are identical either
//! way — the daemon runs the same engine and the store's canonical form is
//! drive-independent. An unreachable daemon or a typed refusal (protocol
//! or store schema mismatch, daemon at capacity) prints its message and
//! exits 2.
//!
//! Scenarios: `--scenario NAME` (repeatable) runs entries of the named
//! fault-injection catalog (`SCENARIOS.md`) as campaigns with the
//! always-on invariant checker; any recorded violation prints a replayable
//! counterexample schedule and exits 1. `--list-scenarios` prints the
//! catalog; an unknown name exits 2 with the catalog on stderr.
//!
//! Fuzzing: `stlab fuzz` runs a deterministic coverage-guided fuzz session
//! over generator-spec space (see `SCENARIOS.md`, "Fuzzing & corpus"):
//! `--budget N` scenarios total, `--master-seed N` for derivation,
//! `--corpus PATH` to persist (and resume) the session's outcome store,
//! `--shrink` to delta-debug the first finding to a minimal
//! still-violating scenario. Sessions are byte-identical for every
//! `--threads` value and across interrupt→resume splits of the corpus.
//!
//! Counterexamples: `--save-counterexample PATH` (in `fuzz` or
//! `--scenario` mode) writes the first finding as canonical JSON;
//! `--replay PATH` loads one and re-executes its recorded schedule under
//! the invariant checker, reporting whether the violation reproduced.
//!
//! `--drop-half-store PATH` is the maintenance verb CI's resume-smoke
//! uses: it loads a store, keeps every other entry, and writes it back —
//! a deterministic "interrupt" for differential testing.

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use st_campaign::{Counterexample, OutcomeStore};
use st_lab::{fuzz, run_experiment, scenarios, LabConfig, LabSession, ALL_EXPERIMENTS};

/// The `--help` text, including the exit-code contract asserted by the CLI
/// tests.
const HELP: &str = "\
stlab — experiments, fault scenarios, and the invariant fuzzer

USAGE:
  stlab [OPTIONS] [e1 e2 ... | all]        run experiments (default: all)
  stlab --scenario NAME [--scenario ...]   run fault-injection scenarios
  stlab fuzz [--budget N] [--master-seed N] [--corpus PATH] [--shrink]
  stlab --replay PATH                      re-execute a saved counterexample
  stlab --list-scenarios                   print the scenario catalog
  stlab --drop-half-store PATH             store maintenance (CI resume smoke)

OPTIONS:
  --fast                     smaller grids and budgets (smoke runs)
  --tsv                      also emit tables as TSV
  --threads N                campaign workers (results identical for every N)
  --serve ADDR               route campaigns through the st-serve daemon at
                             ADDR (tables and stores identical to local runs;
                             unreachable daemon or typed refusal exits 2)
  --sizes N,N,...            E9 universe-size axis (default: 64 fast,
                             64,256,1024 full)
  --outcomes PATH            record campaign outcomes to a versioned store
  --resume PATH              resume from a recorded store
  --budget N                 fuzz: total scenario budget (default 64)
  --master-seed N            fuzz: derivation seed (default 3)
  --corpus PATH              fuzz: load (if present) and save the corpus store
  --shrink                   fuzz: delta-debug the first finding
  --save-counterexample PATH write the first finding as canonical JSON
  --replay PATH              re-execute a saved counterexample
  --help                     this text

EXIT CODES:
  0  clean: no invariant violation, every experiment expectation met
  1  an invariant violation was recorded (or an experiment failed, or a
     violation fixture failed to fire)
  2  usage errors: unknown flag/experiment/scenario, unreadable or
     schema-mismatched store/counterexample files
  141  stdout was closed before the output ended (`stlab all | head`): the
     run stops there, quietly — the status a shell shows for SIGPIPE
";

/// Exit status when the reader of stdout went away: 128 + SIGPIPE, what a
/// shell reports for a process the signal killed.
const EXIT_STDOUT_CLOSED: u8 = 141;

struct Args {
    fast: bool,
    tsv: bool,
    threads: usize,
    sizes: Option<Vec<usize>>,
    serve: Option<String>,
    outcomes: Option<String>,
    resume: Option<String>,
    drop_half: Option<String>,
    scenarios: Vec<String>,
    list_scenarios: bool,
    fuzz: bool,
    budget: Option<usize>,
    master_seed: Option<u64>,
    corpus: Option<String>,
    shrink: bool,
    save_counterexample: Option<String>,
    replay: Option<String>,
    help: bool,
    ids: Vec<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        fast: false,
        tsv: false,
        threads: usize::MAX,
        sizes: None,
        serve: None,
        outcomes: None,
        resume: None,
        drop_half: None,
        scenarios: Vec::new(),
        list_scenarios: false,
        fuzz: false,
        budget: None,
        master_seed: None,
        corpus: None,
        shrink: false,
        save_counterexample: None,
        replay: None,
        help: false,
        ids: Vec::new(),
    };
    let mut i = 0usize;
    let value_of = |i: &mut usize, flag: &str, argv: &[String]| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    let parsed = |flag: &str, value: String| -> u64 {
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a non-negative integer, got {value:?}");
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--fast" => args.fast = true,
            "--tsv" => args.tsv = true,
            "--threads" => {
                let value = value_of(&mut i, "--threads", &argv);
                args.threads = value.parse().unwrap_or_else(|_| {
                    eprintln!("--threads expects a positive integer, got {value:?}");
                    std::process::exit(2);
                });
            }
            "--sizes" => {
                let value = value_of(&mut i, "--sizes", &argv);
                let sizes: Vec<usize> = value
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("--sizes expects comma-separated sizes, got {value:?}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if sizes.is_empty() {
                    eprintln!("--sizes needs at least one size");
                    std::process::exit(2);
                }
                for &n in &sizes {
                    if n == 0 {
                        eprintln!("--sizes: a universe needs at least one process, got 0");
                        std::process::exit(2);
                    }
                    if n > st_core::MAX_PROCESSES {
                        eprintln!(
                            "--sizes: {n} exceeds MAX_PROCESSES ({})",
                            st_core::MAX_PROCESSES
                        );
                        std::process::exit(2);
                    }
                }
                args.sizes = Some(sizes);
            }
            "--serve" => args.serve = Some(value_of(&mut i, "--serve", &argv)),
            "--outcomes" => args.outcomes = Some(value_of(&mut i, "--outcomes", &argv)),
            "--resume" => args.resume = Some(value_of(&mut i, "--resume", &argv)),
            "--drop-half-store" => {
                args.drop_half = Some(value_of(&mut i, "--drop-half-store", &argv))
            }
            "--scenario" => args.scenarios.push(value_of(&mut i, "--scenario", &argv)),
            "--list-scenarios" => args.list_scenarios = true,
            "fuzz" => args.fuzz = true,
            "--budget" => {
                args.budget = Some(parsed("--budget", value_of(&mut i, "--budget", &argv)) as usize)
            }
            "--master-seed" => {
                args.master_seed = Some(parsed(
                    "--master-seed",
                    value_of(&mut i, "--master-seed", &argv),
                ))
            }
            "--corpus" => args.corpus = Some(value_of(&mut i, "--corpus", &argv)),
            "--shrink" => args.shrink = true,
            "--save-counterexample" => {
                args.save_counterexample = Some(value_of(&mut i, "--save-counterexample", &argv))
            }
            "--replay" => args.replay = Some(value_of(&mut i, "--replay", &argv)),
            "--help" | "-h" => args.help = true,
            other => args.ids.push(other.to_lowercase()),
        }
        i += 1;
    }
    args
}

fn catalog_text() -> String {
    let mut text = String::from("known scenarios:\n");
    for e in scenarios::CATALOG {
        text.push_str(&format!("  {:<18} {}\n", e.name, e.fault));
    }
    text
}

/// Writes `ce` to `path`; exit-2 on failure, logged either way.
fn save_counterexample(ce: &Counterexample, path: &str) -> Result<(), ExitCode> {
    if let Err(e) = ce.save(path) {
        eprintln!("cannot write counterexample {path}: {e}");
        return Err(ExitCode::from(2));
    }
    eprintln!("wrote counterexample to {path}: {ce}");
    Ok(())
}

/// The `--replay PATH` verb: re-execute a saved counterexample under the
/// checker. Exit 1 when the violation reproduces (it is, after all, a
/// violation), 0 when the replay comes back clean.
fn replay_verb(out: &mut impl Write, path: &str) -> io::Result<ExitCode> {
    let ce = match Counterexample::load(path) {
        Ok(ce) => ce,
        Err(e) => {
            eprintln!("cannot load counterexample {path}: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    writeln!(out, "replaying {ce}")?;
    let (outcome, reproduced) = ce.replay();
    for v in &outcome.violations {
        writeln!(out, "  VIOLATION [{}]: {v}", outcome.label)?;
    }
    writeln!(
        out,
        "replay verdict: {}",
        if reproduced {
            "reproduced (all original violation kinds fired again)"
        } else {
            "NOT reproduced"
        }
    )?;
    Ok(if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `fuzz` verb. Violations found exit 1; corpus/counterexample I/O
/// errors exit 2.
fn fuzz_verb(out: &mut impl Write, args: &Args, cfg: &LabConfig) -> io::Result<ExitCode> {
    let opts = fuzz::FuzzOptions {
        budget: args.budget.unwrap_or(fuzz::DEFAULT_BUDGET),
        master_seed: args.master_seed.unwrap_or(fuzz::DEFAULT_MASTER_SEED),
        shrink: args.shrink,
    };
    // The corpus store doubles as resume input (when the file exists) and
    // session output.
    let resume = match &args.corpus {
        Some(path) if std::path::Path::new(path).exists() => match OutcomeStore::load(path) {
            Ok(store) => {
                eprintln!(
                    "resuming corpus from {path}: {} stored outcomes",
                    store.len()
                );
                Some(store)
            }
            Err(e) => {
                eprintln!("cannot resume corpus from {path}: {e}");
                return Ok(ExitCode::from(2));
            }
        },
        _ => None,
    };
    let mut record = OutcomeStore::new();
    let run = fuzz::run_fuzz(cfg, &opts, resume.as_ref(), Some(&mut record));
    write!(out, "{}", run.rendered)?;
    if let Some(path) = &args.corpus {
        if let Err(e) = record.save(path) {
            eprintln!("cannot write corpus store {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        eprintln!("wrote corpus store to {path}: {} outcomes", record.len());
    }
    if let Some(path) = &args.save_counterexample {
        match &run.counterexample {
            Some(ce) => {
                if let Err(code) = save_counterexample(ce, path) {
                    return Ok(code);
                }
            }
            None => eprintln!("no finding — nothing to save to {path}"),
        }
    }
    Ok(if run.report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} invariant finding(s) recorded",
            run.report.findings.len()
        );
        ExitCode::FAILURE
    })
}

/// Everything `stlab` says on stdout goes through the one locked writer
/// [`run`] is handed, so a reader that went away (`stlab all | head`) is an
/// `io::Error` here instead of `println!`'s panic: a closed pipe ends the
/// run quietly with [`EXIT_STDOUT_CLOSED`].
fn main() -> ExitCode {
    let mut out = io::stdout().lock();
    match run(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::from(EXIT_STDOUT_CLOSED),
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let args = parse_args();

    if args.help {
        write!(out, "{HELP}")?;
        return Ok(ExitCode::SUCCESS);
    }

    if args.list_scenarios {
        write!(out, "{}", catalog_text())?;
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &args.replay {
        return replay_verb(out, path);
    }

    // Maintenance verb: truncate a store to every other entry and exit.
    if let Some(path) = &args.drop_half {
        let mut store = match OutcomeStore::load(path) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("{e}");
                return Ok(ExitCode::from(2));
            }
        };
        let before = store.len();
        store.retain(|idx, _| idx % 2 == 0);
        if let Err(e) = store.save(path) {
            eprintln!("{e}");
            return Ok(ExitCode::from(2));
        }
        eprintln!("{path}: kept {} of {before} outcomes", store.len());
        return Ok(ExitCode::SUCCESS);
    }

    // Resume store, if any. Schema mismatches and corrupt files are typed
    // errors — refuse loudly rather than partially resuming.
    let resume = match &args.resume {
        None => None,
        Some(path) => match OutcomeStore::load(path) {
            Ok(store) => {
                eprintln!("resuming from {path}: {} stored outcomes", store.len());
                Some(store)
            }
            Err(e) => {
                eprintln!("cannot resume from {path}: {e}");
                return Ok(ExitCode::from(2));
            }
        },
    };
    let session = if args.outcomes.is_some() || resume.is_some() {
        let mut session = LabSession::new(resume);
        if let Some(path) = &args.outcomes {
            // Checkpoint after every experiment, so a genuine interrupt
            // (Ctrl-C, OOM, CI timeout) leaves a resumable store behind.
            session = session.with_autosave(path);
        }
        Some(Arc::new(session))
    } else {
        None
    };

    let mut cfg = if args.fast {
        LabConfig::fast()
    } else {
        LabConfig::full()
    }
    .with_threads(args.threads);
    if let Some(sizes) = &args.sizes {
        cfg = cfg.with_sizes(sizes.clone());
    }
    if let Some(session) = &session {
        cfg = cfg.with_session(Arc::clone(session));
    }

    if let Some(addr) = &args.serve {
        if args.fuzz {
            eprintln!("stlab fuzz does not support --serve (fuzz sessions are local)");
            return Ok(ExitCode::from(2));
        }
        // Ping before any work: an unreachable daemon is a typed exit-2
        // up front, not a mid-sweep surprise.
        if let Err(e) = st_serve::ServeClient::new(addr).hello() {
            eprintln!("{e}");
            return Ok(ExitCode::from(2));
        }
        cfg = cfg.with_serve(addr.clone());
    }

    if args.fuzz {
        return fuzz_verb(out, &args, &cfg);
    }

    // Scenario-catalog mode: run the named fault-injection scenarios with
    // the always-on invariant checker and exit. Names are validated up
    // front — an unknown one is a typed refusal, not a partial run.
    if !args.scenarios.is_empty() {
        let mut entries = Vec::new();
        for name in &args.scenarios {
            match scenarios::find(name) {
                Some(entry) => entries.push(entry),
                None => {
                    eprintln!("unknown scenario: {name}");
                    eprint!("{}", catalog_text());
                    return Ok(ExitCode::from(2));
                }
            }
        }
        let mut violations = 0usize;
        let mut broken_fixtures = 0usize;
        let mut first_ce: Option<Counterexample> = None;
        for entry in entries {
            let report = scenarios::run_entry(entry, &cfg);
            writeln!(out, "{}", report.render())?;
            violations += report.violation_count();
            if entry.expect_violation && report.violation_count() == 0 {
                broken_fixtures += 1;
            }
            if first_ce.is_none() {
                first_ce = report.first_counterexample();
            }
        }
        if let Some(path) = &args.save_counterexample {
            match &first_ce {
                Some(ce) => {
                    if let Err(code) = save_counterexample(ce, path) {
                        return Ok(code);
                    }
                }
                None => eprintln!("no violation — nothing to save to {path}"),
            }
        }
        if let (Some(path), Some(session)) = (&args.outcomes, &session) {
            let store = session.recorded();
            if let Err(e) = store.save(path) {
                eprintln!("cannot write outcome store {path}: {e}");
                return Ok(ExitCode::from(2));
            }
            eprintln!("wrote {} outcomes to {path}", store.len());
        }
        if violations > 0 {
            eprintln!("{violations} invariant violation(s) recorded");
            return Ok(ExitCode::FAILURE);
        }
        if broken_fixtures > 0 {
            eprintln!("{broken_fixtures} violation fixture(s) failed to fire");
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let mut ids = args.ids;
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // Unknown experiment ids are usage errors (exit 2), validated up front
    // so a typo never half-runs a sweep.
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(&id.as_str()) {
            eprintln!("unknown experiment: {id} (known: e1..e9, all)");
            return Ok(ExitCode::from(2));
        }
    }

    let mut failures = 0;
    for id in &ids {
        match run_experiment(id, &cfg) {
            Some(result) => {
                writeln!(out, "{}", result.render())?;
                if args.tsv {
                    for (name, table) in &result.tables {
                        writeln!(out, "#tsv {} — {name}", result.id)?;
                        write!(out, "{}", table.to_tsv())?;
                    }
                }
                if !result.pass {
                    failures += 1;
                }
            }
            None => unreachable!("ids validated against ALL_EXPERIMENTS"),
        }
    }

    // Write the outcome store after the sweep (also when experiments
    // failed: a partial store is exactly what --resume is for).
    if let (Some(path), Some(session)) = (&args.outcomes, &session) {
        let store = session.recorded();
        if let Err(e) = store.save(path) {
            eprintln!("cannot write outcome store {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        eprintln!("wrote {} outcomes to {path}", store.len());
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
