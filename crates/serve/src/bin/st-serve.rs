//! `st-serve` — the campaign daemon and its ops-side client verbs.
//!
//! Daemon mode binds a TCP address and serves the `st-serve/v1` protocol
//! (see `PROTOCOL.md`); the client verbs are thin wrappers over
//! [`ServeClient`] for scripting and CI (readiness probes, resume after a
//! restart, fetching a job's outcome store).

use std::process::ExitCode;

use st_serve::{ServeClient, ServeConfig, Server};

const HELP: &str = "\
st-serve — the campaign engine as a long-running daemon (PROTOCOL.md)

USAGE:
  st-serve --listen ADDR --state DIR [OPTIONS]     run the daemon
  st-serve hello  --addr ADDR                      liveness/version probe
  st-serve status --addr ADDR [--key KEY]          one job, or all jobs
  st-serve resume --addr ADDR --key KEY            requeue a parked job
  st-serve cancel --addr ADDR --key KEY            stop a job at its next chunk
  st-serve fetch  --addr ADDR --key KEY [--out P]  write the job's outcome store

DAEMON OPTIONS:
  --listen ADDR            address to bind (e.g. 127.0.0.1:7777)
  --state DIR              state directory (job specs, segment logs of
                           unfinished jobs, outcome stores of finished ones)
  --threads N              campaign workers per chunk (default: hardware)
  --chunk N                scenarios per checkpoint (default 8)
  --max-pending N          in-flight scenario bound; beyond it submits get
                           a typed busy error (default 1000000)
  --exit-after-chunks N    crash hook: stop as if killed after N chunk
                           checkpoints (CI kill/restart tests)

EXIT CODES:
  0  clean (daemon: shut down by the crash hook; client: request ok)
  2  usage errors, unreachable daemon, or a typed error response

Campaign outcome stores written by the daemon are byte-identical to the
same campaign run via `stlab` batch mode — interrupts included.
";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

/// Looks up the value after `flag`; exits 2 when the flag is present but
/// valueless. `None` when absent.
fn flag_value(argv: &[String], flag: &str) -> Result<Option<String>, ExitCode> {
    match argv.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match argv.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(fail(format!("{flag} needs a value"))),
        },
    }
}

fn parsed(flag: &str, value: &str) -> Result<u64, ExitCode> {
    value.parse().map_err(|_| {
        fail(format!(
            "{flag} expects a non-negative integer, got {value:?}"
        ))
    })
}

fn client_verb(verb: &str, argv: &[String]) -> ExitCode {
    let addr = match flag_value(argv, "--addr") {
        Ok(Some(addr)) => addr,
        Ok(None) => return fail(format!("st-serve {verb} needs --addr ADDR")),
        Err(code) => return code,
    };
    let key = match flag_value(argv, "--key") {
        Ok(k) => k,
        Err(code) => return code,
    };
    let client = ServeClient::new(addr);
    let need_key = || fail(format!("st-serve {verb} needs --key KEY"));
    let result = match (verb, &key) {
        ("hello", _) => client.hello().map(|()| {
            println!("ok: {}", st_serve::PROTO);
        }),
        ("status", Some(key)) => client.status(key).map(|job| println!("{job}")),
        ("status", None) => client.jobs().map(|jobs| {
            for job in jobs {
                println!("{job}");
            }
        }),
        ("resume", Some(key)) => client.resume(key).map(|job| println!("{job}")),
        ("cancel", Some(key)) => client.cancel(key).map(|job| println!("{job}")),
        ("fetch", Some(key)) => client.fetch_store(key).map(|(job, store)| {
            let text = store.to_json_string();
            match flag_value(argv, "--out") {
                Ok(Some(path)) => {
                    if let Err(e) = std::fs::write(&path, &text) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(2);
                    }
                    eprintln!("{job}: wrote {} bytes to {path}", text.len());
                }
                Ok(None) => print!("{text}"),
                Err(_) => std::process::exit(2),
            }
        }),
        (_, None) => return need_key(),
        _ => unreachable!("verbs are dispatched by name"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn daemon(argv: &[String]) -> ExitCode {
    // Reject unknown flags up front: a typo must not half-configure a
    // daemon.
    let known = [
        "--listen",
        "--state",
        "--threads",
        "--chunk",
        "--max-pending",
        "--exit-after-chunks",
    ];
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        if !known.contains(&arg) {
            return fail(format!("unknown flag {arg:?} (see st-serve --help)"));
        }
        i += 2; // every daemon flag takes a value; missing ones caught below
    }
    let listen = match flag_value(argv, "--listen") {
        Ok(Some(v)) => v,
        Ok(None) => return fail("daemon mode needs --listen ADDR (see st-serve --help)"),
        Err(code) => return code,
    };
    let state = match flag_value(argv, "--state") {
        Ok(Some(v)) => v,
        Ok(None) => return fail("daemon mode needs --state DIR"),
        Err(code) => return code,
    };
    let mut cfg = ServeConfig::new(state);
    match flag_value(argv, "--threads") {
        Ok(Some(v)) => match parsed("--threads", &v) {
            Ok(n) if n > 0 => cfg.threads = n as usize,
            Ok(_) => return fail("--threads needs at least 1"),
            Err(code) => return code,
        },
        Ok(None) => {}
        Err(code) => return code,
    }
    match flag_value(argv, "--chunk") {
        Ok(Some(v)) => match parsed("--chunk", &v) {
            Ok(n) if n > 0 => cfg.chunk = n as usize,
            Ok(_) => return fail("--chunk needs at least 1"),
            Err(code) => return code,
        },
        Ok(None) => {}
        Err(code) => return code,
    }
    match flag_value(argv, "--max-pending") {
        Ok(Some(v)) => match parsed("--max-pending", &v) {
            Ok(n) => cfg.max_pending = n as usize,
            Err(code) => return code,
        },
        Ok(None) => {}
        Err(code) => return code,
    }
    match flag_value(argv, "--exit-after-chunks") {
        Ok(Some(v)) => match parsed("--exit-after-chunks", &v) {
            Ok(n) if n > 0 => cfg.exit_after_chunks = Some(n),
            Ok(_) => return fail("--exit-after-chunks needs at least 1"),
            Err(code) => return code,
        },
        Ok(None) => {}
        Err(code) => return code,
    }
    let state_dir = cfg.state_dir.clone();
    let server = match Server::bind(&listen, cfg) {
        Ok(server) => server,
        Err(e) => return fail(format!("cannot bind {listen}: {e}")),
    };
    eprintln!(
        "st-serve: listening on {} (state: {})",
        server.local_addr(),
        state_dir.display()
    );
    server.run();
    eprintln!("st-serve: stopped (crash hook fired)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match argv[0].as_str() {
        verb @ ("hello" | "status" | "resume" | "cancel" | "fetch") => {
            client_verb(verb, &argv[1..])
        }
        _ => daemon(&argv),
    }
}
