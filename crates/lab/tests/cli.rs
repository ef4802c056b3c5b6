//! CLI contract tests for `stlab`: the exit-code convention (0 clean, 1
//! invariant violation / failed expectation, 2 usage or schema errors,
//! 141 stdout closed early), the counterexample save/replay loop, and the
//! fuzz verb's determinism.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn stlab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stlab"))
        .args(args)
        .output()
        .expect("stlab runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stlab-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_documents_the_exit_codes() {
    let out = stlab(&["--help"]);
    assert_eq!(exit_code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("EXIT CODES"));
    assert!(text.contains("0  clean"));
    assert!(text.contains("1  an invariant violation"));
    assert!(text.contains("2  usage errors"));
    assert!(text.contains("141  stdout was closed"));
    assert!(text.contains("--save-counterexample"));
    assert!(text.contains("--replay"));
}

/// `stlab … | head`: a reader that goes away ends the run quietly, with
/// the documented status and no panic text. The reader leaves after the
/// first line — E3's tables are written by then and E2's take a few hundred
/// milliseconds more to compute — and then before anything is written.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for read_first_line in [true, false] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stlab"))
            .args(["--fast", "e3", "e2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("stlab runs");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        if read_first_line {
            let mut line = String::new();
            stdout.read_line(&mut line).unwrap();
            assert!(line.starts_with("== E3"), "{line}");
        }
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(exit_code(&out), 141, "{stderr}");
    }
}

#[test]
fn unknown_scenario_is_a_usage_error() {
    let out = stlab(&["--scenario", "no-such-scenario"]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = stlab(&["e99", "--fast"]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn out_of_range_sizes_are_usage_errors() {
    let zero = stlab(&["--fast", "--sizes", "64,0", "e9"]);
    assert_eq!(exit_code(&zero), 2);
    assert!(
        String::from_utf8_lossy(&zero.stderr).contains("at least one process"),
        "zero-size message"
    );

    let huge = stlab(&["--fast", "--sizes", "2048", "e9"]);
    assert_eq!(exit_code(&huge), 2);
    assert!(
        String::from_utf8_lossy(&huge.stderr).contains("exceeds MAX_PROCESSES (1024)"),
        "oversized message"
    );
}

#[test]
fn replay_of_a_missing_file_is_a_usage_error() {
    let out = stlab(&["--replay", "/nonexistent/ce.json"]);
    assert_eq!(exit_code(&out), 2);
}

/// The full counterexample loop: the starved fixture violates (exit 1),
/// `--save-counterexample` persists it, `--replay` re-executes it under
/// the checker and reproduces the violation (exit 1 again).
#[test]
fn starved_fixture_saves_and_replays_a_counterexample() {
    let ce = tmp("starved-ce.json");
    let out = stlab(&[
        "--scenario",
        "starved-fixture",
        "--fast",
        "--save-counterexample",
        ce.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "the fixture violates by design");
    assert!(ce.exists(), "counterexample file written");

    let replay = stlab(&["--replay", ce.to_str().unwrap()]);
    assert_eq!(exit_code(&replay), 1, "a reproduced violation exits 1");
    let text = stdout(&replay);
    assert!(
        text.contains("reproduced"),
        "replay verdict missing: {text}"
    );
    assert!(!text.contains("NOT reproduced"), "must actually reproduce");
}

/// The fuzz verb: finds a violation from clean seeds at the default master
/// seed (exit 1), shrinks it, and writes byte-identical corpus stores on a
/// repeat run at a different thread count.
#[test]
fn fuzz_smoke_finds_shrinks_and_is_deterministic() {
    let c1 = tmp("fuzz-corpus-1.json");
    let c2 = tmp("fuzz-corpus-2.json");
    let run1 = stlab(&[
        "fuzz",
        "--budget",
        "24",
        "--threads",
        "1",
        "--shrink",
        "--corpus",
        c1.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&run1), 1, "the default session must find");
    let text = stdout(&run1);
    assert!(text.contains("FINDING ["));
    assert!(
        text.contains("shrunk counterexample: "),
        "shrink line: {text}"
    );

    let run2 = stlab(&[
        "fuzz",
        "--budget",
        "24",
        "--threads",
        "4",
        "--corpus",
        c2.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&run2), 1);
    let bytes1 = std::fs::read(&c1).unwrap();
    let bytes2 = std::fs::read(&c2).unwrap();
    assert_eq!(bytes1, bytes2, "corpus stores differ across thread counts");
}

// ---------------------------------------------------------------------------
// `--serve`: the daemon-backed drive.
// ---------------------------------------------------------------------------

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn serve_against_nothing_is_a_typed_usage_error() {
    // Discard port: nothing listens, the up-front hello ping fails.
    let out = stlab(&["--fast", "e3", "--serve", "127.0.0.1:9"]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        stderr(&out).contains("cannot reach st-serve at 127.0.0.1:9"),
        "typed connect message: {}",
        stderr(&out)
    );
}

#[test]
fn serve_with_fuzz_is_a_usage_error() {
    let out = stlab(&["fuzz", "--serve", "127.0.0.1:9"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr(&out).contains("does not support --serve"));
}

/// A daemon whose store is from another schema version refuses the submit
/// with the store's own error text, and `stlab` surfaces it verbatim. The
/// daemon here is faked at the frame level: hello succeeds, everything
/// else gets the typed `schema-mismatch` a real daemon with a broken store
/// sends.
#[test]
fn serve_schema_mismatch_surfaces_the_stores_text() {
    use st_core::frame::{read_frame, write_frame};
    use st_core::Json;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut sock) = stream else { continue };
            let Ok(doc) = read_frame(&mut sock) else {
                continue;
            };
            let verb = doc.get("verb").and_then(Json::as_str).unwrap_or("");
            let resp = if verb == "hello" {
                st_serve::protocol::ok_response([("server", Json::str("fake"))])
            } else {
                let text = st_campaign::StoreError::SchemaMismatch {
                    found: "st-campaign/outcome-store-v1".into(),
                    expected: st_campaign::store::SCHEMA,
                }
                .to_string();
                st_serve::protocol::error_response(st_serve::ErrorKind::SchemaMismatch, text)
            };
            let _ = write_frame(&mut sock, &resp);
        }
    });

    let out = stlab(&["--fast", "e3", "--serve", &addr]);
    assert_eq!(exit_code(&out), 2);
    let text = stderr(&out);
    assert!(
        text.contains("st-serve refused [schema-mismatch]"),
        "typed refusal: {text}"
    );
    assert!(
        text.contains("outcome store schema mismatch"),
        "store's own text: {text}"
    );
}

/// The house invariant at the CLI level: `--fast e3` through a real daemon
/// renders byte-identical tables and records a byte-identical outcome
/// store — and the daemon's own state-dir store matches both.
#[test]
fn serve_mode_reproduces_batch_tables_and_store_bytes() {
    let state = std::env::temp_dir().join(format!("stlab-serve-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let server = st_serve::Server::bind("127.0.0.1:0", st_serve::ServeConfig::new(&state)).unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());

    let batch_store = tmp("serve-batch.json");
    let served_store = tmp("serve-served.json");
    let batch = stlab(&["--fast", "e3", "--outcomes", batch_store.to_str().unwrap()]);
    assert_eq!(exit_code(&batch), 0, "{}", stderr(&batch));
    let served = stlab(&[
        "--fast",
        "e3",
        "--serve",
        &addr,
        "--outcomes",
        served_store.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&served), 0, "{}", stderr(&served));

    assert_eq!(stdout(&batch), stdout(&served), "rendered tables");
    let batch_bytes = std::fs::read(&batch_store).unwrap();
    assert_eq!(
        batch_bytes,
        std::fs::read(&served_store).unwrap(),
        "recorded store bytes"
    );
    assert_eq!(
        batch_bytes,
        std::fs::read(state.join("job-e3.store.json")).unwrap(),
        "daemon state-dir store bytes"
    );
}
