//! End-to-end daemon tests over real TCP sockets.
//!
//! The headline test: a campaign submitted to `st-serve`, with the daemon
//! killed (via the `exit_after_chunks` crash hook) and restarted mid-run,
//! produces an `OutcomeStore` byte-identical to the same campaign run via
//! the batch drive — different chunk sizes and worker counts across the two
//! daemon incarnations included.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use st_campaign::{
    policy_from_spec, Campaign, FdAbi, FdDetector, GeneratorSpec, OutcomeStore, Scenario,
    TimeoutPolicySpec, Workload,
};
use st_core::frame::{read_frame, write_frame, write_frame_text};
use st_core::{Json, Universe};
use st_serve::protocol::Envelope;
use st_serve::{
    recover_store, ClientError, JobState, ServeClient, ServeConfig, Server, Verb, PROTO,
};

/// A clean per-process state directory under the system temp dir.
fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An 8-scenario FD-convergence campaign, small enough that a full run is
/// fast but large enough that chunks of 2 leave a real checkpoint trail.
fn fd_campaign() -> Campaign {
    let mut campaign = Campaign::new();
    for seed in 0..8u64 {
        campaign.push(Scenario::new(
            format!("served/seed{seed}"),
            Universe::new(3).unwrap(),
            GeneratorSpec::round_robin(),
            Workload::FdConvergence {
                k: 1,
                t: 1,
                policy: policy_from_spec(TimeoutPolicySpec::Increment),
                abi: FdAbi::MachineSlot,
                detector: FdDetector::SetBased,
                certify_membership: false,
            },
            2_000,
            seed,
        ));
    }
    campaign
}

/// Binds a daemon on an OS-assigned port and runs it on a background
/// thread; returns the client address. Daemons without a crash hook run
/// until the test process exits.
fn spawn_daemon(cfg: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn killed_and_restarted_daemon_reproduces_batch_store_bytes() {
    let campaign = fd_campaign();

    // The batch reference: `stlab`'s drive, no daemon involved.
    let mut batch = OutcomeStore::new();
    let batch_outcomes = campaign.run_resumed(2, "job", None, Some(&mut batch));

    let state = state_dir("restart");
    let store_file = state.join("job-job.store.json");

    // Incarnation 1: chunks of 2, one worker, killed by the crash hook
    // after the second checkpoint — mid-campaign, 4 of 8 scenarios done.
    let mut cfg = ServeConfig::new(&state);
    cfg.chunk = 2;
    cfg.threads = 1;
    cfg.exit_after_chunks = Some(2);
    let (addr, handle) = spawn_daemon(cfg);
    let client = ServeClient::new(&addr);
    let died = client.run_campaign("job", &campaign, Duration::from_millis(5));
    assert!(died.is_err(), "the daemon died mid-run: {died:?}");
    handle.join().expect("incarnation 1 exits");

    // What survives is the segment log, and the daemon's own recovery
    // reads exactly the chunks that finished out of it.
    assert!(state.join("job-job.store.log").exists());
    assert!(!store_file.exists(), "the store file appears on completion");
    let checkpoint = recover_store(&state, "job").expect("the log survives the kill");
    assert_eq!(checkpoint.len(), 4, "two chunks of two committed");

    // Incarnation 2: same state directory, different chunk size and worker
    // count. Re-submitting the identical spec requeues the interrupted job
    // and it runs to completion.
    let mut cfg = ServeConfig::new(&state);
    cfg.chunk = 3;
    cfg.threads = 2;
    let (addr, _handle) = spawn_daemon(cfg);
    let client = ServeClient::new(&addr);
    let outcomes = client
        .run_campaign("job", &campaign, Duration::from_millis(5))
        .expect("restarted daemon finishes the job");

    // Byte-identity, three ways: the outcomes, the daemon's store file,
    // and the store fetched over the wire.
    assert_eq!(format!("{outcomes:#?}"), format!("{batch_outcomes:#?}"));
    let file = std::fs::read_to_string(&store_file).unwrap();
    assert_eq!(file, batch.to_json_string(), "state-dir store bytes");
    assert!(!state.join("job-job.store.log").exists(), "compacted away");
    let (job, fetched) = client.fetch_store("job").unwrap();
    assert_eq!(job.state, JobState::Done);
    assert_eq!(job.completed, 8);
    assert_eq!(
        fetched.to_json_string(),
        batch.to_json_string(),
        "fetched store bytes"
    );
}

/// One segment of the log grammar PROTOCOL.md documents, written by this
/// test rather than by the daemon: entry lines, then a commit line with
/// their count and the 64-bit FNV-1a of their bytes.
fn hand_written_segment(lines: &[&str]) -> String {
    let body: String = lines.iter().map(|line| format!("{line}\n")).collect();
    let hash = body.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{body}{{\"commit\": {}, \"hash\": {hash}}}\n", lines.len())
}

#[test]
fn logs_resumed_from_non_prefix_ranks_compact_to_batch_bytes_at_every_interrupt_point() {
    let campaign = fd_campaign();
    let mut batch = OutcomeStore::new();
    campaign.run_resumed(1, "job", None, Some(&mut batch));
    let batch_bytes = batch.to_json_string();
    let entry_lines: Vec<&str> = batch_bytes
        .lines()
        .filter(|line| line.starts_with("{\"campaign\""))
        .map(|line| line.trim_end_matches(','))
        .collect();
    assert_eq!(entry_lines.len(), 8);
    // Ranks 1, 4 and 6 are already in the log, in two segments; 0, 2, 3, 5
    // and 7 are pending — "the entries past the count so far" would be wrong.
    let seed_log = hand_written_segment(&[entry_lines[1], entry_lines[4]])
        + &hand_written_segment(&[entry_lines[6]]);
    let pending = 5usize;

    for chunk in [1usize, 2, 3, 8] {
        for stop_after in 1..=pending.div_ceil(chunk) {
            let case = format!("chunk={chunk} stop_after={stop_after}");
            let state = state_dir(&format!("nonprefix-{chunk}-{stop_after}"));
            let spec = st_serve::protocol::job_spec("job", &campaign);
            std::fs::write(state.join("job-job.spec.json"), spec).unwrap();
            let log_file = state.join("job-job.store.log");
            std::fs::write(&log_file, &seed_log).unwrap();

            // Incarnation 1 dies after `stop_after` chunks (the last value
            // lets it finish: the hook fires on the final chunk).
            let mut cfg = ServeConfig::new(&state);
            cfg.chunk = chunk;
            cfg.threads = 1;
            cfg.exit_after_chunks = Some(stop_after as u64);
            let (addr, handle) = spawn_daemon(cfg);
            let client = ServeClient::new(&addr);
            let _ = client.run_campaign("job", &campaign, Duration::from_millis(2));
            handle.join().expect("incarnation 1 exits");
            let survived = recover_store(&state, "job").expect(&case);
            assert_eq!(
                survived.len(),
                3 + (stop_after * chunk).min(pending),
                "{case}"
            );

            // Incarnation 2 finishes from whatever survived.
            let mut cfg = ServeConfig::new(&state);
            cfg.chunk = 3;
            cfg.threads = 2;
            let (addr, _handle) = spawn_daemon(cfg);
            let client = ServeClient::new(&addr);
            client
                .run_campaign("job", &campaign, Duration::from_millis(2))
                .expect(&case);
            let file = std::fs::read_to_string(state.join("job-job.store.json")).unwrap();
            assert_eq!(file, batch_bytes, "{case}");
            assert!(!log_file.exists(), "{case}: compaction removes the log");
            let _ = std::fs::remove_dir_all(&state);
        }
    }
}

#[test]
fn unreachable_daemon_is_a_typed_connect_error() {
    // Nothing listens on the discard port; stlab prints this exact text
    // before exiting 2.
    let client = ServeClient::new("127.0.0.1:9");
    let err = client.hello().unwrap_err();
    assert!(matches!(err, ClientError::Connect { .. }), "{err:?}");
    assert!(
        err.to_string()
            .starts_with("cannot reach st-serve at 127.0.0.1:9: "),
        "{err}"
    );
}

#[test]
fn raw_frames_get_typed_protocol_errors() {
    let (addr, _handle) = spawn_daemon(ServeConfig::new(state_dir("raw")));

    // A peer speaking a future protocol version gets a typed refusal that
    // names both versions, not a closed socket.
    let mut sock = TcpStream::connect(&addr).unwrap();
    let req = Json::obj([
        ("proto", Json::str("st-serve/v2")),
        ("verb", Json::str("hello")),
    ]);
    write_frame(&mut sock, &req).unwrap();
    let resp = read_frame(&mut sock).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let error = resp.get("error").expect("typed error");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("schema-mismatch")
    );
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("st-serve/v2") && message.contains(PROTO),
        "{message}"
    );

    // A payload that is not JSON, or not even UTF-8, is answered too: a
    // typed refusal that says where the text went wrong, not a closed
    // socket the client would blame on the daemon.
    for (payload, says) in [
        (
            b"{nope".as_slice(),
            "request is not JSON: JSON error at byte 1",
        ),
        (b"{\"proto\": \xff}".as_slice(), "request is not UTF-8"),
    ] {
        let mut sock = TcpStream::connect(&addr).unwrap();
        sock.write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        sock.write_all(payload).unwrap();
        let resp = read_frame(&mut sock).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let error = resp.get("error").expect("typed error");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("malformed"));
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.starts_with(says), "{message}");
    }

    // And a well-formed hello on a fresh connection succeeds.
    let mut sock = TcpStream::connect(&addr).unwrap();
    let req = Json::obj([("proto", Json::str(PROTO)), ("verb", Json::str("hello"))]);
    write_frame(&mut sock, &req).unwrap();
    let resp = read_frame(&mut sock).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
}

/// ISSUE 15: a scenario naming a process index `ProcessId::new` asserts on
/// used to panic the accept thread and take the daemon down. It is a
/// `malformed` request now, and the same daemon keeps answering.
#[test]
fn out_of_range_process_index_in_a_submit_is_malformed_not_fatal() {
    let (addr, _handle) = spawn_daemon(ServeConfig::new(state_dir("evil")));
    let exchange = |req: Json| {
        let mut sock = TcpStream::connect(&addr).unwrap();
        write_frame(&mut sock, &req).unwrap();
        read_frame(&mut sock).unwrap()
    };

    let mut text = String::new();
    st_campaign::store::write_scenario(&fd_campaign().scenarios()[0], &mut text);
    let Ok(Json::Obj(mut scenario)) = Json::parse(&text) else {
        panic!("scenarios encode as objects");
    };
    let generator = Json::parse(r#"{"kind": "Figure1", "p1": 5000, "p2": 1, "q": 2}"#).unwrap();
    scenario
        .iter_mut()
        .find(|(k, _)| k == "generator")
        .unwrap()
        .1 = generator;
    let entry = Json::obj([("rank", Json::U64(0)), ("scenario", Json::Obj(scenario))]);
    let resp = exchange(Json::obj([
        ("proto", Json::str(PROTO)),
        ("verb", Json::str("submit")),
        ("key", Json::str("evil")),
        ("entries", Json::arr([entry])),
    ]));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let error = resp.get("error").expect("typed error");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("malformed"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("process index 5000 out of range"),
        "{message}"
    );

    let hello = exchange(Json::obj([
        ("proto", Json::str(PROTO)),
        ("verb", Json::str("hello")),
    ]));
    assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true));
}

/// A store past the frame cap — unfetchable while a store travelled as one
/// frame — comes back page by page, byte-identical to the daemon's file;
/// asking for it the old way is a typed refusal, not a partial store, and
/// the daemon is none the worse for it.
#[test]
fn a_store_past_the_frame_cap_is_fetched_in_pages() {
    // A label is written twice per entry (the spec and the outcome): two
    // 17 MiB labels make a 68 MiB store.
    let mut campaign = fd_campaign();
    let small = campaign.scenarios()[0].clone();
    for tag in ["a", "b"] {
        let mut big = small.clone();
        big.label = tag.repeat(17 * 1024 * 1024);
        campaign.push(big);
    }
    let state = state_dir("oversize");
    let mut cfg = ServeConfig::new(&state);
    cfg.threads = 1;
    let (addr, _handle) = spawn_daemon(cfg);
    let client = ServeClient::new(&addr);
    client
        .submit("big", &campaign)
        .expect("the spec fits a frame");
    while client.status("big").unwrap().state != JobState::Done {
        std::thread::sleep(Duration::from_millis(20));
    }

    let file = std::fs::read_to_string(state.join("job-big.store.json")).unwrap();
    assert!(
        file.len() > st_core::MAX_FRAME_BYTES,
        "{} bytes",
        file.len()
    );
    let (job, fetched) = client.fetch_store("big").expect("fetched in pages");
    assert_eq!((job.state, job.completed), (JobState::Done, 10));
    assert!(fetched.to_json_string() == file, "fetched store bytes");

    let mut sock = TcpStream::connect(&addr).unwrap();
    let unpaged = Envelope::request(Verb::FetchOutcomes).string("key", "big");
    write_frame_text(&mut sock, &unpaged.finish()).unwrap();
    let whole = read_frame(&mut sock).unwrap();
    let error = whole.get("error").expect("typed error");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("too-large"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("\"from\""), "{message}");
    client.hello().expect("the daemon keeps answering");
    let _ = std::fs::remove_dir_all(&state);
}

/// The `job` object of a finished 8-scenario job.
fn done_job() -> Json {
    Json::obj([
        ("key", Json::str("job")),
        ("state", Json::str("done")),
        ("total", Json::U64(8)),
        ("completed", Json::U64(8)),
    ])
}

/// A success reply carrying `job`, and `store` and `next` when given.
fn ok_reply(job: &Json, store: Option<Json>, next: Option<Json>) -> Json {
    let mut members = vec![
        ("proto", Json::str(PROTO)),
        ("ok", Json::Bool(true)),
        ("job", job.clone()),
    ];
    members.extend(store.map(|store| ("store", store)));
    members.extend(next.map(|next| ("next", next)));
    Json::obj(members)
}

/// A daemon impersonator: answers each connection's one request with the
/// next of `replies`.
fn scripted_daemon(replies: Vec<Json>) -> (String, std::thread::JoinHandle<Vec<Json>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let mut requests = Vec::new();
        for reply in replies {
            let (mut sock, _) = listener.accept().unwrap();
            requests.push(read_frame(&mut sock).unwrap());
            write_frame(&mut sock, &reply).unwrap();
        }
        requests
    });
    (addr, handle)
}

#[test]
fn the_client_joins_pages_that_line_up_and_rejects_ones_that_do_not() {
    let campaign = fd_campaign();
    let mut batch = OutcomeStore::new();
    campaign.run_resumed(1, "job", None, Some(&mut batch));
    let doc = Json::parse(&batch.to_json_string()).unwrap();
    let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
    let job = done_job();
    let page = |range: std::ops::Range<usize>, next: Option<Json>| {
        let store = Json::obj([
            ("schema", Json::str(st_campaign::store::SCHEMA)),
            ("entries", Json::Arr(entries[range].to_vec())),
        ]);
        ok_reply(&job, Some(store), next)
    };
    let froms = |requests: &[Json]| -> Vec<Option<u64>> {
        requests
            .iter()
            .map(|r| r.get("from").and_then(Json::as_u64))
            .collect()
    };

    // Three pages that line up: the store, byte for byte.
    let (addr, daemon) = scripted_daemon(vec![
        page(0..3, Some(Json::U64(3))),
        page(3..4, Some(Json::U64(4))),
        page(4..8, Some(Json::Null)),
    ]);
    let (_, fetched) = ServeClient::new(&addr).fetch_store("job").unwrap();
    assert_eq!(fetched.to_json_string(), batch.to_json_string());
    assert_eq!(
        froms(&daemon.join().unwrap()),
        [Some(0), Some(3), Some(4)],
        "each page is asked for where the last one ended"
    );

    // A daemon from before paging ignores `from`: the whole store, no `next`.
    let (addr, daemon) = scripted_daemon(vec![page(0..8, None)]);
    let (_, fetched) = ServeClient::new(&addr).fetch_store("job").unwrap();
    assert_eq!(fetched.to_json_string(), batch.to_json_string());
    daemon.join().unwrap();

    // Pages that do not line up are refused: a `next` that skips entries, one
    // that stands still, one that is not an index.
    for next in [Json::U64(5), Json::U64(0), Json::str("3")] {
        let (addr, daemon) = scripted_daemon(vec![page(0..3, Some(next.clone()))]);
        match ServeClient::new(&addr).fetch_store("job") {
            Err(ClientError::Failed(message)) => {
                assert!(message.contains("next page's start"), "{message}")
            }
            other => panic!("next {next}: expected a typed failure, got {other:?}"),
        }
        daemon.join().unwrap();
    }
    // So is a page that repeats what an earlier one held (the index moved
    // under the client): the joined store has a duplicate.
    let (addr, daemon) = scripted_daemon(vec![
        page(0..3, Some(Json::U64(3))),
        page(2..5, Some(Json::Null)),
    ]);
    match ServeClient::new(&addr).fetch_store("job") {
        Err(ClientError::Failed(message)) => assert!(message.contains("duplicate"), "{message}"),
        other => panic!("expected a typed failure, got {other:?}"),
    }
    daemon.join().unwrap();
}

/// A `job` object with a member missing or of the wrong type used to read
/// as `""` or `0`; it is a typed `Malformed` naming the member, whichever
/// verb it answers.
#[test]
fn the_client_refuses_a_job_it_cannot_read_whole() {
    let injured = |name: &str, value: Option<Json>| {
        let Json::Obj(mut members) = done_job() else {
            unreachable!()
        };
        members.retain(|(member, _)| member != name);
        members.extend(value.map(|value| (name.to_string(), value)));
        Json::Obj(members)
    };
    for (name, value, says) in [
        ("key", None, "job has no string \"key\""),
        ("key", Some(Json::U64(5)), "job has no string \"key\""),
        ("total", None, "job has no integer \"total\""),
        (
            "total",
            Some(Json::str("8")),
            "job has no integer \"total\"",
        ),
        ("completed", None, "job has no integer \"completed\""),
        (
            "completed",
            Some(Json::Null),
            "job has no integer \"completed\"",
        ),
        (
            "state",
            Some(Json::str("finished")),
            "unknown job state \"finished\"",
        ),
    ] {
        let job = injured(name, value.clone());
        let jobs = Json::obj([
            ("proto", Json::str(PROTO)),
            ("ok", Json::Bool(true)),
            ("jobs", Json::arr([done_job(), job.clone()])),
        ]);
        let (addr, daemon) = scripted_daemon(vec![ok_reply(&job, None, None), jobs]);
        let client = ServeClient::new(&addr);
        for answer in [client.status("job").map(|_| ()), client.jobs().map(|_| ())] {
            match answer {
                Err(ClientError::Malformed(message)) => assert_eq!(message, says),
                other => panic!("{name} = {value:?}: expected Malformed, got {other:?}"),
            }
        }
        daemon.join().unwrap();
    }
}
