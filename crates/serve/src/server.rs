//! The daemon: a TCP accept loop, a persistent job table, and one campaign
//! worker draining the queue through [`Campaign::run_chunked_fresh`].
//!
//! # State directory
//!
//! Every accepted `submit` is persisted *before* it is acknowledged:
//! `job-<key>.spec.json` (schema [`JOB_SCHEMA`]) holds the campaign's
//! canonical `(rank, scenario)` list. It is the job's identity — a
//! re-`submit` is compared with its bytes — and the only copy of the
//! campaign the daemon keeps: the job table holds a key, a state and two
//! counters per job, and the worker decodes the spec when the job runs.
//!
//! Outcomes live in one of two files. While a job is unfinished, the
//! worker appends each chunk's fresh entries to the segment log
//! `job-<key>.store.log` (grammar and recovery rule: [`crate::log`]), so a
//! job writes O(N) bytes however many chunks it takes. When the last chunk
//! is in, the log is **compacted** once into `job-<key>.store.json`, an
//! ordinary [`OutcomeStore`] file: written to a temp file, renamed into
//! place, and only then is the log removed. A kill between the rename and
//! the removal leaves both; the store wins and the restart scan removes
//! the log.
//!
//! A restarted daemon rescans the directory, recovers each job's outcomes
//! ([`recover_store`]: the store file if there is one, else the log's
//! committed segments, dropping a torn tail), re-derives its progress by
//! matching them against the spec (the same staleness-guarded comparison
//! `--resume` uses), and continues — killing the process at any point
//! loses at most the chunk in flight. A log damaged *inside* a committed
//! segment is never partly reused: the job parks [`JobState::Broken`].
//!
//! # Determinism
//!
//! The worker executes jobs through the same engine as `stlab` batch mode,
//! and log lines are the store's own entry lines, so a job's finished
//! store is **byte-identical** whether it ran in one daemon process,
//! across a kill/restart, or via `stlab` without a daemon at all
//! (`tests/serve.rs` and CI's serve-smoke job assert the bytes).

use std::fmt::Display;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use st_campaign::store::write_atomic;
use st_campaign::{Campaign, ChunkControl, OutcomeStore, StoreError};
use st_core::frame::{read_frame, write_frame_text, MAX_FRAME_BYTES};
use st_core::Json;

use crate::log;
use crate::protocol::{
    decode_entries, error_response, job_spec, ok_response, text_with, validate_key, ErrorKind,
    JobState, Verb, JOB_SCHEMA, PAGE_BYTES, PROTO,
};

/// Daemon configuration (see `st-serve --help` for the CLI mapping).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory for persisted job specs and outcome stores (created if
    /// missing).
    pub state_dir: PathBuf,
    /// Worker threads per campaign chunk (`usize::MAX` = one per hardware
    /// thread). Results are thread-count independent.
    pub threads: usize,
    /// Scenarios per checkpoint: a segment is appended to the job's log and
    /// cancellation honored at every multiple of this.
    pub chunk: usize,
    /// Backpressure bound: a `submit` whose scenarios would push the total
    /// queued+running count past this is refused with a typed `busy` error.
    pub max_pending: usize,
    /// Test/CI crash hook: after this many chunk checkpoints the daemon
    /// stops as if killed (no cleanup beyond what every chunk does). A
    /// fully-reused job costs one checkpoint too.
    pub exit_after_chunks: Option<u64>,
}

impl ServeConfig {
    /// Defaults: hardware-width workers, chunks of 8, 1M scenarios of
    /// backpressure headroom, no crash hook.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            state_dir: state_dir.into(),
            threads: usize::MAX,
            chunk: 8,
            max_pending: 1_000_000,
            exit_after_chunks: None,
        }
    }
}

/// One submitted campaign, as the job table holds it: O(1) memory. The
/// campaign itself is in `job-<key>.spec.json`.
struct Job {
    key: String,
    state: JobState,
    /// Set by `cancel` while running; honored at the next chunk boundary.
    cancel: bool,
    completed: usize,
    total: usize,
    /// Why the job is [`JobState::Broken`]: the error kind and text every
    /// request against it is answered with.
    broken: Option<Broken>,
}

/// An error kind and message, ready for [`error_response`].
type Broken = (ErrorKind, String);

/// A persisted store that cannot be used: another schema is the protocol's
/// `schema-mismatch`, anything else (unreadable, malformed, damaged log)
/// is `internal`.
fn broken_by(e: &StoreError) -> Broken {
    let kind = match e {
        StoreError::SchemaMismatch { .. } => ErrorKind::SchemaMismatch,
        _ => ErrorKind::Internal,
    };
    (kind, e.to_string())
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    jobs: Mutex<Vec<Job>>,
    work: Condvar,
    shutdown: AtomicBool,
    chunks_left: Mutex<Option<u64>>,
}

/// A bound daemon; [`run`](Server::run) blocks until the crash hook fires
/// (or forever without one — kill the process to stop it, that's the
/// supported and tested shutdown path).
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

impl Server {
    /// Creates the state directory, loads persisted jobs, and binds
    /// `addr` (use port 0 to let the OS pick; see
    /// [`local_addr`](Server::local_addr)).
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let jobs = load_jobs(&cfg.state_dir);
        let chunks_left = Mutex::new(cfg.exit_after_chunks);
        Ok(Server {
            listener,
            shared: Shared {
                addr: local,
                jobs: Mutex::new(jobs),
                work: Condvar::new(),
                shutdown: AtomicBool::new(false),
                chunks_left,
                cfg,
            },
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves requests and executes jobs until shut down by the crash
    /// hook. One frame per connection; requests are handled serially, the
    /// campaign worker runs concurrently.
    pub fn run(self) {
        let shared = &self.shared;
        std::thread::scope(|scope| {
            scope.spawn(|| worker(shared));
            for stream in self.listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(mut sock) => handle_conn(shared, &mut sock),
                    Err(e) => eprintln!("st-serve: accept error: {e}"),
                }
            }
            // Unblock the worker if the accept loop exits first.
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.work.notify_all();
        });
    }
}

fn spec_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("job-{key}.spec.json"))
}

fn store_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("job-{key}.store.json"))
}

fn log_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("job-{key}.store.log"))
}

/// `Ok(None)` for a file that is not there; other errors stay errors.
fn if_found<T>(read: std::io::Result<T>) -> std::io::Result<Option<T>> {
    match read {
        Ok(value) => Ok(Some(value)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Compaction, the one whole-store write of a job's life: the finished
/// store is streamed to `job-<key>.store.json` (a temp sibling, renamed
/// into place), then the log goes away. A kill in between leaves both, and
/// the store wins ([`recover`]).
fn compact(store: &OutcomeStore, dir: &Path, key: &str) -> std::io::Result<()> {
    write_atomic(&store_path(dir, key), |w| store.write_to(w))?;
    if_found(std::fs::remove_file(log_path(dir, key))).map(|_| ())
}

/// A job's persisted outcomes, decoded.
struct Recovered {
    store: OutcomeStore,
    /// `store` is the compacted store file, not a replayed log.
    compacted: bool,
    /// The log's committed length when `store` came from it, else 0: what
    /// the log is truncated to before the worker appends to it again.
    log_len: u64,
}

/// Reads what the state directory holds for `key`'s outcomes: the store
/// file if there is one, else the log's committed segments (a torn tail
/// is dropped), else nothing. Safe to call while the worker is appending
/// or compacting.
fn recover(dir: &Path, key: &str) -> Result<Recovered, StoreError> {
    let store = store_path(dir, key);
    let compacted = |text: String| {
        Ok(Recovered {
            store: OutcomeStore::from_json_str(&text)?,
            compacted: true,
            log_len: 0,
        })
    };
    if let Some(text) = if_found(std::fs::read_to_string(&store))? {
        return compacted(text);
    }
    if let Some(bytes) = if_found(std::fs::read(log_path(dir, key)))? {
        let replay = log::replay(&bytes).map_err(StoreError::Malformed)?;
        return Ok(Recovered {
            store: OutcomeStore::from_entries(replay.entries)?,
            compacted: false,
            log_len: replay.committed_len as u64,
        });
    }
    // Compaction renames the store into place before it removes the log:
    // if neither was there, one may have finished between the two looks.
    match if_found(std::fs::read_to_string(&store))? {
        Some(text) => compacted(text),
        None => Ok(Recovered {
            store: OutcomeStore::new(),
            compacted: false,
            log_len: 0,
        }),
    }
}

/// The outcomes the state directory holds for job `key`, finished or not:
/// the compacted store file if it exists, else the segment log's committed
/// entries (a torn tail is dropped; damage inside a committed segment is
/// an error), else an empty store. This is the daemon's own recovery path
/// — what a restart resumes from and what `fetch-outcomes` serves.
pub fn recover_store(state_dir: &Path, key: &str) -> Result<OutcomeStore, StoreError> {
    Ok(recover(state_dir, key)?.store)
}

/// Rebuilds the job table from the state directory (sorted by file name
/// for a deterministic table order). Unreadable specs are skipped loudly;
/// unreadable *stores* and damaged logs produce [`JobState::Broken`] jobs
/// that surface the error's own text on every request against them.
fn load_jobs(dir: &Path) -> Vec<Job> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("job-") && n.ends_with(".spec.json"))
        .collect();
    names.sort();
    let mut jobs = Vec::new();
    for name in names {
        match load_job(dir, &name) {
            Ok(job) => jobs.push(job),
            Err(e) => eprintln!("st-serve: skipping {name}: {e}"),
        }
    }
    jobs
}

/// Decodes a persisted job spec into its key and campaign.
fn load_spec(path: &Path) -> Result<(String, Campaign), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != JOB_SCHEMA {
        return Err(format!(
            "job spec schema mismatch: file has {schema:?}, this build reads {JOB_SCHEMA:?}"
        ));
    }
    let key = doc
        .get("key")
        .and_then(Json::as_str)
        .ok_or("job spec has no \"key\"")?
        .to_string();
    validate_key(&key)?;
    let entries = doc.get("entries").ok_or("job spec has no \"entries\"")?;
    let campaign = Campaign::from_ranked(decode_entries(entries)?)?;
    Ok((key, campaign))
}

fn load_job(dir: &Path, name: &str) -> Result<Job, String> {
    let (key, mut campaign) = load_spec(&dir.join(name))?;
    let total = campaign.len();
    let (completed, state, broken) = match recover(dir, &key) {
        Ok(Recovered {
            store, compacted, ..
        }) => {
            let completed = campaign.skip_completed(&store, &key).len();
            if compacted {
                // The store wins over a log that a kill between compaction's
                // rename and its removal left behind.
                let _ = std::fs::remove_file(log_path(dir, &key));
            }
            // `done` means the compacted store covers the campaign; a log
            // that does is one requeue (and no scenario) away from it.
            let state = if compacted && completed == total {
                JobState::Done
            } else {
                JobState::Interrupted
            };
            (completed, state, None)
        }
        Err(e) => (0, JobState::Broken, Some(broken_by(&e))),
    };
    Ok(Job {
        key,
        state,
        cancel: false,
        completed,
        total,
        broken,
    })
}

// ---------------------------------------------------------------------------
// The campaign worker.
// ---------------------------------------------------------------------------

fn worker(shared: &Shared) {
    loop {
        let key = {
            let mut jobs = shared.jobs.lock().expect("job table lock");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = jobs.iter_mut().find(|j| j.state == JobState::Queued) {
                    job.state = JobState::Running;
                    break job.key.clone();
                }
                jobs = shared.work.wait(jobs).expect("job table lock");
            }
        };
        run_job(shared, &key);
        if shared.shutdown.load(Ordering::SeqCst) {
            // Wake the accept loop so the whole daemon exits (the crash
            // hook simulates a kill; a poke connection is how the blocking
            // `incoming()` notices).
            let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(200));
            return;
        }
    }
}

/// Executes the `Running` job `key` and files the result in the job table.
///
/// This is the worker's one unwind boundary: a job that panics (a spec that
/// decodes and then asserts when built, a bug in a workload) parks
/// [`JobState::Broken`] with the panic's message and the worker goes on to
/// the next job. What the unwind leaves behind is what a kill would: whole
/// committed segments in the log, and no lock held (`execute` takes the job
/// table only around its own counter updates).
fn run_job(shared: &Shared, key: &str) {
    let ended = catch_unwind(AssertUnwindSafe(|| execute(shared, key))).unwrap_or_else(|panic| {
        let what = match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
            (Some(text), _) => text,
            (None, Some(text)) => text.as_str(),
            (None, None) => "(no message)",
        };
        Err((ErrorKind::Internal, format!("job {key:?} panicked: {what}")))
    });
    let mut jobs = shared.jobs.lock().expect("job table lock");
    if let Some(job) = jobs.iter_mut().find(|j| j.key == key) {
        match ended {
            Ok(true) => {
                job.completed = job.total;
                job.state = JobState::Done;
            }
            Ok(false) if shared.shutdown.load(Ordering::SeqCst) => {
                job.state = JobState::Interrupted
            }
            Ok(false) => job.state = JobState::Cancelled,
            Err(broken) => {
                job.state = JobState::Broken;
                job.broken = Some(broken);
            }
        }
        job.cancel = false;
    }
}

/// Runs job `key` from its persisted spec and outcomes until it finishes
/// (`Ok(true)`, store compacted), is stopped at a chunk boundary
/// (`Ok(false)`), or cannot persist its progress (`Err`: the job stops
/// there rather than run on with nothing on disk).
fn execute(shared: &Shared, key: &str) -> Result<bool, Broken> {
    let dir = &shared.cfg.state_dir;
    let internal = |what: &str, e: &dyn Display| {
        let message = format!("cannot {what} for job {key:?}: {e}");
        (ErrorKind::Internal, message)
    };
    let (_, campaign) =
        load_spec(&spec_path(dir, key)).map_err(|e| internal("reload the spec", &e))?;
    let Recovered {
        store: resume,
        log_len,
        ..
    } = recover(dir, key).map_err(|e| broken_by(&e))?;
    // Appends continue after the last committed segment: a torn tail (or,
    // when a store file won, a whole stale log) is cut off first.
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(log_path(dir, key))
        .and_then(|file| file.set_len(log_len).map(|()| file))
        .map_err(|e| internal("open the segment log", &e))?;
    let mut record = OutcomeStore::new();
    let mut append_error = None;
    let (_, finished) = campaign.run_chunked_fresh(
        shared.cfg.threads,
        key,
        Some(&resume),
        &mut record,
        shared.cfg.chunk,
        |report| {
            if let Err(e) = log.write_all(log::segment(report.fresh).as_bytes()) {
                append_error = Some(internal("append to the segment log", &e));
                return ChunkControl::Stop;
            }
            let mut jobs = shared.jobs.lock().expect("job table lock");
            let cancelled = match jobs.iter_mut().find(|j| j.key == key) {
                Some(job) => {
                    job.completed = report.completed;
                    job.cancel
                }
                None => false,
            };
            drop(jobs);
            if crash_hook_fired(shared) {
                shared.shutdown.store(true, Ordering::SeqCst);
                ChunkControl::Stop
            } else if cancelled {
                ChunkControl::Stop
            } else {
                ChunkControl::Continue
            }
        },
    );
    if let Some(broken) = append_error {
        return Err(broken);
    }
    if finished {
        drop(log);
        compact(&record, dir, key).map_err(|e| internal("compact the outcome store", &e))?;
    }
    Ok(finished)
}

/// Decrements the crash-hook counter; `true` when it just hit zero.
fn crash_hook_fired(shared: &Shared) -> bool {
    let mut left = shared.chunks_left.lock().expect("crash hook lock");
    match left.as_mut() {
        None => false,
        Some(n) => {
            *n = n.saturating_sub(1);
            *n == 0
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------------

fn handle_conn(shared: &Shared, sock: &mut TcpStream) {
    let _ = sock.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = sock.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(doc) = read_frame(sock) else {
        return; // poke connections and dropped peers land here
    };
    let _ = write_frame_text(sock, &respond(shared, &doc));
}

/// The response frame's text for request `doc`.
fn respond(shared: &Shared, doc: &Json) -> String {
    let resp = match request_verb(doc) {
        Err(refusal) => refusal,
        Ok(Verb::Hello) => ok_response([
            ("server", Json::str("st-serve")),
            ("store_schema", Json::str(st_campaign::store::SCHEMA)),
        ]),
        Ok(Verb::Submit) => submit(shared, doc),
        Ok(Verb::Status) => status(shared, doc),
        Ok(Verb::Cancel) => cancel(shared, doc),
        Ok(Verb::Resume) => resume(shared, doc),
        // The one reply too large to build as a value first.
        Ok(Verb::FetchOutcomes) => match fetch_outcomes(shared, doc, PAGE_BYTES) {
            Ok(text) => return text,
            Err(refusal) => refusal,
        },
    };
    resp.to_string()
}

/// The request's verb, once its envelope checks out; `Err` is the ready
/// error response.
fn request_verb(doc: &Json) -> Result<Verb, Json> {
    let Some(proto) = doc.get("proto").and_then(Json::as_str) else {
        return Err(error_response(
            ErrorKind::Malformed,
            "request has no \"proto\" field",
        ));
    };
    if proto != PROTO {
        return Err(error_response(
            ErrorKind::SchemaMismatch,
            format!("protocol mismatch: peer speaks {proto:?}, this daemon speaks {PROTO:?}"),
        ));
    }
    let Some(verb) = doc.get("verb").and_then(Json::as_str) else {
        return Err(error_response(
            ErrorKind::Malformed,
            "request has no \"verb\" field",
        ));
    };
    Verb::parse(verb).ok_or_else(|| {
        let known: Vec<&str> = Verb::ALL.into_iter().map(Verb::wire).collect();
        error_response(
            ErrorKind::UnknownVerb,
            format!("unknown verb {verb:?} (known: {})", known.join(", ")),
        )
    })
}

fn job_fields(job: &Job) -> Json {
    let mut fields = vec![
        ("key", Json::str(job.key.as_str())),
        ("state", Json::str(job.state.wire())),
        ("total", Json::U64(job.total as u64)),
        ("completed", Json::U64(job.completed as u64)),
    ];
    if let Some((_, message)) = &job.broken {
        fields.push(("error", Json::str(message.as_str())));
    }
    Json::obj(fields)
}

/// Extracts and validates the request's `key` field; `Err` is the ready
/// error response.
fn required_key(doc: &Json) -> Result<String, Json> {
    let Some(key) = doc.get("key").and_then(Json::as_str) else {
        return Err(error_response(
            ErrorKind::Malformed,
            "request has no \"key\" field",
        ));
    };
    match validate_key(key) {
        Ok(()) => Ok(key.to_string()),
        Err(msg) => Err(error_response(ErrorKind::Malformed, msg)),
    }
}

fn submit(shared: &Shared, doc: &Json) -> Json {
    let key = match required_key(doc) {
        Ok(key) => key,
        Err(resp) => return resp,
    };
    let Some(entries) = doc.get("entries") else {
        return error_response(ErrorKind::Malformed, "submit has no \"entries\" field");
    };
    let entries = match decode_entries(entries) {
        Ok(entries) => entries,
        Err(msg) => return error_response(ErrorKind::Malformed, msg),
    };
    if entries.is_empty() {
        return error_response(
            ErrorKind::Malformed,
            "a campaign needs at least one scenario",
        );
    }
    let campaign = match Campaign::from_ranked(entries) {
        Ok(campaign) => campaign,
        Err(msg) => return error_response(ErrorKind::Malformed, msg),
    };
    // From here on the campaign is its canonical spec text: that is what is
    // persisted, compared, and decoded again by the worker.
    let spec = job_spec(&key, &campaign);
    let total = campaign.len();
    let path = spec_path(&shared.cfg.state_dir, &key);
    // Read before taking the job-table lock; this accept loop is the only
    // writer of spec files, so the file cannot change in between.
    let persisted = std::fs::read_to_string(&path).ok();

    let mut jobs = shared.jobs.lock().expect("job table lock");
    if let Some(job) = jobs.iter_mut().find(|j| j.key == key) {
        if persisted.as_deref().map(str::trim_end) != Some(spec.as_str()) {
            return error_response(
                ErrorKind::SpecMismatch,
                format!(
                    "job {key:?} already exists with a different campaign spec — \
                     submit under a new key instead of mutating a sweep's identity"
                ),
            );
        }
        if let Some((kind, msg)) = &job.broken {
            return error_response(*kind, msg.clone());
        }
        // Idempotent re-submit: parked jobs requeue (the resume-after-
        // restart path), live and finished jobs just report.
        if matches!(job.state, JobState::Interrupted | JobState::Cancelled) {
            job.state = JobState::Queued;
            job.cancel = false;
            shared.work.notify_all();
        }
        return ok_response([("job", job_fields(job))]);
    }

    let in_flight: usize = jobs
        .iter()
        .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
        .map(|j| j.total - j.completed)
        .sum();
    if in_flight + total > shared.cfg.max_pending {
        return error_response(
            ErrorKind::Busy,
            format!(
                "daemon is at capacity: {in_flight} scenario(s) in flight, {total} more \
                 would exceed --max-pending {} — retry later",
                shared.cfg.max_pending
            ),
        );
    }

    // Persist before acknowledging: a confirmed submit survives a kill.
    let written = write_atomic(&path, |w| {
        w.write_all(spec.as_bytes())?;
        w.write_all(b"\n")
    });
    if let Err(e) = written {
        return error_response(ErrorKind::Internal, format!("cannot persist job spec: {e}"));
    }
    jobs.push(Job {
        key,
        state: JobState::Queued,
        cancel: false,
        completed: 0,
        total,
        broken: None,
    });
    shared.work.notify_all();
    ok_response([("job", job_fields(jobs.last().expect("just pushed")))])
}

fn status(shared: &Shared, doc: &Json) -> Json {
    let jobs = shared.jobs.lock().expect("job table lock");
    match doc.get("key").and_then(Json::as_str) {
        Some(key) => match jobs.iter().find(|j| j.key == key) {
            Some(job) => ok_response([("job", job_fields(job))]),
            None => error_response(ErrorKind::UnknownJob, format!("no job under key {key:?}")),
        },
        None => {
            let mut sorted: Vec<&Job> = jobs.iter().collect();
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            ok_response([(
                "jobs",
                Json::Arr(sorted.into_iter().map(job_fields).collect()),
            )])
        }
    }
}

fn cancel(shared: &Shared, doc: &Json) -> Json {
    let key = match required_key(doc) {
        Ok(key) => key,
        Err(resp) => return resp,
    };
    let mut jobs = shared.jobs.lock().expect("job table lock");
    match jobs.iter_mut().find(|j| j.key == key) {
        None => error_response(ErrorKind::UnknownJob, format!("no job under key {key:?}")),
        Some(job) => {
            match job.state {
                JobState::Queued => job.state = JobState::Cancelled,
                JobState::Running => job.cancel = true,
                _ => {}
            }
            ok_response([
                ("job", job_fields(job)),
                ("cancel_requested", Json::Bool(job.cancel)),
            ])
        }
    }
}

fn resume(shared: &Shared, doc: &Json) -> Json {
    let key = match required_key(doc) {
        Ok(key) => key,
        Err(resp) => return resp,
    };
    let mut jobs = shared.jobs.lock().expect("job table lock");
    match jobs.iter_mut().find(|j| j.key == key) {
        None => error_response(ErrorKind::UnknownJob, format!("no job under key {key:?}")),
        Some(job) => {
            if let Some((kind, msg)) = &job.broken {
                return error_response(*kind, msg.clone());
            }
            if matches!(job.state, JobState::Interrupted | JobState::Cancelled) {
                job.state = JobState::Queued;
                job.cancel = false;
                shared.work.notify_all();
            }
            ok_response([("job", job_fields(job))])
        }
    }
}

/// `fetch-outcomes`: the job's recovered outcomes as a store document —
/// all of them for a request without `from` (the reply every client before
/// paging expects, refused with a typed error when it cannot fit a frame),
/// else the page starting at entry `from` and the index the next page
/// starts at. Entries are indexed in store order, which a job only ever
/// appends to, so a `from` stays good across the job's chunks and its
/// compaction. The reply's text is written around the page's entry lines:
/// the store is decoded ([`recover`]) but never a [`Json`] value. `Err` is
/// the ready error response. (`page_bytes` is [`PAGE_BYTES`]; a parameter
/// so tests can page a small store.)
fn fetch_outcomes(shared: &Shared, doc: &Json, page_bytes: usize) -> Result<String, Json> {
    let key = required_key(doc)?;
    let from = match doc.get("from") {
        None => None,
        Some(from) => Some(
            from.as_u64()
                .and_then(|from| usize::try_from(from).ok())
                .ok_or_else(|| {
                    error_response(ErrorKind::Malformed, "\"from\" must be an entry index")
                })?,
        ),
    };
    // Snapshot under the job-table lock, read and decode without it: the
    // worker's per-chunk progress update and every `status` poll take the
    // same lock.
    let fields = {
        let jobs = shared.jobs.lock().expect("job table lock");
        let Some(job) = jobs.iter().find(|j| j.key == key) else {
            return Err(error_response(
                ErrorKind::UnknownJob,
                format!("no job under key {key:?}"),
            ));
        };
        if let Some((kind, msg)) = &job.broken {
            return Err(error_response(*kind, msg.clone()));
        }
        job_fields(job)
    };
    let store = match recover(&shared.cfg.state_dir, &key) {
        Ok(recovered) => recovered.store,
        Err(e) => {
            let (kind, msg) = broken_by(&e);
            return Err(error_response(
                kind,
                format!("cannot read outcome store for {key:?}: {msg}"),
            ));
        }
    };
    let total = store.len();
    if from.is_some_and(|from| from > total) {
        return Err(error_response(
            ErrorKind::Malformed,
            format!("\"from\" is past the {total} entries job {key:?} has committed"),
        ));
    }
    // A request without `from` gets all of it or a refusal, never a part.
    let bound = from.map_or(MAX_FRAME_BYTES, |_| page_bytes);
    let mut next = total;
    let text = text_with(&ok_response([("job", fields)]), |text| {
        text.push_str(", \"store\": ");
        next = store.write_page(from.unwrap_or(0), bound, text);
        if from.is_some() {
            text.push_str(", \"next\": ");
            let next = if next < total {
                Json::U64(next as u64)
            } else {
                Json::Null
            };
            next.write(text);
        }
    });
    if text.len() > MAX_FRAME_BYTES || (from.is_none() && next < total) {
        return Err(error_response(
            ErrorKind::TooLarge,
            format!(
                "the reply for job {key:?} ({total} entries) does not fit one {MAX_FRAME_BYTES}-byte \
                 frame — fetch it in pages: send \"from\": 0, then each reply's \"next\""
            ),
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use st_campaign::{
        policy_from_spec, CertifyTimely, FdAbi, FdDetector, FleetReplayDrive, GeneratorSpec,
        Scenario, TimeoutPolicySpec, Workload,
    };
    use st_core::Universe;

    /// A fresh `Shared` over a clean state directory — the daemon minus
    /// its accept loop and worker, so the request handlers can be driven
    /// deterministically (no job ever leaves `Queued`).
    fn shared_with(dir_name: &str, max_pending: usize) -> Shared {
        let state = std::env::temp_dir().join(dir_name);
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir_all(&state).unwrap();
        let mut cfg = ServeConfig::new(&state);
        cfg.max_pending = max_pending;
        Shared {
            addr: "127.0.0.1:1".parse().unwrap(),
            jobs: Mutex::new(load_jobs(&state)),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            chunks_left: Mutex::new(None),
            cfg,
        }
    }

    /// The reply to `doc`, parsed.
    fn dispatch(shared: &Shared, doc: &Json) -> Json {
        Json::parse(&respond(shared, doc)).expect("a reply is canonical JSON")
    }

    fn tiny_campaign(seeds: std::ops::Range<u64>) -> Campaign {
        let mut campaign = Campaign::new();
        for seed in seeds {
            campaign.push(Scenario::new(
                format!("tiny/seed{seed}"),
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
                1_000,
                seed,
            ));
        }
        campaign
    }

    fn submit_doc(key: &str, campaign: &Campaign) -> Json {
        let envelope = protocol::request(Verb::Submit, [("key", Json::str(key))]);
        let text = protocol::text_with(&envelope, |out| {
            out.push_str(", \"entries\": ");
            protocol::campaign_entries(campaign, out);
        });
        Json::parse(&text).expect("a request is canonical JSON")
    }

    fn error_kind(resp: &Json) -> Option<&str> {
        resp.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    fn job_state(resp: &Json) -> Option<&str> {
        resp.get("job")
            .and_then(|j| j.get("state"))
            .and_then(Json::as_str)
    }

    #[test]
    fn submit_cancel_resume_lifecycle_without_a_worker() {
        let shared = shared_with("st-serve-lifecycle-test", 10);
        let campaign = tiny_campaign(0..4);

        // Fresh submit: queued, spec persisted before the ack.
        let resp = dispatch(&shared, &submit_doc("job", &campaign));
        assert_eq!(job_state(&resp), Some("queued"), "{resp:?}");
        assert!(spec_path(&shared.cfg.state_dir, "job").exists());

        // Identical re-submit is idempotent.
        let resp = dispatch(&shared, &submit_doc("job", &campaign));
        assert_eq!(job_state(&resp), Some("queued"));
        assert_eq!(shared.jobs.lock().unwrap().len(), 1);

        // Same key, different campaign: the staleness guard refuses.
        let resp = dispatch(&shared, &submit_doc("job", &tiny_campaign(0..3)));
        assert_eq!(error_kind(&resp), Some("spec-mismatch"));

        // Backpressure: 4 in flight + 7 more > 10.
        let resp = dispatch(&shared, &submit_doc("big", &tiny_campaign(10..17)));
        assert_eq!(error_kind(&resp), Some("busy"));

        // Cancel a queued job, resume it back into the queue.
        let cancel = protocol::request(Verb::Cancel, [("key", Json::str("job"))]);
        assert_eq!(job_state(&dispatch(&shared, &cancel)), Some("cancelled"));
        let resume = protocol::request(Verb::Resume, [("key", Json::str("job"))]);
        assert_eq!(job_state(&dispatch(&shared, &resume)), Some("queued"));

        // Fetching before anything ran returns an empty store.
        let fetch = protocol::request(Verb::FetchOutcomes, [("key", Json::str("job"))]);
        let resp = dispatch(&shared, &fetch);
        let store = resp.get("store").expect("store field");
        assert_eq!(
            store
                .get("entries")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );

        // Unknown keys are typed refusals.
        let status = protocol::request(Verb::Status, [("key", Json::str("nope"))]);
        assert_eq!(error_kind(&dispatch(&shared, &status)), Some("unknown-job"));
        let bad_key = protocol::request(Verb::Status, [("key", Json::str("a/b"))]);
        assert_eq!(
            error_kind(&dispatch(&shared, &bad_key)),
            Some("unknown-job")
        );
    }

    #[test]
    fn restart_scan_derives_done_interrupted_and_broken_states() {
        let state = std::env::temp_dir().join("st-serve-rescan-test");
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir_all(&state).unwrap();

        // "done": spec + complete store.
        let finished = tiny_campaign(0..2);
        std::fs::write(
            spec_path(&state, "done-job"),
            protocol::job_spec("done-job", &finished),
        )
        .unwrap();
        let mut store = OutcomeStore::new();
        finished.run_resumed(1, "done-job", None, Some(&mut store));
        store.save(store_path(&state, "done-job")).unwrap();

        // "interrupted": spec + half the store.
        let half_done = tiny_campaign(0..4);
        std::fs::write(
            spec_path(&state, "half-job"),
            protocol::job_spec("half-job", &half_done),
        )
        .unwrap();
        let mut partial = OutcomeStore::new();
        half_done.run_resumed(1, "half-job", None, Some(&mut partial));
        partial.retain(|idx, _| idx < 2);
        partial.save(store_path(&state, "half-job")).unwrap();

        // "broken": spec + a store from another schema version.
        std::fs::write(
            spec_path(&state, "broken-job"),
            protocol::job_spec("broken-job", &finished),
        )
        .unwrap();
        let stale = store
            .to_json_string()
            .replace("outcome-store-v2", "outcome-store-v1");
        std::fs::write(store_path(&state, "broken-job"), stale).unwrap();

        let jobs = load_jobs(&state);
        let by_key = |key: &str| jobs.iter().find(|j| j.key == key).expect(key);
        assert_eq!(by_key("done-job").state, JobState::Done);
        assert_eq!(by_key("done-job").completed, 2);
        assert_eq!(by_key("half-job").state, JobState::Interrupted);
        assert_eq!(by_key("half-job").completed, 2);
        let broken = by_key("broken-job");
        assert_eq!(broken.state, JobState::Broken);
        let (kind, text) = broken.broken.as_ref().unwrap();
        assert_eq!(*kind, ErrorKind::SchemaMismatch);
        assert!(text.contains("outcome store schema mismatch"), "{text}");

        // Every request against the broken job surfaces the store's text.
        let shared = Shared {
            addr: "127.0.0.1:1".parse().unwrap(),
            jobs: Mutex::new(jobs),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            chunks_left: Mutex::new(None),
            cfg: ServeConfig::new(&state),
        };
        let resubmit = dispatch(&shared, &submit_doc("broken-job", &finished));
        assert_eq!(error_kind(&resubmit), Some("schema-mismatch"));
        let msg = resubmit
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("outcome store schema mismatch"), "{msg}");
        let resume = protocol::request(Verb::Resume, [("key", Json::str("broken-job"))]);
        assert_eq!(
            error_kind(&dispatch(&shared, &resume)),
            Some("schema-mismatch")
        );
        let fetch = protocol::request(Verb::FetchOutcomes, [("key", Json::str("broken-job"))]);
        assert_eq!(
            error_kind(&dispatch(&shared, &fetch)),
            Some("schema-mismatch")
        );
    }

    /// Submits `campaign` under `key` (a new job, or a parked one the submit
    /// requeues) and runs it on the calling thread as the worker would.
    fn submit_and_run(shared: &Shared, key: &str, campaign: &Campaign) {
        let resp = dispatch(shared, &submit_doc(key, campaign));
        assert_eq!(job_state(&resp), Some("queued"), "{resp:?}");
        let mut jobs = shared.jobs.lock().unwrap();
        jobs.iter_mut().find(|j| j.key == key).unwrap().state = JobState::Running;
        drop(jobs);
        run_job(shared, key);
    }

    fn batch_bytes(key: &str, campaign: &Campaign) -> String {
        let mut batch = OutcomeStore::new();
        campaign.run_resumed(1, key, None, Some(&mut batch));
        batch.to_json_string()
    }

    #[test]
    fn a_job_appends_linear_bytes_and_compacts_to_the_batch_store() {
        let mut shared = shared_with("st-serve-linear-bytes-test", 10_000);
        let dir = shared.cfg.state_dir.clone();
        let campaign = tiny_campaign(0..1024);
        let batch = batch_bytes("big", &campaign);

        // Killed after 127 of the 128 chunks: the log is as long as it gets.
        shared.chunks_left = Mutex::new(Some(127));
        submit_and_run(&shared, "big", &campaign);
        let status = protocol::request(Verb::Status, [("key", Json::str("big"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("interrupted"));
        let log_bytes = std::fs::metadata(log_path(&dir, "big")).unwrap().len() as usize;
        // No commit line is longer than the empty segment's by more than the
        // count's extra digits: its hash, the FNV offset basis, has 20.
        let commit_line = log::segment(&[]).len() + 3;
        assert!(
            log_bytes <= batch.len() + 127 * commit_line,
            "{log_bytes} log bytes for a {} byte store",
            batch.len()
        );
        assert_eq!(recover_store(&dir, "big").unwrap().len(), 1016);
        assert!(!store_path(&dir, "big").exists(), "no store before the end");

        // Restarted: the last chunk runs, the log is compacted away.
        shared.shutdown.store(false, Ordering::SeqCst);
        shared.chunks_left = Mutex::new(None);
        *shared.jobs.lock().unwrap() = load_jobs(&dir);
        submit_and_run(&shared, "big", &campaign);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
        assert!(
            !log_path(&dir, "big").exists(),
            "compaction removes the log"
        );
        assert_eq!(
            std::fs::read_to_string(store_path(&dir, "big")).unwrap(),
            batch
        );
    }

    /// A job that panics used to kill the worker thread: the job read
    /// `running` forever, every later job stayed `queued`, and the daemon
    /// kept accepting work. The unwind now stops at the job — `broken`,
    /// kind `internal`, the panic's text — and the same daemon runs the
    /// next job to batch bytes. The poison is a zero chunk size, which
    /// `run_chunked_fresh` asserts on (the CLI refuses `--chunk 0`): every
    /// scenario that decodes runs without a panic.
    #[test]
    fn a_panicking_job_is_broken_and_the_worker_takes_the_next_one() {
        let mut shared = shared_with("st-serve-panicking-job-test", 100);
        let campaign = tiny_campaign(0..4);
        let chunk = shared.cfg.chunk;
        shared.cfg.chunk = 0;
        submit_and_run(&shared, "bad", &campaign);
        let status = protocol::request(Verb::Status, [("key", Json::str("bad"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("broken"));
        let fetch = protocol::request(Verb::FetchOutcomes, [("key", Json::str("bad"))]);
        let resp = dispatch(&shared, &fetch);
        assert_eq!(error_kind(&resp), Some("internal"), "{resp:?}");
        let message = resp.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap();
        assert!(
            message.contains("panicked: chunk size must be ≥ 1"),
            "{message}"
        );

        shared.cfg.chunk = chunk;
        submit_and_run(&shared, "good", &campaign);
        let status = protocol::request(Verb::Status, [("key", Json::str("good"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
        assert_eq!(
            std::fs::read_to_string(store_path(&shared.cfg.state_dir, "good")).unwrap(),
            batch_bytes("good", &campaign)
        );
    }

    #[test]
    fn a_crash_between_rename_and_log_removal_restarts_done() {
        let mut shared = shared_with("st-serve-crash-window-test", 100);
        let dir = shared.cfg.state_dir.clone();
        let campaign = tiny_campaign(0..6);
        let batch = batch_bytes("job", &campaign);

        // The state just after compaction's rename: the finished store and
        // a log it was compacted from.
        shared.cfg.chunk = 2;
        shared.chunks_left = Mutex::new(Some(2));
        submit_and_run(&shared, "job", &campaign);
        let log_file = log_path(&dir, "job");
        assert!(log_file.exists());
        std::fs::write(store_path(&dir, "job"), &batch).unwrap();

        let jobs = load_jobs(&dir);
        assert_eq!(jobs[0].state, JobState::Done);
        assert_eq!(jobs[0].completed, 6);
        assert!(!log_file.exists(), "the store wins; the log goes");
        assert_eq!(recover_store(&dir, "job").unwrap().to_json_string(), batch);
    }

    #[test]
    fn a_complete_log_is_one_requeue_from_done() {
        // Killed after the last append, before compaction could start.
        let shared = shared_with("st-serve-complete-log-test", 100);
        let dir = shared.cfg.state_dir.clone();
        let campaign = tiny_campaign(0..4);
        submit_and_run(&shared, "job", &campaign);
        let store = recover_store(&dir, "job").unwrap();
        let entries: Vec<&st_campaign::StoreEntry> = store.entries().iter().collect();
        std::fs::write(log_path(&dir, "job"), log::segment(&entries)).unwrap();
        std::fs::remove_file(store_path(&dir, "job")).unwrap();

        *shared.jobs.lock().unwrap() = load_jobs(&dir);
        let status = protocol::request(Verb::Status, [("key", Json::str("job"))]);
        let resp = dispatch(&shared, &status);
        assert_eq!(job_state(&resp), Some("interrupted"), "{resp:?}");
        submit_and_run(&shared, "job", &campaign);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
        assert_eq!(
            std::fs::read_to_string(store_path(&dir, "job")).unwrap(),
            batch_bytes("job", &campaign)
        );
        assert!(!log_path(&dir, "job").exists());
    }

    #[test]
    fn a_torn_tail_is_dropped_at_every_byte_offset() {
        let mut shared = shared_with("st-serve-torn-tail-test", 100);
        let dir = shared.cfg.state_dir.clone();
        shared.cfg.chunk = 2;
        shared.chunks_left = Mutex::new(Some(3));
        let campaign = tiny_campaign(0..8);
        let batch = batch_bytes("job", &campaign);
        submit_and_run(&shared, "job", &campaign);
        shared.shutdown.store(false, Ordering::SeqCst);
        shared.chunks_left = Mutex::new(None);

        // Three committed segments of two entries; cut inside the third.
        let log_file = log_path(&dir, "job");
        let whole = std::fs::read(&log_file).unwrap();
        let six = recover_store(&dir, "job").unwrap();
        assert_eq!(six.len(), 6);
        let last: Vec<&st_campaign::StoreEntry> = six.entries()[4..].iter().collect();
        let last_start = whole.len() - log::segment(&last).len();
        let mut four = six.clone();
        four.retain(|idx, _| idx < 4);
        for cut in last_start..whole.len() {
            std::fs::write(&log_file, &whole[..cut]).unwrap();
            let recovered = recover_store(&dir, "job").expect("a torn tail is not an error");
            assert_eq!(recovered.entries(), four.entries(), "cut at byte {cut}");
            // Every so often, also finish the job from the torn log.
            if (cut - last_start).is_multiple_of(211) {
                *shared.jobs.lock().unwrap() = load_jobs(&dir);
                submit_and_run(&shared, "job", &campaign);
                let store_file = store_path(&dir, "job");
                assert_eq!(std::fs::read_to_string(&store_file).unwrap(), batch);
                std::fs::remove_file(store_file).unwrap();
            }
        }
    }

    #[test]
    fn a_damaged_committed_segment_parks_the_job_broken() {
        let mut shared = shared_with("st-serve-damaged-log-test", 100);
        let dir = shared.cfg.state_dir.clone();
        shared.cfg.chunk = 2;
        shared.chunks_left = Mutex::new(Some(2));
        let campaign = tiny_campaign(0..6);
        submit_and_run(&shared, "job", &campaign);

        // Flip one byte inside the first committed segment.
        let log_file = log_path(&dir, "job");
        let mut bytes = std::fs::read(&log_file).unwrap();
        bytes[40] ^= 0x01;
        std::fs::write(&log_file, bytes).unwrap();

        let jobs = load_jobs(&dir);
        assert_eq!(jobs[0].state, JobState::Broken);
        assert_eq!(jobs[0].completed, 0, "never a partial reuse");
        *shared.jobs.lock().unwrap() = jobs;
        for verb in [Verb::Resume, Verb::FetchOutcomes] {
            let resp = dispatch(
                &shared,
                &protocol::request(verb, [("key", Json::str("job"))]),
            );
            assert_eq!(error_kind(&resp), Some("internal"), "{resp:?}");
        }
        let status = protocol::request(Verb::Status, [("key", Json::str("job"))]);
        let resp = dispatch(&shared, &status);
        assert_eq!(job_state(&resp), Some("broken"));
        let text = resp
            .get("job")
            .and_then(|j| j.get("error"))
            .and_then(Json::as_str);
        assert!(text.unwrap().contains("segment log is damaged"), "{text:?}");
    }

    /// One `fetch-outcomes` page of `key` from entry `from`, with pages
    /// bounded at `page_bytes`: the page's store and the reply's `next`.
    fn fetch_page(
        shared: &Shared,
        key: &str,
        from: usize,
        page_bytes: usize,
    ) -> (OutcomeStore, Option<usize>) {
        let request = protocol::request(
            Verb::FetchOutcomes,
            [("key", Json::str(key)), ("from", Json::U64(from as u64))],
        );
        let text = fetch_outcomes(shared, &request, page_bytes).expect("the page is served");
        let resp = Json::parse(&text).expect("a reply is canonical JSON");
        assert_eq!(resp.to_string(), text, "and written canonically");
        let store = resp.get("store").expect("store field").to_string();
        let next = match resp.get("next").expect("a paged reply names the next page") {
            Json::Null => None,
            next => Some(next.as_u64().expect("an entry index") as usize),
        };
        let page = OutcomeStore::from_json_str(&store).expect("a page is a valid store");
        assert!(
            store.len() <= page_bytes || page.len() == 1,
            "{}",
            store.len()
        );
        (page, next)
    }

    /// Every page of `key` from entry `from` on, joined.
    fn fetch_rest(shared: &Shared, key: &str, mut from: usize, page_bytes: usize) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let (page, next) = fetch_page(shared, key, from, page_bytes);
            lines.extend(page.entries().iter().map(entry_line));
            match next {
                Some(next) => {
                    assert_eq!(next, from + page.len(), "pages line up");
                    from = next;
                }
                None => return lines,
            }
        }
    }

    fn entry_line(entry: &st_campaign::StoreEntry) -> String {
        let mut line = String::new();
        entry.write_json_line(&mut line);
        line
    }

    #[test]
    fn pages_of_a_running_job_are_committed_prefixes_and_survive_compaction() {
        let mut shared = shared_with("st-serve-paging-test", 100);
        let dir = shared.cfg.state_dir.clone();
        let campaign = tiny_campaign(0..12);
        let batch = batch_bytes("job", &campaign);
        let batch_lines: Vec<String> = OutcomeStore::from_json_str(&batch)
            .unwrap()
            .entries()
            .iter()
            .map(entry_line)
            .collect();
        // Three entries to a page.
        let page_bytes = 3 * batch_lines[0].len() + 100;

        // Stopped after 4 chunks of 2: eight entries committed to the log.
        shared.cfg.chunk = 2;
        shared.chunks_left = Mutex::new(Some(4));
        submit_and_run(&shared, "job", &campaign);
        assert!(!store_path(&dir, "job").exists());
        // The log holds them in the store's order: that is what makes an
        // entry index mean the same thing before and after compaction.
        let log = std::fs::read_to_string(log_path(&dir, "job")).unwrap();
        let logged: Vec<&str> = log
            .lines()
            .filter(|l| l.starts_with("{\"campaign\""))
            .collect();
        assert_eq!(logged, batch_lines[..8]);

        // The pages of the unfinished job: its committed prefix, no more.
        assert_eq!(fetch_rest(&shared, "job", 0, page_bytes), batch_lines[..8]);
        let (first, next) = fetch_page(&shared, "job", 0, page_bytes);
        assert_eq!((first.len(), next), (3, Some(3)));
        // A page from the very end is empty and last; past it, refused.
        let (end, next) = fetch_page(&shared, "job", 8, page_bytes);
        assert_eq!((end.len(), next), (0, None));
        let past = protocol::request(
            Verb::FetchOutcomes,
            [("key", Json::str("job")), ("from", Json::U64(9))],
        );
        assert_eq!(error_kind(&dispatch(&shared, &past)), Some("malformed"));
        let not_an_index = protocol::request(
            Verb::FetchOutcomes,
            [("key", Json::str("job")), ("from", Json::str("0"))],
        );
        assert_eq!(
            error_kind(&dispatch(&shared, &not_an_index)),
            Some("malformed")
        );

        // The job finishes and compacts between the first page and the
        // second: the rest follows on without a gap, a repeat or a swap.
        shared.shutdown.store(false, Ordering::SeqCst);
        shared.chunks_left = Mutex::new(None);
        *shared.jobs.lock().unwrap() = load_jobs(&dir);
        submit_and_run(&shared, "job", &campaign);
        assert!(store_path(&dir, "job").exists() && !log_path(&dir, "job").exists());
        let mut lines: Vec<String> = first.entries().iter().map(entry_line).collect();
        lines.extend(fetch_rest(&shared, "job", 3, page_bytes));
        assert_eq!(lines, batch_lines);

        // Without `from` the reply is what it always was: the whole store as
        // one document, no `next`.
        let whole = protocol::request(Verb::FetchOutcomes, [("key", Json::str("job"))]);
        let resp = dispatch(&shared, &whole);
        assert!(resp.get("next").is_none());
        let expected = ok_response([
            ("job", resp.get("job").unwrap().clone()),
            ("store", Json::parse(&batch).unwrap()),
        ]);
        assert_eq!(respond(&shared, &whole), expected.to_string());
    }

    #[cfg(unix)]
    #[test]
    fn an_unwritable_log_stops_the_job_broken_with_the_io_error() {
        let shared = shared_with("st-serve-unwritable-log-test", 100);
        let dir = shared.cfg.state_dir.clone();
        // A dangling link where the log should be: nothing to read, and
        // nowhere to create the file.
        std::os::unix::fs::symlink(dir.join("no-such-dir/log"), log_path(&dir, "job")).unwrap();
        submit_and_run(&shared, "job", &tiny_campaign(0..4));

        let status = protocol::request(Verb::Status, [("key", Json::str("job"))]);
        let resp = dispatch(&shared, &status);
        assert_eq!(job_state(&resp), Some("broken"), "{resp:?}");
        for verb in [Verb::Resume, Verb::FetchOutcomes] {
            let resp = dispatch(
                &shared,
                &protocol::request(verb, [("key", Json::str("job"))]),
            );
            assert_eq!(error_kind(&resp), Some("internal"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(message.contains("cannot open the segment log"), "{message}");
        }
        assert!(
            !store_path(&dir, "job").exists(),
            "nothing pretends to be done"
        );
    }

    #[test]
    fn finished_jobs_keep_no_campaign_and_still_guard_their_identity() {
        let shared = shared_with("st-serve-slim-table-test", 1_000);
        for j in 0..5u64 {
            let campaign = tiny_campaign(j * 10..j * 10 + 8);
            submit_and_run(&shared, &format!("job{j}"), &campaign);
        }
        for job in shared.jobs.lock().unwrap().iter() {
            // Exhaustive on purpose: the whole entry is a key, a state and
            // counters, and a field added later has to be O(1) as well.
            let Job {
                key: _,
                state,
                cancel: _,
                completed,
                total,
                broken,
            } = job;
            assert_eq!(*state, JobState::Done);
            assert_eq!((*completed, *total), (8, 8));
            assert!(broken.is_none());
        }
        // Identity is the persisted spec's bytes.
        let same = dispatch(&shared, &submit_doc("job3", &tiny_campaign(30..38)));
        assert_eq!(job_state(&same), Some("done"), "{same:?}");
        let other = dispatch(&shared, &submit_doc("job3", &tiny_campaign(30..37)));
        assert_eq!(error_kind(&other), Some("spec-mismatch"));
    }

    /// An adversarial spec whose task is the trivial `t < k` one used to be
    /// accepted and end the job `broken` with the worker's panic text; the
    /// submit is refused like any other spec that does not decode.
    #[test]
    fn submit_refuses_an_adversarial_spec_the_worker_would_panic_on() {
        let shared = shared_with("st-serve-adversarial-spec-test", 10);
        let adversarial = |t, k| {
            let mut campaign = tiny_campaign(0..1);
            campaign.push(Scenario::new(
                "adv",
                Universe::new(4).unwrap(),
                GeneratorSpec::round_robin(),
                Workload::AdversarialAgreement {
                    t,
                    k,
                    inputs: vec![1, 2, 3, 4],
                    policy: policy_from_spec(TimeoutPolicySpec::Increment),
                    precrashed: st_core::ProcSet::EMPTY,
                    witness: None,
                },
                1_000,
                0,
            ));
            campaign
        };
        let resp = dispatch(&shared, &submit_doc("bad", &adversarial(1, 2)));
        assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
        let message = resp.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap();
        assert!(
            message.contains("entries[1].scenario: field \"k\""),
            "{message}"
        );
        assert!(!spec_path(&shared.cfg.state_dir, "bad").exists());
        assert!(shared.jobs.lock().unwrap().is_empty());

        // The same entry with a task the adversary can block runs to `done`.
        submit_and_run(&shared, "good", &adversarial(2, 2));
        let status = protocol::request(Verb::Status, [("key", Json::str("good"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
    }

    /// The same for an agreement spec with other than one input per
    /// process, which used to end the job `broken` on `build_abi`'s
    /// assert, and for an adversarial witness outside the universe, which
    /// used to run and certify a pair of another system.
    #[test]
    fn submit_refuses_foreign_inputs_and_witnesses() {
        let shared = shared_with("st-serve-foreign-spec-test", 10);
        let foreign = |label: &str, workload| {
            Scenario::new(
                label,
                Universe::new(4).unwrap(),
                GeneratorSpec::round_robin(),
                workload,
                1_000,
                0,
            )
        };
        let with = |workload: Workload| {
            let mut campaign = tiny_campaign(0..1);
            campaign.push(foreign("foreign", workload));
            campaign
        };
        let policy = policy_from_spec(TimeoutPolicySpec::Increment);
        let agreement = |inputs: Vec<u64>| Workload::Agreement {
            t: 1,
            k: 1,
            inputs,
            policy,
            certify: None,
        };
        let adversarial = |witness| Workload::AdversarialAgreement {
            t: 2,
            k: 2,
            inputs: vec![1, 2, 3, 4],
            policy,
            precrashed: st_core::ProcSet::EMPTY,
            witness: Some(witness),
        };
        let set = |ix: &[usize]| st_core::ProcSet::from_indices(ix.iter().copied());
        for (key, campaign, path) in [
            ("inputs", with(agreement(vec![1, 2, 3])), "field \"inputs\""),
            (
                "witness",
                with(adversarial((set(&[0]), set(&[0, 7])))),
                "field \"witness\"",
            ),
        ] {
            let resp = dispatch(&shared, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&shared.cfg.state_dir, key).exists());
            assert!(shared.jobs.lock().unwrap().is_empty());
        }

        // The same entries with four inputs and a witness inside Π_4 run
        // to `done`.
        let mut good = with(agreement(vec![1, 2, 3, 4]));
        let witness = (set(&[0, 1, 2]), set(&[0, 1, 2, 3]));
        good.push(foreign("witnessed", adversarial(witness)));
        submit_and_run(&shared, "good", &good);
        let status = protocol::request(Verb::Status, [("key", Json::str("good"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
    }

    /// The same for a certification the timeliness analyzer would assert
    /// on (a zero bound cap) and for a single-word workload past n = 64.
    #[test]
    fn submit_refuses_a_certification_the_worker_would_panic_on() {
        let shared = shared_with("st-serve-certification-spec-test", 10);
        let certified = |n: usize, cap| {
            let mut campaign = tiny_campaign(0..1);
            campaign.push(Scenario::new(
                "certified",
                Universe::new(n).unwrap(),
                GeneratorSpec::round_robin(),
                Workload::Agreement {
                    t: 1,
                    k: 1,
                    inputs: (0..n as u64).collect(),
                    policy: policy_from_spec(TimeoutPolicySpec::Increment),
                    certify: Some(CertifyTimely {
                        i: 1,
                        j: 2,
                        cap,
                        prefix_len: 100,
                    }),
                },
                1_000,
                0,
            ));
            campaign
        };
        for (key, campaign, path) in [
            (
                "zero-cap",
                certified(4, 0),
                "field \"certify\": field \"cap\"",
            ),
            ("wide", certified(65, 8), "field \"n\""),
        ] {
            let resp = dispatch(&shared, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&shared.cfg.state_dir, key).exists());
            assert!(shared.jobs.lock().unwrap().is_empty());
        }

        // The same entry with a positive cap at n = 4 runs to `done`.
        submit_and_run(&shared, "good", &certified(4, 8));
        let status = protocol::request(Verb::Status, [("key", Json::str("good"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
    }

    /// The same for parameters a protocol's constructor would assert on: an
    /// agreement task `AgreementTask::new` refuses, a detector outside
    /// `1 ≤ k ≤ t ≤ n − 1`, and a BG reduction simulating nobody, more
    /// than 64 processes, or a `k = 0` algorithm.
    #[test]
    fn submit_refuses_protocol_parameters_the_worker_would_panic_on() {
        let shared = shared_with("st-serve-protocol-spec-test", 10);
        let policy = policy_from_spec(TimeoutPolicySpec::Increment);
        let with = |workload: Workload| {
            let mut campaign = tiny_campaign(0..1);
            campaign.push(Scenario::new(
                "protocol",
                Universe::new(4).unwrap(),
                GeneratorSpec::round_robin(),
                workload,
                1_000,
                0,
            ));
            campaign
        };
        let agreement = |t| Workload::Agreement {
            t,
            k: 1,
            inputs: vec![1, 2, 3, 4],
            policy,
            certify: None,
        };
        let fd = |k, detector| Workload::FdConvergence {
            k,
            t: 2,
            policy,
            abi: FdAbi::MachineSlot,
            detector,
            certify_membership: false,
        };
        let bg = |n_sim, k| Workload::BgReduction {
            n_sim,
            k,
            max_reads: 8,
        };
        for (key, campaign, path) in [
            ("task", with(agreement(0)), "field \"t\""),
            ("set-fd", with(fd(3, FdDetector::SetBased)), "field \"k\""),
            (
                "baseline",
                with(fd(0, FdDetector::ProcessBased)),
                "field \"k\"",
            ),
            ("nobody", with(bg(0, 1)), "field \"n_sim\""),
            ("wide-bg", with(bg(65, 1)), "field \"n_sim\""),
            ("zero-k", with(bg(3, 0)), "field \"k\""),
        ] {
            let resp = dispatch(&shared, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&shared.cfg.state_dir, key).exists());
            assert!(shared.jobs.lock().unwrap().is_empty());
        }

        // The valid twins run to `done`.
        let mut good = with(agreement(1));
        for workload in [
            fd(2, FdDetector::SetBased),
            fd(1, FdDetector::ProcessBased),
            bg(3, 1),
        ] {
            good.push(Scenario::new(
                "twin",
                Universe::new(4).unwrap(),
                GeneratorSpec::round_robin(),
                workload,
                1_000,
                0,
            ));
        }
        submit_and_run(&shared, "good", &good);
        let status = protocol::request(Verb::Status, [("key", Json::str("good"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
    }

    /// The same for a generator its constructor would assert on: a weight
    /// vector of the wrong length, nested under a decorator.
    #[test]
    fn submit_refuses_a_generator_spec_the_worker_would_panic_on() {
        let shared = shared_with("st-serve-generator-spec-test", 10);
        let weighted = |weights: &[u32]| {
            let mut campaign = tiny_campaign(0..2);
            let mut scenario = campaign.scenarios()[1].clone();
            scenario.label = "weighted".to_string();
            scenario.generator = GeneratorSpec::set_timely(
                st_core::ProcSet::from_indices([0]),
                st_core::ProcSet::from_indices([0, 1]),
                3,
                GeneratorSpec::SeededRandom {
                    over: None,
                    seed_offset: 0,
                    weights: Some(weights.to_vec()),
                },
            );
            campaign.push(scenario);
            campaign
        };
        let resp = dispatch(&shared, &submit_doc("bad", &weighted(&[2, 1])));
        assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
        let message = resp.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap();
        assert!(
            message.contains(
                "entries[2].scenario: field \"generator\": field \"filler\": field \"weights\""
            ),
            "{message}"
        );
        assert!(!spec_path(&shared.cfg.state_dir, "bad").exists());
        assert!(shared.jobs.lock().unwrap().is_empty());

        // The same entry with one weight per process runs to `done`.
        submit_and_run(&shared, "good", &weighted(&[2, 1, 1]));
        let status = protocol::request(Verb::Status, [("key", Json::str("good"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
    }

    /// What used to decode and then panic the worker — a generator its
    /// constructor asserts on (Figure 1 with `p1 = p2`), a detector range
    /// the lean fleet asserts on (`t = 0`) — is a typed `malformed` reply
    /// naming the field; the valid twins run to `done`.
    #[test]
    fn submit_refuses_specs_that_decoded_and_then_panicked_a_worker() {
        let shared = shared_with("st-serve-validity-test", 10);
        let pid = st_core::ProcessId::new;
        let with = |generator: GeneratorSpec, t: usize| {
            let mut campaign = tiny_campaign(0..1);
            campaign.push(Scenario::new(
                "validity",
                Universe::new(4).unwrap(),
                generator,
                Workload::LeanConvergence {
                    t,
                    policy: policy_from_spec(TimeoutPolicySpec::Increment),
                    drive: FleetReplayDrive::Plain,
                },
                1_000,
                0,
            ));
            campaign
        };
        let figure1 = |p2| GeneratorSpec::Figure1 {
            p1: pid(0),
            p2: pid(p2),
            q: pid(2),
        };
        for (key, campaign, path) in [
            (
                "figure1",
                with(figure1(0), 1),
                "field \"generator\": field \"p2\": processes must be distinct",
            ),
            ("lean", with(figure1(1), 0), "field \"t\": "),
        ] {
            let resp = dispatch(&shared, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&shared.cfg.state_dir, key).exists());
            assert!(shared.jobs.lock().unwrap().is_empty());
        }

        submit_and_run(&shared, "good", &with(figure1(1), 1));
        let status = protocol::request(Verb::Status, [("key", Json::str("good"))]);
        assert_eq!(job_state(&dispatch(&shared, &status)), Some("done"));
    }

    #[test]
    fn dispatch_rejects_missing_proto_and_unknown_verbs() {
        let cfg = ServeConfig::new(std::env::temp_dir().join("st-serve-dispatch-test"));
        let shared = Shared {
            addr: "127.0.0.1:1".parse().unwrap(),
            jobs: Mutex::new(Vec::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            chunks_left: Mutex::new(None),
            cfg,
        };
        let err = |doc: &Json| {
            let resp = dispatch(&shared, doc);
            resp.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(
            err(&Json::obj([("verb", Json::str("hello"))])),
            Some("malformed".into())
        );
        assert_eq!(
            err(&Json::obj([
                ("proto", Json::str("st-serve/v0")),
                ("verb", Json::str("hello")),
            ])),
            Some("schema-mismatch".into())
        );
        let mut bad_verb = protocol::request(Verb::Hello, []);
        if let Json::Obj(members) = &mut bad_verb {
            members[1].1 = Json::str("fetch");
        }
        assert_eq!(err(&bad_verb), Some("unknown-verb".into()));
        let hello = dispatch(&shared, &protocol::request(Verb::Hello, []));
        assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            hello.get("store_schema").and_then(Json::as_str),
            Some(st_campaign::store::SCHEMA)
        );
    }
}
