//! The daemon's shell: a TCP accept loop and one campaign worker around
//! the job table's core (`daemon.rs`, which owns every state transition
//! and the state directory's layout).
//!
//! The shell holds the core behind one lock, taken only in `Shell::with`;
//! after each closure it sends the worker the job the core starts next,
//! if any. The accept loop answers requests serially. The worker runs each
//! job through
//! [`Campaign::run_chunked_fresh`](st_campaign::Campaign::run_chunked_fresh),
//! the engine `stlab` batch mode runs, appending each chunk to the job's
//! segment log and taking the lock once per checkpoint. A `fetch-outcomes`
//! page is read outside the lock, so a fetch never waits for the worker or
//! makes it wait. A panic inside the core poisons the lock, and the shell
//! then stops rather than answer from a half-updated table.

use std::fmt::Display;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use st_campaign::{ChunkControl, OutcomeStore, StoreError};
use st_core::frame::{read_frame_text, write_frame_text, FrameError, MAX_FRAME_BYTES};
use st_core::json;

use crate::daemon::{
    broken_by, compact, load_spec, log_path, recover, spec_path, Daemon, Recovered,
};
use crate::log;
use crate::protocol::{
    error_reply, malformed, read_request, Envelope, ErrorKind, Refusal, Request, PAGE_BYTES,
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

/// A bound daemon; [`run`](Server::run) blocks until the crash hook fires
/// (or forever without one — kill the process to stop it, that's the
/// supported and tested shutdown path).
pub struct Server {
    listener: TcpListener,
    shell: Shell,
    runs: Receiver<String>,
}

impl Server {
    /// Creates the state directory, loads persisted jobs, and binds
    /// `addr` (use port 0 to let the OS pick; see
    /// [`local_addr`](Server::local_addr)).
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(addr)?;
        let (sender, runs) = mpsc::channel();
        let shell = Shell {
            addr: listener.local_addr()?,
            core: Mutex::new(Daemon::open(&cfg)),
            cfg,
            runs: sender,
        };
        Ok(Server {
            listener,
            shell,
            runs,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shell.addr
    }

    /// Serves requests and executes jobs until shut down by the crash
    /// hook. One frame per connection; requests are handled serially, the
    /// campaign worker runs concurrently.
    pub fn run(self) {
        let Server {
            listener,
            shell,
            runs,
        } = self;
        std::thread::scope(|scope| {
            scope.spawn(|| worker(&shell, runs));
            for stream in listener.incoming() {
                if shell.with(|daemon| daemon.exiting()) {
                    break;
                }
                match stream {
                    Ok(mut sock) => handle_conn(&shell, &mut sock),
                    Err(e) => eprintln!("st-serve: accept error: {e}"),
                }
            }
        });
    }
}

/// What the accept loop and the worker share.
struct Shell {
    cfg: ServeConfig,
    addr: SocketAddr,
    core: Mutex<Daemon>,
    /// The keys of the jobs the core marked running, to the worker.
    runs: Sender<String>,
}

impl Shell {
    /// Runs `f` on the core under the shell's one lock, then sends the
    /// worker the job the core starts next, if any.
    ///
    /// A panic inside the core poisons the lock, and every later call
    /// panics here: the shell stops rather than answer from, or run jobs
    /// off, a half-updated table.
    fn with<T>(&self, f: impl FnOnce(&mut Daemon) -> T) -> T {
        let mut daemon = self.core.lock().expect("the daemon's core panicked");
        let out = f(&mut daemon);
        if let Some(key) = daemon.next_run() {
            // The worker holds the receiver until the crash hook ends it.
            let _ = self.runs.send(key);
        }
        out
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

// ---------------------------------------------------------------------------
// The campaign worker.
// ---------------------------------------------------------------------------

/// Runs each job the core starts, one at a time, until the crash hook
/// fires; then pokes the accept loop so the whole daemon exits (the hook
/// simulates a kill, and a connection is how the blocking `incoming()`
/// notices).
fn worker(shell: &Shell, runs: Receiver<String>) {
    for key in runs {
        let checkpoint = |completed| shell.with(|daemon| daemon.checkpoint(&key, completed));
        let ended = run_job(&shell.cfg, &key, checkpoint);
        if shell.with(|daemon| {
            daemon.ended(&key, ended);
            daemon.exiting()
        }) {
            let _ = TcpStream::connect_timeout(&shell.addr, Duration::from_millis(200));
            return;
        }
    }
}

/// Executes job `key`, calling `checkpoint` after every chunk, and says
/// how the run ended: finished (`Ok(true)`), stopped at a checkpoint
/// (`Ok(false)`), or broken.
///
/// This is the worker's one unwind boundary: a job that panics (a spec that
/// decodes and then asserts when built, a bug in a workload) ends broken
/// with the panic's message and the worker goes on to the next job. What
/// the unwind leaves behind is what a kill would: whole committed segments
/// in the log, and no lock held (the shell takes it only inside each
/// `checkpoint` call).
fn run_job(
    cfg: &ServeConfig,
    key: &str,
    checkpoint: impl FnMut(usize) -> ChunkControl,
) -> Result<bool, Refusal> {
    catch_unwind(AssertUnwindSafe(|| execute(cfg, key, checkpoint))).unwrap_or_else(|panic| {
        let what = match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
            (Some(text), _) => text,
            (None, Some(text)) => text.as_str(),
            (None, None) => "(no message)",
        };
        Err((ErrorKind::Internal, format!("job {key:?} panicked: {what}")))
    })
}

/// Runs job `key` from its persisted spec and outcomes until it finishes
/// (`Ok(true)`, store compacted), is stopped at a checkpoint (`Ok(false)`),
/// or cannot persist its progress (`Err`: the job stops there rather than
/// run on with nothing on disk).
fn execute(
    cfg: &ServeConfig,
    key: &str,
    mut checkpoint: impl FnMut(usize) -> ChunkControl,
) -> Result<bool, Refusal> {
    let dir = &cfg.state_dir;
    let internal = |what: &str, e: &dyn Display| {
        let message = format!("cannot {what} for job {key:?}: {e}");
        (ErrorKind::Internal, message)
    };
    let (_, campaign) =
        load_spec(&spec_path(dir, key)).map_err(|(_, e)| internal("reload the spec", &e))?;
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
        cfg.threads,
        key,
        Some(&resume),
        &mut record,
        cfg.chunk,
        |report| {
            if let Err(e) = log.write_all(log::segment(report.fresh).as_bytes()) {
                append_error = Some(internal("append to the segment log", &e));
                return ChunkControl::Stop;
            }
            checkpoint(report.completed)
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

// ---------------------------------------------------------------------------
// Request handling.
// ---------------------------------------------------------------------------

fn handle_conn(shell: &Shell, sock: &mut TcpStream) {
    let _ = sock.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = sock.set_write_timeout(Some(Duration::from_secs(10)));
    let reply = match read_frame_text(sock) {
        Ok(text) => respond(&shell.cfg.state_dir, &text, SERVED, |request| {
            shell.with(|daemon| daemon.answer(request))
        }),
        Err(FrameError::Utf8(e)) => {
            error_reply(ErrorKind::Malformed, &format!("request is not UTF-8: {e}"))
        }
        // Poke connections, dropped peers and unframeable bytes.
        Err(_) => return,
    };
    let _ = write_frame_text(sock, &reply);
}

/// How large a `fetch-outcomes` reply may grow: a page's entry text, and
/// the whole reply. A parameter of [`respond`] so tests can page, and
/// overflow, a small store.
#[derive(Clone, Copy)]
struct Bounds {
    page: usize,
    frame: usize,
}

/// The bounds every served reply is held to.
const SERVED: Bounds = Bounds {
    page: PAGE_BYTES,
    frame: MAX_FRAME_BYTES,
};

/// The reply frame's text for the request frame's text `text`. `core`
/// answers a request from the job table (the shell passes its lock, a test
/// the core itself); a `fetch-outcomes` page is then read from `dir`.
fn respond(
    dir: &Path,
    text: &str,
    bounds: Bounds,
    core: impl FnOnce(&Request) -> Result<String, Refusal>,
) -> String {
    let reply = read_request(text).and_then(|request| {
        let answer = core(&request)?;
        match request {
            Request::FetchOutcomes { key, from } => {
                fetch_outcomes(dir, &key, &answer, from, bounds)
            }
            _ => Ok(answer),
        }
    });
    reply.unwrap_or_else(|(kind, message)| error_reply(kind, &message))
}

/// `fetch-outcomes` for a job whose `job` object is `job`: its recovered
/// outcomes as a store document — all of them for a request without
/// `from` (the reply every client before paging expects, refused with a
/// typed error when it cannot fit a frame), else the page starting at
/// entry `from` and the index the next page starts at. Entries are indexed
/// in store order, which a job only ever appends to, so a `from` stays
/// good across the job's chunks and its compaction. The reply's text is
/// written around the page's entry lines: the store is decoded
/// ([`recover`]), never held as a document.
fn fetch_outcomes(
    dir: &Path,
    key: &str,
    job: &str,
    from: Option<usize>,
    bounds: Bounds,
) -> Result<String, Refusal> {
    let store = match recover(dir, key) {
        Ok(recovered) => recovered.store,
        Err(e) => {
            let (kind, why) = broken_by(&e);
            let message = format!("cannot read outcome store for {key:?}: {why}");
            return Err((kind, message));
        }
    };
    let total = store.len();
    if from.is_some_and(|from| from > total) {
        let past = format!("\"from\" is past the {total} entries job {key:?} has committed");
        return Err(malformed(past));
    }
    // A request without `from` gets all of it or a refusal, never a part.
    let bound = from.map_or(bounds.frame, |_| bounds.page);
    let mut next = total;
    let mut reply = Envelope::ok()
        .member("job", |out| out.push_str(job))
        .member("store", |out| {
            next = store.write_page(from.unwrap_or(0), bound, out)
        });
    if from.is_some() {
        reply = reply.member("next", |out| {
            if next < total {
                json::write_u64(next as u64, out)
            } else {
                out.push_str("null")
            }
        });
    }
    let text = reply.finish();
    if text.len() > bounds.frame || (from.is_none() && next < total) {
        return Err((
            ErrorKind::TooLarge,
            format!(
                "the reply for job {key:?} ({total} entries) does not fit one {}-byte frame — \
                 fetch it in pages: send \"from\": 0, then each reply's \"next\"",
                bounds.frame
            ),
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{store_path, Job};
    use crate::protocol::{self, JobState, Verb, JOB_SCHEMA, PROTO};
    use crate::test_support::{self, soup, truncations};
    use proptest::prelude::*;
    use st_campaign::{
        policy_from_spec, Campaign, CertifyTimely, FdAbi, FdDetector, FleetReplayDrive,
        GeneratorSpec, Scenario, TimeoutPolicySpec, Workload,
    };
    use st_core::Json;
    use st_core::Universe;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// The daemon's core and the configuration its shell runs jobs with,
    /// driven on this thread: a request is answered, and a job started by
    /// [`Daemon::next_run`] and run, only when a test says so.
    struct Core {
        cfg: ServeConfig,
        daemon: Daemon,
    }

    impl Core {
        /// A restart: the core reopened from the state directory, with the
        /// crash hook `exit_after_chunks`.
        fn restart(&mut self, exit_after_chunks: Option<u64>) {
            self.cfg.exit_after_chunks = exit_after_chunks;
            self.daemon = Daemon::open(&self.cfg);
        }
    }

    /// A fresh core over a clean state directory.
    fn core_with(dir_name: &str, max_pending: usize) -> Core {
        let state = std::env::temp_dir().join(dir_name);
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir_all(&state).unwrap();
        let mut cfg = ServeConfig::new(&state);
        cfg.max_pending = max_pending;
        Core {
            daemon: Daemon::open(&cfg),
            cfg,
        }
    }

    /// The reply text to the request text `text`, pages held to `bounds`.
    fn reply(core: &mut Core, text: &str, bounds: Bounds) -> String {
        let Core { cfg, daemon } = core;
        respond(&cfg.state_dir, text, bounds, |request| {
            daemon.answer(request)
        })
    }

    /// The reply to the request text `request`, parsed.
    fn dispatch(core: &mut Core, request: &str) -> Json {
        Json::parse(&reply(core, request, SERVED)).expect("a reply is canonical JSON")
    }

    /// The text of a `verb` request naming `key`.
    fn request(verb: Verb, key: &str) -> String {
        Envelope::request(verb).string("key", key).finish()
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

    fn submit_doc(key: &str, campaign: &Campaign) -> String {
        Envelope::request(Verb::Submit)
            .string("key", key)
            .member("entries", |out| protocol::campaign_entries(campaign, out))
            .finish()
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
        let mut core = core_with("st-serve-lifecycle-test", 10);
        let campaign = tiny_campaign(0..4);

        // Fresh submit: queued, spec persisted before the ack.
        let resp = dispatch(&mut core, &submit_doc("job", &campaign));
        assert_eq!(job_state(&resp), Some("queued"), "{resp:?}");
        assert!(spec_path(&core.cfg.state_dir, "job").exists());

        // Identical re-submit is idempotent.
        let resp = dispatch(&mut core, &submit_doc("job", &campaign));
        assert_eq!(job_state(&resp), Some("queued"));
        assert_eq!(core.daemon.jobs().len(), 1);

        // Same key, different campaign: the staleness guard refuses.
        let resp = dispatch(&mut core, &submit_doc("job", &tiny_campaign(0..3)));
        assert_eq!(error_kind(&resp), Some("spec-mismatch"));

        // Backpressure: 4 in flight + 7 more > 10.
        let resp = dispatch(&mut core, &submit_doc("big", &tiny_campaign(10..17)));
        assert_eq!(error_kind(&resp), Some("busy"));

        // Cancel a queued job, resume it back into the queue.
        let cancel = request(Verb::Cancel, "job");
        assert_eq!(job_state(&dispatch(&mut core, &cancel)), Some("cancelled"));
        let resume = request(Verb::Resume, "job");
        assert_eq!(job_state(&dispatch(&mut core, &resume)), Some("queued"));

        // Fetching before anything ran returns an empty store.
        let fetch = request(Verb::FetchOutcomes, "job");
        let resp = dispatch(&mut core, &fetch);
        let store = resp.get("store").expect("store field");
        assert_eq!(
            store
                .get("entries")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );

        // Unknown keys are typed refusals.
        let status = request(Verb::Status, "nope");
        assert_eq!(
            error_kind(&dispatch(&mut core, &status)),
            Some("unknown-job")
        );
        let bad_key = request(Verb::Status, "a/b");
        assert_eq!(
            error_kind(&dispatch(&mut core, &bad_key)),
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

        // Specs the scan cannot read, each with the kind `resume` and then
        // `submit` are refused with and the text its status carries:
        // another job schema, a spec naming another key, text that does
        // not decode, and bytes that are not UTF-8.
        let other_schema = protocol::job_spec("other-schema-job", &finished);
        let unreadable = [
            (
                "other-schema-job",
                other_schema
                    .replace(JOB_SCHEMA, "st-serve/job-v0")
                    .into_bytes(),
                ["schema-mismatch", "spec-mismatch"],
                "job spec schema mismatch",
            ),
            (
                "renamed-job",
                protocol::job_spec("other-key", &finished).into_bytes(),
                ["internal", "spec-mismatch"],
                "job spec names key \"other-key\"",
            ),
            (
                "garbled-job",
                other_schema.as_bytes()[..other_schema.len() / 2].to_vec(),
                ["internal", "spec-mismatch"],
                "JSON error at byte",
            ),
            (
                "binary-job",
                vec![b'{', 0xff, 0xfe, b'}'],
                ["internal", "internal"],
                "valid UTF-8",
            ),
        ];
        for (key, bytes, ..) in &unreadable {
            std::fs::write(spec_path(&state, key), bytes).unwrap();
        }

        let cfg = ServeConfig::new(&state);
        let daemon = Daemon::open(&cfg);
        let jobs = daemon.jobs();
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
        let mut core = Core { cfg, daemon };
        let resubmit = dispatch(&mut core, &submit_doc("broken-job", &finished));
        assert_eq!(error_kind(&resubmit), Some("schema-mismatch"));
        let msg = resubmit
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("outcome store schema mismatch"), "{msg}");
        let resume = request(Verb::Resume, "broken-job");
        assert_eq!(
            error_kind(&dispatch(&mut core, &resume)),
            Some("schema-mismatch")
        );
        let fetch = request(Verb::FetchOutcomes, "broken-job");
        assert_eq!(
            error_kind(&dispatch(&mut core, &fetch)),
            Some("schema-mismatch")
        );

        // A spec the scan cannot read parks its job `broken`, and no
        // `submit` writes over it (one used to, and the new campaign was
        // appended to the old job's log).
        for (key, bytes, [resumed, submitted], why) in &unreadable {
            let job = core.daemon.jobs().iter().find(|j| j.key == *key);
            let job = job.expect(key);
            assert_eq!(
                (job.state, job.completed, job.total),
                (JobState::Broken, 0, 0)
            );
            let status = dispatch(&mut core, &request(Verb::Status, key));
            assert_eq!(job_state(&status), Some("broken"), "{status:?}");
            let text = status.get("job").and_then(|j| j.get("error"));
            let text = text.and_then(Json::as_str).unwrap();
            assert!(text.contains(why), "{key}: {text}");
            for verb in [Verb::Resume, Verb::FetchOutcomes] {
                let resp = dispatch(&mut core, &request(verb, key));
                assert_eq!(error_kind(&resp), Some(*resumed), "{key}: {resp:?}");
            }
            let resubmit = dispatch(&mut core, &submit_doc(key, &finished));
            assert_eq!(
                error_kind(&resubmit),
                Some(*submitted),
                "{key}: {resubmit:?}"
            );
            assert_eq!(std::fs::read(spec_path(&state, key)).unwrap(), *bytes);
        }
    }

    /// A cancel used to stick once requested: a `resume` or an identical
    /// re-`submit` of the running job answered `running`, and the job then
    /// ended `cancelled` at its next checkpoint. Either now withdraws it.
    #[test]
    fn a_resume_or_an_identical_submit_withdraws_a_pending_cancel() {
        let campaign = tiny_campaign(0..4);
        let batch = batch_bytes("job", &campaign);
        for withdraw in [request(Verb::Resume, "job"), submit_doc("job", &campaign)] {
            let mut core = core_with("st-serve-withdrawn-cancel-test", 100);
            core.cfg.chunk = 1;
            dispatch(&mut core, &submit_doc("job", &campaign));
            assert_eq!(core.daemon.next_run().as_deref(), Some("job"));
            let cfg = core.cfg.clone();
            let mut checkpoints = 0;
            let ended = run_job(&cfg, "job", |completed| {
                checkpoints += 1;
                if checkpoints == 1 {
                    let cancel = dispatch(&mut core, &request(Verb::Cancel, "job"));
                    assert_eq!(cancel.get("cancel_requested"), Some(&Json::Bool(true)));
                    let withdrawn = dispatch(&mut core, &withdraw);
                    assert_eq!(job_state(&withdrawn), Some("running"), "{withdrawn:?}");
                }
                core.daemon.checkpoint("job", completed)
            });
            core.daemon.ended("job", ended);
            let status = dispatch(&mut core, &request(Verb::Status, "job"));
            assert_eq!(job_state(&status), Some("done"), "{status:?}");
            let stored = std::fs::read_to_string(store_path(&cfg.state_dir, "job"));
            assert_eq!(stored.unwrap(), batch);
        }
    }

    /// Submits `campaign` under `key` (a new job, or a parked one the submit
    /// requeues) and runs it on the calling thread as the worker would.
    fn submit_and_run(core: &mut Core, key: &str, campaign: &Campaign) {
        let resp = dispatch(core, &submit_doc(key, campaign));
        assert_eq!(job_state(&resp), Some("queued"), "{resp:?}");
        run_next(core, key);
    }

    /// Starts the next job, which must be `key`, and runs it on the calling
    /// thread as the worker would.
    fn run_next(core: &mut Core, key: &str) {
        assert_eq!(core.daemon.next_run().as_deref(), Some(key));
        let Core { cfg, daemon } = core;
        let ended = run_job(cfg, key, |completed| daemon.checkpoint(key, completed));
        daemon.ended(key, ended);
    }

    fn batch_bytes(key: &str, campaign: &Campaign) -> String {
        let mut batch = OutcomeStore::new();
        campaign.run_resumed(1, key, None, Some(&mut batch));
        batch.to_json_string()
    }

    #[test]
    fn a_job_appends_linear_bytes_and_compacts_to_the_batch_store() {
        let mut core = core_with("st-serve-linear-bytes-test", 10_000);
        let dir = core.cfg.state_dir.clone();
        let campaign = tiny_campaign(0..1024);
        let batch = batch_bytes("big", &campaign);

        // Killed after 127 of the 128 chunks: the log is as long as it gets.
        core.restart(Some(127));
        submit_and_run(&mut core, "big", &campaign);
        let status = request(Verb::Status, "big");
        assert_eq!(
            job_state(&dispatch(&mut core, &status)),
            Some("interrupted")
        );
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
        core.restart(None);
        submit_and_run(&mut core, "big", &campaign);
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
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
        let mut core = core_with("st-serve-panicking-job-test", 100);
        let campaign = tiny_campaign(0..4);
        let chunk = core.cfg.chunk;
        core.cfg.chunk = 0;
        submit_and_run(&mut core, "bad", &campaign);
        let status = request(Verb::Status, "bad");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("broken"));
        let fetch = request(Verb::FetchOutcomes, "bad");
        let resp = dispatch(&mut core, &fetch);
        assert_eq!(error_kind(&resp), Some("internal"), "{resp:?}");
        let message = resp.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap();
        assert!(
            message.contains("panicked: chunk size must be ≥ 1"),
            "{message}"
        );

        core.cfg.chunk = chunk;
        submit_and_run(&mut core, "good", &campaign);
        let status = request(Verb::Status, "good");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
        assert_eq!(
            std::fs::read_to_string(store_path(&core.cfg.state_dir, "good")).unwrap(),
            batch_bytes("good", &campaign)
        );
    }

    #[test]
    fn a_crash_between_rename_and_log_removal_restarts_done() {
        let mut core = core_with("st-serve-crash-window-test", 100);
        let dir = core.cfg.state_dir.clone();
        let campaign = tiny_campaign(0..6);
        let batch = batch_bytes("job", &campaign);

        // The state just after compaction's rename: the finished store and
        // a log it was compacted from.
        core.cfg.chunk = 2;
        core.restart(Some(2));
        submit_and_run(&mut core, "job", &campaign);
        let log_file = log_path(&dir, "job");
        assert!(log_file.exists());
        std::fs::write(store_path(&dir, "job"), &batch).unwrap();

        let daemon = Daemon::open(&core.cfg);
        let jobs = daemon.jobs();
        assert_eq!(jobs[0].state, JobState::Done);
        assert_eq!(jobs[0].completed, 6);
        assert!(!log_file.exists(), "the store wins; the log goes");
        assert_eq!(recover_store(&dir, "job").unwrap().to_json_string(), batch);
    }

    #[test]
    fn a_complete_log_is_one_requeue_from_done() {
        // Killed after the last append, before compaction could start.
        let mut core = core_with("st-serve-complete-log-test", 100);
        let dir = core.cfg.state_dir.clone();
        let campaign = tiny_campaign(0..4);
        submit_and_run(&mut core, "job", &campaign);
        let store = recover_store(&dir, "job").unwrap();
        let entries: Vec<&st_campaign::StoreEntry> = store.entries().iter().collect();
        std::fs::write(log_path(&dir, "job"), log::segment(&entries)).unwrap();
        std::fs::remove_file(store_path(&dir, "job")).unwrap();

        core.restart(None);
        let status = request(Verb::Status, "job");
        let resp = dispatch(&mut core, &status);
        assert_eq!(job_state(&resp), Some("interrupted"), "{resp:?}");
        submit_and_run(&mut core, "job", &campaign);
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
        assert_eq!(
            std::fs::read_to_string(store_path(&dir, "job")).unwrap(),
            batch_bytes("job", &campaign)
        );
        assert!(!log_path(&dir, "job").exists());
    }

    #[test]
    fn a_torn_tail_is_dropped_at_every_byte_offset() {
        let mut core = core_with("st-serve-torn-tail-test", 100);
        let dir = core.cfg.state_dir.clone();
        core.cfg.chunk = 2;
        core.restart(Some(3));
        let campaign = tiny_campaign(0..8);
        let batch = batch_bytes("job", &campaign);
        submit_and_run(&mut core, "job", &campaign);
        core.restart(None);

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
                core.restart(None);
                submit_and_run(&mut core, "job", &campaign);
                let store_file = store_path(&dir, "job");
                assert_eq!(std::fs::read_to_string(&store_file).unwrap(), batch);
                std::fs::remove_file(store_file).unwrap();
            }
        }
    }

    #[test]
    fn a_damaged_committed_segment_parks_the_job_broken() {
        let mut core = core_with("st-serve-damaged-log-test", 100);
        let dir = core.cfg.state_dir.clone();
        core.cfg.chunk = 2;
        core.restart(Some(2));
        let campaign = tiny_campaign(0..6);
        submit_and_run(&mut core, "job", &campaign);

        // Flip one byte inside the first committed segment.
        let log_file = log_path(&dir, "job");
        let mut bytes = std::fs::read(&log_file).unwrap();
        bytes[40] ^= 0x01;
        std::fs::write(&log_file, bytes).unwrap();

        core.restart(None);
        let jobs = core.daemon.jobs();
        assert_eq!(jobs[0].state, JobState::Broken);
        assert_eq!(jobs[0].completed, 0, "never a partial reuse");
        for verb in [Verb::Resume, Verb::FetchOutcomes] {
            let resp = dispatch(&mut core, &request(verb, "job"));
            assert_eq!(error_kind(&resp), Some("internal"), "{resp:?}");
        }
        let status = request(Verb::Status, "job");
        let resp = dispatch(&mut core, &status);
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
        core: &mut Core,
        key: &str,
        from: usize,
        page_bytes: usize,
    ) -> (OutcomeStore, Option<usize>) {
        let request = Envelope::request(Verb::FetchOutcomes)
            .string("key", key)
            .member("from", |out| json::write_u64(from as u64, out))
            .finish();
        let bounds = Bounds {
            page: page_bytes,
            frame: MAX_FRAME_BYTES,
        };
        let text = reply(core, &request, bounds);
        let resp = Json::parse(&text).expect("a reply is canonical JSON");
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "the page is served"
        );
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
    fn fetch_rest(core: &mut Core, key: &str, mut from: usize, page_bytes: usize) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let (page, next) = fetch_page(core, key, from, page_bytes);
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
        let mut core = core_with("st-serve-paging-test", 100);
        let dir = core.cfg.state_dir.clone();
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
        core.cfg.chunk = 2;
        core.restart(Some(4));
        submit_and_run(&mut core, "job", &campaign);
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
        assert_eq!(
            fetch_rest(&mut core, "job", 0, page_bytes),
            batch_lines[..8]
        );
        let (first, next) = fetch_page(&mut core, "job", 0, page_bytes);
        assert_eq!((first.len(), next), (3, Some(3)));
        // A page from the very end is empty and last; past it, refused.
        let (end, next) = fetch_page(&mut core, "job", 8, page_bytes);
        assert_eq!((end.len(), next), (0, None));
        let past = Envelope::request(Verb::FetchOutcomes)
            .string("key", "job")
            .member("from", |out| json::write_u64(9, out))
            .finish();
        assert_eq!(error_kind(&dispatch(&mut core, &past)), Some("malformed"));
        let not_an_index = Envelope::request(Verb::FetchOutcomes)
            .string("key", "job")
            .string("from", "0")
            .finish();
        assert_eq!(
            error_kind(&dispatch(&mut core, &not_an_index)),
            Some("malformed")
        );

        // The job finishes and compacts between the first page and the
        // second: the rest follows on without a gap, a repeat or a swap.
        core.restart(None);
        submit_and_run(&mut core, "job", &campaign);
        assert!(store_path(&dir, "job").exists() && !log_path(&dir, "job").exists());
        let mut lines: Vec<String> = first.entries().iter().map(entry_line).collect();
        lines.extend(fetch_rest(&mut core, "job", 3, page_bytes));
        assert_eq!(lines, batch_lines);

        // Without `from` the reply is what it always was: the whole store as
        // one document, no `next`.
        let whole = request(Verb::FetchOutcomes, "job");
        let resp = dispatch(&mut core, &whole);
        assert!(resp.get("next").is_none());
        let expected = Json::obj([
            ("proto", Json::str(protocol::PROTO)),
            ("ok", Json::Bool(true)),
            ("job", resp.get("job").unwrap().clone()),
            ("store", Json::parse(&batch).unwrap()),
        ]);
        assert_eq!(reply(&mut core, &whole, SERVED), expected.to_string());
    }

    #[cfg(unix)]
    #[test]
    fn an_unwritable_log_stops_the_job_broken_with_the_io_error() {
        let mut core = core_with("st-serve-unwritable-log-test", 100);
        let dir = core.cfg.state_dir.clone();
        // A dangling link where the log should be: nothing to read, and
        // nowhere to create the file.
        std::os::unix::fs::symlink(dir.join("no-such-dir/log"), log_path(&dir, "job")).unwrap();
        submit_and_run(&mut core, "job", &tiny_campaign(0..4));

        let status = request(Verb::Status, "job");
        let resp = dispatch(&mut core, &status);
        assert_eq!(job_state(&resp), Some("broken"), "{resp:?}");
        for verb in [Verb::Resume, Verb::FetchOutcomes] {
            let resp = dispatch(&mut core, &request(verb, "job"));
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
        let mut core = core_with("st-serve-slim-table-test", 1_000);
        for j in 0..5u64 {
            let campaign = tiny_campaign(j * 10..j * 10 + 8);
            submit_and_run(&mut core, &format!("job{j}"), &campaign);
        }
        for job in core.daemon.jobs() {
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
        let same = dispatch(&mut core, &submit_doc("job3", &tiny_campaign(30..38)));
        assert_eq!(job_state(&same), Some("done"), "{same:?}");
        let other = dispatch(&mut core, &submit_doc("job3", &tiny_campaign(30..37)));
        assert_eq!(error_kind(&other), Some("spec-mismatch"));
    }

    /// An adversarial spec whose task is the trivial `t < k` one used to be
    /// accepted and end the job `broken` with the worker's panic text; the
    /// submit is refused like any other spec that does not decode.
    #[test]
    fn submit_refuses_an_adversarial_spec_the_worker_would_panic_on() {
        let mut core = core_with("st-serve-adversarial-spec-test", 10);
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
        let resp = dispatch(&mut core, &submit_doc("bad", &adversarial(1, 2)));
        assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
        let message = resp.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap();
        assert!(
            message.contains("entries[1].scenario: field \"k\""),
            "{message}"
        );
        assert!(!spec_path(&core.cfg.state_dir, "bad").exists());
        assert!(core.daemon.jobs().is_empty());

        // The same entry with a task the adversary can block runs to `done`.
        submit_and_run(&mut core, "good", &adversarial(2, 2));
        let status = request(Verb::Status, "good");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
    }

    /// The same for an agreement spec with other than one input per
    /// process, which used to end the job `broken` on `build_abi`'s
    /// assert, and for an adversarial witness outside the universe, which
    /// used to run and certify a pair of another system.
    #[test]
    fn submit_refuses_foreign_inputs_and_witnesses() {
        let mut core = core_with("st-serve-foreign-spec-test", 10);
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
            let resp = dispatch(&mut core, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&core.cfg.state_dir, key).exists());
            assert!(core.daemon.jobs().is_empty());
        }

        // The same entries with four inputs and a witness inside Π_4 run
        // to `done`.
        let mut good = with(agreement(vec![1, 2, 3, 4]));
        let witness = (set(&[0, 1, 2]), set(&[0, 1, 2, 3]));
        good.push(foreign("witnessed", adversarial(witness)));
        submit_and_run(&mut core, "good", &good);
        let status = request(Verb::Status, "good");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
    }

    /// The same for a certification the timeliness analyzer would assert
    /// on (a zero bound cap) and for a single-word workload past n = 64.
    #[test]
    fn submit_refuses_a_certification_the_worker_would_panic_on() {
        let mut core = core_with("st-serve-certification-spec-test", 10);
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
            let resp = dispatch(&mut core, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&core.cfg.state_dir, key).exists());
            assert!(core.daemon.jobs().is_empty());
        }

        // The same entry with a positive cap at n = 4 runs to `done`.
        submit_and_run(&mut core, "good", &certified(4, 8));
        let status = request(Verb::Status, "good");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
    }

    /// The same for parameters a protocol's constructor would assert on: an
    /// agreement task `AgreementTask::new` refuses, a detector outside
    /// `1 ≤ k ≤ t ≤ n − 1`, and a BG reduction simulating nobody, more
    /// than 64 processes, or a `k = 0` algorithm.
    #[test]
    fn submit_refuses_protocol_parameters_the_worker_would_panic_on() {
        let mut core = core_with("st-serve-protocol-spec-test", 10);
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
            let resp = dispatch(&mut core, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&core.cfg.state_dir, key).exists());
            assert!(core.daemon.jobs().is_empty());
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
        submit_and_run(&mut core, "good", &good);
        let status = request(Verb::Status, "good");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
    }

    /// The same for a generator its constructor would assert on: a weight
    /// vector of the wrong length, nested under a decorator.
    #[test]
    fn submit_refuses_a_generator_spec_the_worker_would_panic_on() {
        let mut core = core_with("st-serve-generator-spec-test", 10);
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
        let resp = dispatch(&mut core, &submit_doc("bad", &weighted(&[2, 1])));
        assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
        let message = resp.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap();
        assert!(
            message.contains(
                "entries[2].scenario: field \"generator\": field \"filler\": field \"weights\""
            ),
            "{message}"
        );
        assert!(!spec_path(&core.cfg.state_dir, "bad").exists());
        assert!(core.daemon.jobs().is_empty());

        // The same entry with one weight per process runs to `done`.
        submit_and_run(&mut core, "good", &weighted(&[2, 1, 1]));
        let status = request(Verb::Status, "good");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
    }

    /// What used to decode and then panic the worker — a generator its
    /// constructor asserts on (Figure 1 with `p1 = p2`), a detector range
    /// the lean fleet asserts on (`t = 0`) — is a typed `malformed` reply
    /// naming the field; the valid twins run to `done`.
    #[test]
    fn submit_refuses_specs_that_decoded_and_then_panicked_a_worker() {
        let mut core = core_with("st-serve-validity-test", 10);
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
            let resp = dispatch(&mut core, &submit_doc(key, &campaign));
            assert_eq!(error_kind(&resp), Some("malformed"), "{resp:?}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            let message = message.and_then(Json::as_str).unwrap();
            assert!(
                message.contains(&format!("entries[1].scenario: {path}")),
                "{message}"
            );
            assert!(!spec_path(&core.cfg.state_dir, key).exists());
            assert!(core.daemon.jobs().is_empty());
        }

        submit_and_run(&mut core, "good", &with(figure1(1), 1));
        let status = request(Verb::Status, "good");
        assert_eq!(job_state(&dispatch(&mut core, &status)), Some("done"));
    }

    #[test]
    fn dispatch_rejects_missing_proto_and_unknown_verbs() {
        let mut core = core_with("st-serve-dispatch-test", 10);
        let mut err = |doc: &Json| {
            let resp = dispatch(&mut core, &doc.to_string());
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
        let mut bad_verb = Json::parse(&Envelope::request(Verb::Hello).finish()).unwrap();
        if let Json::Obj(members) = &mut bad_verb {
            members[1].1 = Json::str("fetch");
        }
        assert_eq!(err(&bad_verb), Some("unknown-verb".into()));
        let hello = dispatch(&mut core, &Envelope::request(Verb::Hello).finish());
        assert_eq!(hello.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            hello.get("store_schema").and_then(Json::as_str),
            Some(st_campaign::store::SCHEMA)
        );
    }

    /// The request → reply transcript captured from the daemon before its
    /// envelopes were read and written as text, replayed against a fresh
    /// state directory with every job run on this thread: every verb, every
    /// refusal and its order, reordered, repeated and unknown members and
    /// other whitespace. A step with a `now` member is an intended change:
    /// the reply is `now`, and differs from what the parent answered
    /// (`reply`, `null` for no answer at all).
    #[test]
    fn the_parent_transcript_replays_byte_for_byte() {
        let mut core = core_with("st-serve-transcript-test", 10);
        core.cfg.threads = 1;
        let (mut replayed, mut changed) = (0, 0);
        for step in &test_support::steps() {
            let member = |name| step.get(name).and_then(Json::as_str);
            let note = member("note").unwrap();
            if let Some(key) = member("run") {
                run_next(&mut core, key);
                continue;
            }
            let bound = |name, default| {
                step.get(name)
                    .and_then(Json::as_u64)
                    .map_or(default, |b| b as usize)
            };
            let bounds = Bounds {
                page: bound("page_bytes", PAGE_BYTES),
                frame: bound("frame_bytes", MAX_FRAME_BYTES),
            };
            let reply = reply(&mut core, member("request").unwrap(), bounds);
            match member("now") {
                Some(now) => {
                    assert_eq!(reply, now, "{note}");
                    assert_ne!(Some(now), member("reply"), "{note}");
                    changed += 1;
                }
                None => assert_eq!(Some(reply.as_str()), member("reply"), "{note}"),
            }
            replayed += 1;
        }
        assert_eq!((replayed, changed), (95, 9));
    }

    /// PROTOCOL.md is held to the code, the way `st-campaign`'s `wire.rs`
    /// holds its `WIRE-REFERENCE` block: the verb table is [`Verb::ALL`],
    /// the error-kind table [`ErrorKind::ALL`], the job-state list
    /// [`JobState::ALL`], each in order, and the worked example's raw
    /// `hello` frame is answered with exactly the reply it documents.
    #[test]
    fn protocol_md_matches_the_code() {
        let doc = include_str!("../../../PROTOCOL.md");
        let section = |heading: &str| {
            let start = doc.find(heading).expect(heading) + heading.len();
            let rest = &doc[start..];
            &rest[..rest.find("\n#").unwrap_or(rest.len())]
        };
        // A table's first column, below its header, as backticked names.
        let names = |table: &str| -> Vec<String> {
            table
                .lines()
                .skip_while(|line| !line.starts_with("|-"))
                .skip(1)
                .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
                .map(str::to_string)
                .collect()
        };
        let wire = |names: &mut dyn Iterator<Item = &'static str>| -> Vec<String> {
            names.map(str::to_string).collect()
        };
        assert_eq!(
            names(section("\n## Verbs\n")),
            wire(&mut Verb::ALL.into_iter().map(Verb::wire)),
            "PROTOCOL.md's verb table"
        );
        assert_eq!(
            names(section("\n## Error kinds\n")),
            wire(&mut ErrorKind::ALL.into_iter().map(ErrorKind::wire)),
            "PROTOCOL.md's error-kind table"
        );
        let list = section("\n## Verbs\n");
        let list = &list[list.find("`state` is one of ").expect("the job-state list")..];
        let states: Vec<String> = list[..list.find(", and").unwrap()]
            .split('`')
            .skip(3)
            .step_by(2)
            .map(str::to_string)
            .collect();
        assert_eq!(
            states,
            wire(&mut JobState::ALL.into_iter().map(JobState::wire)),
            "PROTOCOL.md's job-state list"
        );

        // `$ printf '<frame>' \` and, after the `nc` line, the reply.
        let example = section("\n## Worked example session\n");
        let mut lines = example.lines().skip_while(|l| !l.starts_with("$ printf '"));
        let printf = lines.next().expect("the raw hello");
        let frame = &printf["$ printf '".len()..printf.rfind('\'').unwrap()];
        let reply = lines.nth(1).expect("the documented reply");
        let mut bytes = Vec::new();
        let mut rest = frame;
        while let Some(escaped) = rest.strip_prefix("\\x") {
            bytes.push(u8::from_str_radix(&escaped[..2], 16).unwrap());
            rest = &escaped[2..];
        }
        assert_eq!(
            bytes,
            (rest.len() as u32).to_be_bytes(),
            "the length prefix"
        );
        let mut core = core_with("st-serve-protocol-md-test", 10);
        assert_eq!(self::reply(&mut core, rest, SERVED), reply);
    }

    /// The requests of the transcript that the daemon answered `ok`.
    fn ok_requests() -> Vec<String> {
        let ok = "{\"proto\": \"st-serve/v1\", \"ok\": true";
        let steps = test_support::steps();
        let answered_ok = |step: &&Json| {
            let reply = step.get("now").or(step.get("reply"));
            reply
                .and_then(Json::as_str)
                .is_some_and(|r| r.starts_with(ok))
        };
        let requests = steps.iter().filter(answered_ok);
        requests
            .map(|step| {
                step.get("request")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// The state directory's files and their bytes, by name.
    fn snapshot(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|path| {
                (
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(path).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    /// `request` answered on `core`: never an unwind, always exactly one
    /// envelope — `"ok": true`, or `false` with a known error kind and a
    /// message — and the state directory as it was unless the reply is `ok`.
    fn answers_once(core: &mut Core, request: &str) {
        let before = snapshot(&core.cfg.state_dir);
        let reply = catch_unwind(AssertUnwindSafe(|| reply(core, request, SERVED)))
            .unwrap_or_else(|_| panic!("unwound on {request:?}"));
        if envelope(&reply).get("ok") != Some(&Json::Bool(true)) {
            let after = snapshot(&core.cfg.state_dir);
            assert!(after == before, "{reply} wrote to the state directory");
        }
    }

    /// `reply`, parsed and asserted to be exactly one envelope: `"ok": true`,
    /// or `false` with a known error kind and a message.
    fn envelope(reply: &str) -> Json {
        let doc = Json::parse(reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
        assert_eq!(doc.get("proto").and_then(Json::as_str), Some(PROTO));
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                let error = doc.get("error").unwrap_or_else(|| panic!("{reply}"));
                let kind = error.get("kind").and_then(Json::as_str);
                assert!(kind.and_then(ErrorKind::parse).is_some(), "{reply}");
                assert!(error.get("message").and_then(Json::as_str).is_some());
            }
            None => panic!("no \"ok\" in {reply}"),
        }
        doc
    }

    /// A `splitmix64` stream: the interleaving test's only source of choice.
    struct Draws(u64);

    impl Draws {
        /// A draw below `n`.
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// The state changes a request, a checkpoint, a job's end or
    /// `next_run` may make. Nothing in the interleaving test breaks a job.
    const LIVE: [(JobState, JobState); 8] = [
        (JobState::Queued, JobState::Running),      // next_run
        (JobState::Queued, JobState::Cancelled),    // cancel
        (JobState::Running, JobState::Done),        // ended: finished
        (JobState::Running, JobState::Cancelled),   // ended: cancelled
        (JobState::Running, JobState::Interrupted), // ended: the crash hook
        (JobState::Running, JobState::Queued),      // ended: a cancel withdrawn since
        (JobState::Interrupted, JobState::Queued),  // resume, identical submit
        (JobState::Cancelled, JobState::Queued),    // resume, identical submit
    ];

    /// What a restart makes of each state.
    const RESTART: [(JobState, JobState); 5] = [
        (JobState::Queued, JobState::Interrupted),
        (JobState::Running, JobState::Interrupted),
        (JobState::Cancelled, JobState::Interrupted),
        (JobState::Interrupted, JobState::Interrupted),
        (JobState::Done, JobState::Done),
    ];

    /// A job an interleaving may submit, and the store batch mode writes.
    struct Planned {
        key: &'static str,
        campaign: Campaign,
        batch: String,
        doc: Json,
    }

    /// One seeded daemon lifetime driven through the core: the shell's
    /// lock is `with`, its channel `runs`, its worker `run`.
    struct Lifetime<'a> {
        core: Core,
        draws: Draws,
        plan: &'a [Planned],
        /// Draw requests between checkpoints (off while draining).
        requests: bool,
        runs: VecDeque<String>,
        /// Each job's state and progress as last observed.
        seen: BTreeMap<String, (JobState, usize)>,
        /// Running jobs with a cancel requested and not withdrawn.
        cancelling: BTreeSet<String>,
        /// Checkpoints the crash hook has left.
        chunks_left: Option<u64>,
    }

    impl Lifetime<'_> {
        /// `f` on the core, then `next_run`, as `Shell::with` does, with
        /// every state change held to [`LIVE`].
        fn with<T>(&mut self, f: impl FnOnce(&mut Daemon) -> T) -> T {
            let out = f(&mut self.core.daemon);
            self.observe();
            let exiting = self.core.daemon.exiting();
            if let Some(key) = self.core.daemon.next_run() {
                assert!(!exiting, "{key} started after the crash hook fired");
                self.runs.push_back(key);
            }
            self.observe();
            out
        }

        /// Each job's state against the last one seen, and at most one job
        /// running.
        fn observe(&mut self) {
            let mut running = 0;
            for job in self.core.daemon.jobs() {
                running += usize::from(job.state == JobState::Running);
                let now = job.state;
                match self.seen.get(&job.key) {
                    Some(&(was, _)) => assert!(
                        was == now || LIVE.contains(&(was, now)),
                        "{}: {was:?} → {now:?}",
                        job.key
                    ),
                    None => assert_eq!(now, JobState::Queued, "{} appeared", job.key),
                }
                self.seen.insert(job.key.clone(), (now, job.completed));
            }
            assert!(running <= 1, "{running} jobs running");
        }

        /// A kill and `Daemon::open` on the same directory, with the crash
        /// hook `hook`: every state held to [`RESTART`], no committed
        /// progress lost.
        fn restart(&mut self, hook: Option<u64>) {
            self.core.restart(hook);
            self.chunks_left = hook;
            self.runs.clear();
            self.cancelling.clear();
            let jobs = self.core.daemon.jobs();
            assert_eq!(jobs.len(), self.seen.len(), "a restart keeps every job");
            for job in jobs {
                let (was, completed) = self.seen[&job.key];
                assert!(
                    RESTART.contains(&(was, job.state)),
                    "{}: {was:?} → {:?} across a restart",
                    job.key,
                    job.state
                );
                assert_eq!(job.completed, completed, "{}", job.key);
                self.seen
                    .insert(job.key.clone(), (job.state, job.completed));
            }
        }

        /// One request of a drawn verb on a drawn job, answered and checked.
        fn request(&mut self) {
            let planned = &self.plan[self.draws.below(self.plan.len())];
            let key = planned.key;
            let known = self.seen.get(key).map(|&(state, _)| state);
            let verb = Verb::ALL[1 + self.draws.below(Verb::ALL.len() - 1)];
            let mut from = None;
            let text = match verb {
                Verb::Submit if known.is_some() && self.draws.below(4) == 0 => {
                    submit_doc(key, &tiny_campaign(90..91))
                }
                Verb::Submit => submit_doc(key, &planned.campaign),
                Verb::Status if self.draws.below(2) == 0 => Envelope::request(verb).finish(),
                Verb::FetchOutcomes if self.draws.below(2) == 0 => {
                    let start = self.draws.below(planned.campaign.len() + 2);
                    from = Some(start);
                    Envelope::request(verb)
                        .string("key", key)
                        .member("from", |out| json::write_u64(start as u64, out))
                        .finish()
                }
                _ => request(verb, key),
            };
            let dir = self.core.cfg.state_dir.clone();
            let reply = respond(&dir, &text, SERVED, |request| {
                self.with(|daemon| daemon.answer(request))
            });
            let doc = envelope(&reply);
            if doc.get("ok") != Some(&Json::Bool(true)) {
                return;
            }
            match verb {
                Verb::Cancel => {
                    let requested = doc.get("cancel_requested") == Some(&Json::Bool(true));
                    assert_eq!(requested, job_state(&doc) == Some("running"), "{reply}");
                    if requested {
                        self.cancelling.insert(key.to_string());
                    }
                }
                Verb::Resume | Verb::Submit => {
                    self.cancelling.remove(key);
                    if matches!(known, Some(JobState::Interrupted | JobState::Cancelled)) {
                        assert_eq!(job_state(&doc), Some("queued"), "{key}: {reply}");
                    }
                }
                Verb::FetchOutcomes => {
                    let store = doc.get("store").unwrap();
                    let entries = store.get("entries").and_then(Json::as_arr).unwrap();
                    let batch = planned.doc.get("entries").and_then(Json::as_arr).unwrap();
                    let start = from.unwrap_or(0);
                    assert_eq!(entries, &batch[start..start + entries.len()], "{key}");
                    if from.is_none() && job_state(&doc) == Some("done") {
                        assert_eq!(store, &planned.doc, "{key}: a done job's store");
                    }
                }
                _ => {}
            }
        }

        /// The worker's run of job `key`, with drawn requests before each
        /// checkpoint and before its end is filed.
        fn run(&mut self, key: &str) {
            let cfg = self.core.cfg.clone();
            let mut last = self.seen[key].1;
            let ended = run_job(&cfg, key, |completed| {
                for _ in 0..usize::from(self.requests) * self.draws.below(3) {
                    self.request();
                }
                let fires = self.chunks_left.as_mut().is_some_and(|left| {
                    *left = left.saturating_sub(1);
                    *left == 0
                });
                let stop = fires || self.cancelling.contains(key);
                let control = self.with(|daemon| daemon.checkpoint(key, completed));
                assert_eq!(control == ChunkControl::Stop, stop, "{key} at {completed}");
                assert!(completed >= last, "{key}: completed fell to {completed}");
                last = completed;
                control
            });
            for _ in 0..usize::from(self.requests) * self.draws.below(2) {
                self.request();
            }
            let exiting = self.core.daemon.exiting();
            let cancelled = self.cancelling.remove(key);
            let expected = match &ended {
                Ok(true) => JobState::Done,
                Ok(false) if exiting => JobState::Interrupted,
                Ok(false) if cancelled => JobState::Cancelled,
                Ok(false) => JobState::Queued,
                Err(broken) => panic!("{key} broke: {broken:?}"),
            };
            let state = self.with(|daemon| {
                daemon.ended(key, ended);
                let job = daemon.jobs().iter().find(|j| j.key == key);
                job.unwrap().state
            });
            assert_eq!(state, expected, "{key}");
        }
    }

    /// Seeded interleavings of every verb with the worker's checkpoints,
    /// crash hooks and restarts, driven through the core on one thread:
    /// only the transitions in [`LIVE`] and [`RESTART`], at most one job
    /// running, progress that never falls within a run, a checkpoint that
    /// stops exactly when a cancel is pending or the hook fires, no job
    /// cancelled after a withdrawing `resume` or `submit`, fetched pages
    /// that are prefixes of the batch store — and every job, resumed to
    /// the end, fetches the batch store.
    #[test]
    fn seeded_interleavings_hold_the_job_table_invariants() {
        let plan: Vec<Planned> = [("a", 0..2), ("b", 10..13), ("c", 20..24)]
            .into_iter()
            .map(|(key, seeds)| {
                let campaign = tiny_campaign(seeds);
                let batch = batch_bytes(key, &campaign);
                let doc = Json::parse(&batch).unwrap();
                Planned {
                    key,
                    campaign,
                    batch,
                    doc,
                }
            })
            .collect();
        for seed in 0..200 {
            if catch_unwind(AssertUnwindSafe(|| lifetime(seed, &plan))).is_err() {
                panic!("the lifetime of seed {seed} broke an invariant (above)");
            }
        }
    }

    /// The daemon lifetime seed `seed` draws, over the jobs of `plan`.
    fn lifetime(seed: u64, plan: &[Planned]) {
        let mut core = core_with("st-serve-interleavings-test", 1_000);
        (core.cfg.chunk, core.cfg.threads) = (1, 1);
        let mut life = Lifetime {
            core,
            draws: Draws(seed),
            plan,
            requests: true,
            runs: VecDeque::new(),
            seen: BTreeMap::new(),
            cancelling: BTreeSet::new(),
            chunks_left: None,
        };
        for _ in 0..12 {
            for _ in 0..life.draws.below(4) {
                life.request();
            }
            if let Some(key) = life.runs.pop_front() {
                life.run(&key);
            }
            if life.core.daemon.exiting() || life.draws.below(8) == 0 {
                let hook = life.draws.below(6) as u64;
                life.restart((hook > 0).then_some(hook));
            }
        }

        // Drained: every job resumed and run to the end, undisturbed.
        life.restart(None);
        life.requests = false;
        let keys: Vec<String> = life.seen.keys().cloned().collect();
        for key in keys {
            let resumed = life.with(|daemon| daemon.answer(&Request::Resume { key }));
            envelope(&resumed.unwrap());
        }
        while let Some(key) = life.runs.pop_front() {
            life.run(&key);
        }
        for planned in plan.iter().filter(|p| life.seen.contains_key(p.key)) {
            assert_eq!(life.seen[planned.key].0, JobState::Done, "{}", planned.key);
            let stored = store_path(&life.core.cfg.state_dir, planned.key);
            assert_eq!(std::fs::read_to_string(stored).unwrap(), planned.batch);
        }
    }

    /// Bytes in: every truncation of every request the transcript's daemon
    /// answered `ok`, against a daemon holding a job.
    #[test]
    fn every_truncation_of_a_valid_request_is_answered_once() {
        let mut core = core_with("st-serve-truncation-test", 10);
        let requests = ok_requests();
        assert!(requests.len() > 20, "{}", requests.len());
        answers_once(&mut core, &submit_doc("job", &tiny_campaign(0..4)));
        for request in &requests {
            for cut in truncations(request) {
                answers_once(&mut core, cut);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bytes in: one byte of a valid request changed to any ASCII byte,
        /// and arbitrary text, bare and behind a `submit`'s opening
        /// members.
        #[test]
        fn a_changed_byte_or_arbitrary_text_is_answered_once(
            which in any::<u32>(),
            at in any::<u32>(),
            byte in 0u8..128,
            picks in prop::collection::vec(any::<u32>(), 0..24)
        ) {
            let mut core = core_with("st-serve-bytes-in-test", 10);
            answers_once(&mut core, &submit_doc("job", &tiny_campaign(0..4)));
            let requests = ok_requests();
            let mut request = requests[which as usize % requests.len()].clone().into_bytes();
            let at = at as usize % request.len();
            request[at] = byte;
            answers_once(&mut core, &String::from_utf8(request).expect("ASCII in, ASCII out"));
            let text = soup(&picks, &requests);
            answers_once(&mut core, &text);
            let submit = "{\"proto\": \"st-serve/v1\", \"verb\": \"submit\", \"key\": \"soup\"";
            answers_once(&mut core, &format!("{submit}, \"entries\": [{text}"));
        }
    }
}
