//! The client half: one TCP connection per request, typed errors, and the
//! submit→poll→fetch loop `stlab --serve` runs a campaign through.

use std::fmt;
use std::net::TcpStream;
use std::time::Duration;

use st_campaign::store::read_document;
use st_campaign::{Campaign, OutcomeStore, ScenarioOutcome, StoreEntry, StoreError};
use st_core::frame::{read_frame_text, write_frame_text, FrameError};
use st_core::json::{Cursor, JsonError};
use st_core::Json;

use crate::protocol::{self, campaign_entries, text_with, JobState, Verb};

/// Default delay between `status` polls in
/// [`run_campaign`](ServeClient::run_campaign).
pub const DEFAULT_POLL: Duration = Duration::from_millis(20);

/// A typed client failure. Every variant's `Display` text is what `stlab`
/// prints before exiting 2 — the messages are part of the CLI contract.
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed (daemon down, wrong address).
    Connect {
        /// The address dialed.
        addr: String,
        /// The connect error.
        source: std::io::Error,
    },
    /// The connection broke mid-request, or the peer sent garbage framing.
    Frame(FrameError),
    /// The response parsed but is not a protocol envelope.
    Malformed(String),
    /// The daemon answered with a typed error response.
    Server {
        /// The error kind's wire name (e.g. `busy`, `schema-mismatch`).
        kind: String,
        /// The daemon's message.
        message: String,
    },
    /// The request-response exchange worked, but the job cannot produce
    /// outcomes (cancelled, broken, incomplete fetch).
    Failed(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect { addr, source } => {
                write!(f, "cannot reach st-serve at {addr}: {source}")
            }
            ClientError::Frame(e) => write!(f, "st-serve connection failed: {e}"),
            ClientError::Malformed(msg) => write!(f, "malformed st-serve response: {msg}"),
            ClientError::Server { kind, message } => {
                write!(f, "st-serve refused [{kind}]: {message}")
            }
            ClientError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A job's status as reported by the daemon.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// The campaign key.
    pub key: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Scenario count.
    pub total: u64,
    /// Outcomes recorded so far.
    pub completed: u64,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}/{}",
            self.key,
            self.state.wire(),
            self.completed,
            self.total
        )
    }
}

/// A client for one daemon address. Connections are per-request (the
/// protocol is one frame in, one frame out), so a `ServeClient` is just
/// the address plus the request plumbing.
#[derive(Clone, Debug)]
pub struct ServeClient {
    addr: String,
}

impl ServeClient {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7777`).
    pub fn new(addr: impl Into<String>) -> Self {
        ServeClient { addr: addr.into() }
    }

    fn request(&self, verb: Verb, fields: Vec<(&'static str, Json)>) -> Result<Json, ClientError> {
        let request = protocol::request(verb, fields).to_string();
        self.exchange(&request).map(|(resp, _)| resp)
    }

    /// One exchange of the request text `request`: the success envelope,
    /// and the entries of its `store` member if it has one.
    fn exchange(&self, request: &str) -> Result<(Json, Option<StoreRead>), ClientError> {
        let mut sock = TcpStream::connect(&self.addr).map_err(|e| ClientError::Connect {
            addr: self.addr.clone(),
            source: e,
        })?;
        write_frame_text(&mut sock, request).map_err(ClientError::Frame)?;
        let text = read_frame_text(&mut sock).map_err(ClientError::Frame)?;
        let (resp, store) =
            read_response(&text).map_err(|e| ClientError::Frame(FrameError::Json(e)))?;
        match resp.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok((resp, store)),
            Some(false) => {
                let field = |name: &str| {
                    resp.get("error")
                        .and_then(|e| e.get(name))
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                Err(ClientError::Server {
                    kind: field("kind"),
                    message: field("message"),
                })
            }
            None => Err(ClientError::Malformed(
                "response has no \"ok\" field".to_string(),
            )),
        }
    }

    fn job_from(&self, resp: &Json) -> Result<JobStatus, ClientError> {
        let job = resp
            .get("job")
            .ok_or_else(|| ClientError::Malformed("response has no \"job\" field".into()))?;
        let state = job.get("state").and_then(Json::as_str).unwrap_or("");
        Ok(JobStatus {
            key: job
                .get("key")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            state: JobState::parse(state)
                .ok_or_else(|| ClientError::Malformed(format!("unknown job state {state:?}")))?,
            total: job.get("total").and_then(Json::as_u64).unwrap_or(0),
            completed: job.get("completed").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Liveness/version probe. `Ok` means the daemon is up and speaks this
    /// client's protocol version.
    pub fn hello(&self) -> Result<(), ClientError> {
        self.request(Verb::Hello, Vec::new()).map(|_| ())
    }

    /// Submits `campaign` under `key`. Idempotent: an identical re-submit
    /// reports the existing job (requeueing it if it was interrupted or
    /// cancelled); a different campaign under the same key is a typed
    /// `spec-mismatch` refusal.
    pub fn submit(&self, key: &str, campaign: &Campaign) -> Result<JobStatus, ClientError> {
        let envelope = protocol::request(Verb::Submit, [("key", Json::str(key))]);
        let request = text_with(&envelope, |out| {
            out.push_str(", \"entries\": ");
            campaign_entries(campaign, out);
        });
        let (resp, _) = self.exchange(&request)?;
        self.job_from(&resp)
    }

    /// One job's status.
    pub fn status(&self, key: &str) -> Result<JobStatus, ClientError> {
        let resp = self.request(Verb::Status, vec![("key", Json::str(key))])?;
        self.job_from(&resp)
    }

    /// Every job's status, sorted by key.
    pub fn jobs(&self) -> Result<Vec<JobStatus>, ClientError> {
        let resp = self.request(Verb::Status, Vec::new())?;
        let jobs = resp
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Malformed("response has no \"jobs\" array".into()))?;
        jobs.iter()
            .map(|j| self.job_from(&Json::obj([("job", j.clone())])))
            .collect()
    }

    /// Requests cancellation (honored at the job's next chunk boundary).
    pub fn cancel(&self, key: &str) -> Result<JobStatus, ClientError> {
        let resp = self.request(Verb::Cancel, vec![("key", Json::str(key))])?;
        self.job_from(&resp)
    }

    /// Requeues an interrupted or cancelled job.
    pub fn resume(&self, key: &str) -> Result<JobStatus, ClientError> {
        let resp = self.request(Verb::Resume, vec![("key", Json::str(key))])?;
        self.job_from(&resp)
    }

    /// Fetches the job's outcome store: the finished store of a `done`
    /// job, the committed prefix of any other. A finished store's
    /// [`to_json_string`](OutcomeStore::to_json_string) reproduces the
    /// daemon's file bytes exactly (the store's parse→serialize round trip
    /// is byte-stable). The store is fetched page by page (`from` / `next`,
    /// see PROTOCOL.md), so its size is not bounded by the frame cap; the
    /// job status returned is the last page's.
    pub fn fetch_store(&self, key: &str) -> Result<(JobStatus, OutcomeStore), ClientError> {
        let failed =
            |e: &dyn fmt::Display| ClientError::Failed(format!("fetched store for {key:?}: {e}"));
        let mut entries: Vec<StoreEntry> = Vec::new();
        loop {
            let from = entries.len() as u64;
            let fields = [("key", Json::str(key)), ("from", Json::U64(from))];
            let request = protocol::request(Verb::FetchOutcomes, fields).to_string();
            let (resp, page) = self.exchange(&request)?;
            let job = self.job_from(&resp)?;
            let page = page
                .ok_or_else(|| ClientError::Malformed("response has no \"store\" field".into()))?;
            entries.extend(page.map_err(|e| failed(&e))?);
            // A daemon from before paging ignores `from` and sends the
            // whole store with no `next`: the same as a last page.
            match resp.get("next").unwrap_or(&Json::Null) {
                Json::Null => {
                    let store = OutcomeStore::from_entries(entries).map_err(|e| failed(&e))?;
                    return Ok((job, store));
                }
                // The next page starts where this one ended, and a page
                // that is not the last is never empty.
                Json::U64(next) if *next == entries.len() as u64 && *next > from => {}
                next => {
                    return Err(failed(&format_args!(
                        "the page from entry {from} holds {} entries but names {next} as the \
                         next page's start",
                        entries.len() as u64 - from
                    )))
                }
            }
        }
    }

    /// The full client-side campaign run: submit, poll `status` every
    /// `poll`, fetch the finished store, and return the rank-ordered
    /// outcomes — the drop-in remote counterpart of
    /// [`Campaign::run_resumed`]. A job that ends cancelled or broken, or
    /// a fetched store that does not cover the campaign, is a typed error.
    pub fn run_campaign(
        &self,
        key: &str,
        campaign: &Campaign,
        poll: Duration,
    ) -> Result<Vec<ScenarioOutcome>, ClientError> {
        self.submit(key, campaign)?;
        loop {
            let job = self.status(key)?;
            match job.state {
                JobState::Done => break,
                JobState::Queued | JobState::Running => std::thread::sleep(poll),
                other => {
                    return Err(ClientError::Failed(format!(
                        "st-serve job {key:?} ended {}",
                        other.wire()
                    )))
                }
            }
        }
        let (_, store) = self.fetch_store(key)?;
        let outcomes: Vec<ScenarioOutcome> = store
            .entries()
            .iter()
            .filter(|e| e.campaign == key)
            .map(|e| e.outcome.clone())
            .collect();
        let ranks: Vec<usize> = outcomes.iter().map(|o| o.rank).collect();
        if ranks != campaign.ranks() {
            return Err(ClientError::Failed(format!(
                "st-serve returned {} outcome(s) for {key:?}, campaign expects {}",
                outcomes.len(),
                campaign.len()
            )));
        }
        Ok(outcomes)
    }
}

/// A response's `store` member, as [`read_document`] answers it.
type StoreRead = Result<Vec<StoreEntry>, StoreError>;

/// Reads a response frame's text without holding it as one tree: the
/// envelope as a value, except its `store` member, which the store's own
/// reader decodes an entry at a time.
fn read_response(text: &str) -> Result<(Json, Option<StoreRead>), JsonError> {
    let mut cur = Cursor::new(text);
    cur.skip_ws();
    if cur.peek() != Some(b'{') {
        return Ok((Json::parse(text)?, None));
    }
    let mut members = Vec::new();
    let mut store = None;
    let mut more = cur.open(b'{')?;
    while more {
        let key = cur.key()?;
        if key == "store" && store.is_none() {
            store = Some(read_document(&mut cur)?);
        } else {
            members.push((key.into_owned(), cur.value()?));
        }
        more = cur.more(b'}')?;
    }
    cur.finish()?;
    Ok((Json::Obj(members), store))
}
