//! The client half: one TCP connection per request, typed errors, and the
//! submit→poll→fetch loop `stlab --serve` runs a campaign through.

use std::fmt;
use std::net::TcpStream;
use std::time::Duration;

use st_campaign::{Campaign, OutcomeStore, ScenarioOutcome, StoreEntry};
use st_core::frame::{read_frame_text, write_frame_text, FrameError};
use st_core::json;

pub use crate::protocol::JobStatus;
use crate::protocol::{campaign_entries, read_reply, Answer, Envelope, JobState, Verb};

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
    /// The response is JSON but not a protocol envelope, or a member the
    /// verb is answered with is missing or of the wrong type (named).
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

    /// One exchange of `request`: the success reply's members, or the typed
    /// error the reply (or its absence) is.
    fn exchange(&self, request: Envelope) -> Result<Answer, ClientError> {
        let mut sock = TcpStream::connect(&self.addr).map_err(|e| ClientError::Connect {
            addr: self.addr.clone(),
            source: e,
        })?;
        write_frame_text(&mut sock, &request.finish()).map_err(ClientError::Frame)?;
        read_reply(&read_frame_text(&mut sock).map_err(ClientError::Frame)?)
    }

    /// The exchange of a request that names `key` and is answered with
    /// one job.
    fn job_exchange(&self, verb: Verb, key: &str) -> Result<JobStatus, ClientError> {
        let answer = self.exchange(Envelope::request(verb).string("key", key))?;
        job_of(answer.job)
    }

    /// Liveness/version probe. `Ok` means the daemon is up and speaks this
    /// client's protocol version.
    pub fn hello(&self) -> Result<(), ClientError> {
        self.exchange(Envelope::request(Verb::Hello)).map(|_| ())
    }

    /// Submits `campaign` under `key`. Idempotent: an identical re-submit
    /// reports the existing job (requeueing it if it was interrupted or
    /// cancelled); a different campaign under the same key is a typed
    /// `spec-mismatch` refusal.
    pub fn submit(&self, key: &str, campaign: &Campaign) -> Result<JobStatus, ClientError> {
        let request = Envelope::request(Verb::Submit)
            .string("key", key)
            .member("entries", |out| campaign_entries(campaign, out));
        job_of(self.exchange(request)?.job)
    }

    /// One job's status.
    pub fn status(&self, key: &str) -> Result<JobStatus, ClientError> {
        self.job_exchange(Verb::Status, key)
    }

    /// Every job's status, sorted by key.
    pub fn jobs(&self) -> Result<Vec<JobStatus>, ClientError> {
        let jobs = self.exchange(Envelope::request(Verb::Status))?.jobs;
        jobs.unwrap_or_else(|| Err("response has no \"jobs\" array".to_string()))
            .map_err(ClientError::Malformed)
    }

    /// Requests cancellation (honored at the job's next chunk boundary).
    pub fn cancel(&self, key: &str) -> Result<JobStatus, ClientError> {
        self.job_exchange(Verb::Cancel, key)
    }

    /// Requeues an interrupted or cancelled job.
    pub fn resume(&self, key: &str) -> Result<JobStatus, ClientError> {
        self.job_exchange(Verb::Resume, key)
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
            let request = Envelope::request(Verb::FetchOutcomes)
                .string("key", key)
                .member("from", |out| json::write_u64(from, out));
            let answer = self.exchange(request)?;
            let job = job_of(answer.job)?;
            let page = answer
                .store
                .ok_or_else(|| ClientError::Malformed("response has no \"store\" field".into()))?;
            entries.extend(page.map_err(|e| failed(&e))?);
            // A daemon from before paging ignores `from` and sends the
            // whole store with no `next`: the same as a last page.
            let next = match answer.next {
                Ok(None) => {
                    let store = OutcomeStore::from_entries(entries).map_err(|e| failed(&e))?;
                    return Ok((job, store));
                }
                // The next page starts where this one ended, and a page
                // that is not the last is never empty.
                Ok(Some(next)) if next == entries.len() as u64 && next > from => continue,
                Ok(Some(next)) => next.to_string(),
                Err(text) => text,
            };
            return Err(failed(&format_args!(
                "the page from entry {from} holds {} entries but names {next} as the next \
                 page's start",
                entries.len() as u64 - from
            )));
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

/// A reply's `job`, which every verb but `hello` and a key-less `status`
/// answers with.
fn job_of(job: Option<Result<JobStatus, String>>) -> Result<JobStatus, ClientError> {
    job.unwrap_or_else(|| Err("response has no \"job\" field".to_string()))
        .map_err(ClientError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{self, soup, truncations};
    use proptest::prelude::*;

    /// Every reply in the transcript reads as what it says it is: a
    /// success with its job, jobs and store whole, or the refusal it
    /// carries.
    #[test]
    fn the_transcript_replies_read_whole() {
        let replies = test_support::members("reply");
        assert!(replies.len() > 80, "{}", replies.len());
        for reply in replies.iter().chain(&test_support::members("now")) {
            match read_reply(reply) {
                Ok(answer) => {
                    let read_whole = answer.job.is_none_or(|job| job.is_ok())
                        && answer.jobs.is_none_or(|jobs| jobs.is_ok())
                        && answer.store.is_none_or(|store| store.is_ok());
                    assert!(read_whole && answer.next.is_ok(), "{reply}");
                }
                Err(ClientError::Server { kind, .. }) => {
                    assert!(crate::ErrorKind::parse(&kind).is_some(), "{reply}")
                }
                Err(other) => panic!("{other} on {reply}"),
            }
        }
    }

    /// Bytes in: every truncation of every transcript reply reads to an
    /// answer or a typed error — never an unwind.
    #[test]
    fn every_truncation_of_a_reply_is_read_or_refused() {
        for reply in test_support::members("reply") {
            for cut in truncations(&reply) {
                let _ = read_reply(cut);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bytes in: arbitrary text, bare and behind a success reply's
        /// opening members, and one byte of a reply changed to any ASCII
        /// byte, read to an answer or a typed error.
        #[test]
        fn arbitrary_reply_text_is_read_or_refused(
            picks in prop::collection::vec(any::<u32>(), 0..24),
            which in any::<u32>(),
            at in any::<u32>(),
            byte in 0u8..128
        ) {
            let replies = test_support::members("reply");
            let text = soup(&picks, &replies);
            let _ = read_reply(&text);
            let _ = read_reply(&format!("{{\"proto\": \"st-serve/v1\", \"ok\": true, \"job\": {text}"));
            let _ = read_reply(&format!("{{\"ok\": true, \"store\": {{\"schema\": \"st-campaign/outcome-store-v2\", \"entries\": [{text}"));
            let mut reply = replies[which as usize % replies.len()].clone().into_bytes();
            let at = at as usize % reply.len();
            if reply[at].is_ascii() {
                reply[at] = byte;
                let _ = read_reply(&String::from_utf8(reply).expect("ASCII for ASCII"));
            }
        }
    }
}
