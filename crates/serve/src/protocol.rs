//! The `st-serve/v1` wire vocabulary and its one text codec: verbs, error
//! kinds, job states, the request reader and reply writer the daemon
//! answers through, the reply reader the client reads through, and the
//! persisted job-spec document.
//!
//! Nothing here builds a [`Json`](st_core::Json) tree. Envelopes are
//! written as text by [`Envelope`] and [`error_reply`], and read in one
//! [`Cursor`] walk under the store reader's conventions: any member order
//! and whitespace, the first occurrence of a member is the one that counts,
//! repeats and unknown members are only checked for syntax, and a syntax
//! error anywhere outranks every other refusal. A `submit`'s entries and a
//! job spec's are decoded where they stand by the store's scenario reader
//! ([`read_scenario`]). The framing lives in [`st_core::frame`] and the
//! human-readable specification in `PROTOCOL.md` at the workspace root,
//! which `server.rs`'s tests hold to the tables here and to the daemon's
//! own answer to its worked example.

use std::borrow::Cow;
use std::fmt;

use st_campaign::store::{read_document, read_scenario, write_scenario};
use st_campaign::{Campaign, Scenario, StoreEntry, StoreError};
use st_core::frame::FrameError;
use st_core::json::{self, Cursor, JsonError};

use crate::client::ClientError;

/// The protocol identifier every request and response carries. A peer
/// speaking any other version is answered with a typed
/// [`ErrorKind::SchemaMismatch`] naming both versions — negotiation is
/// "match exactly or be told what would", never silent coercion.
pub const PROTO: &str = "st-serve/v1";

/// Bound on the entry text of one `fetch-outcomes` page (8 MiB, an eighth
/// of the frame cap): a page ends before the entry that would cross it,
/// and always holds at least one entry.
pub const PAGE_BYTES: usize = 8 * 1024 * 1024;

/// Schema of the `job-<key>.spec.json` documents the daemon persists in
/// its state directory (the durable half of a `submit`).
pub const JOB_SCHEMA: &str = "st-serve/job-v1";

/// Declares a wire vocabulary: a fieldless enum, `ALL` (every value, in
/// documentation order) and the `wire` / `parse` pair between each value
/// and its name, which the table gives once.
macro_rules! vocabulary {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident = $wire:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl $name {
            /// Every value, in documentation order.
            pub const ALL: [$name; [$($wire),*].len()] = [$($name::$variant),*];

            /// The wire name.
            pub fn wire(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)*
                }
            }

            /// Parses a wire name.
            pub fn parse(name: &str) -> Option<$name> {
                $name::ALL.into_iter().find(|v| v.wire() == name)
            }
        }
    };
}

vocabulary! {
    /// Request verbs.
    Verb {
        /// Liveness + version probe; also what clients poll for readiness.
        Hello = "hello",
        /// Enqueue a campaign (idempotent per key; parked jobs requeue).
        Submit = "submit",
        /// Report one job (with `key`) or all jobs (without).
        Status = "status",
        /// Stop a job at its next chunk boundary.
        Cancel = "cancel",
        /// Requeue an interrupted or cancelled job; withdraw a running
        /// job's pending cancel.
        Resume = "resume",
        /// Return the job's outcome store document, whole or (with `from`)
        /// a page of it.
        FetchOutcomes = "fetch-outcomes",
    }
}

vocabulary! {
    /// Typed error kinds an error response carries (`error.kind`).
    ErrorKind {
        /// Backpressure: accepting the campaign would exceed the daemon's
        /// in-flight scenario bound. Retry later.
        Busy = "busy",
        /// A version mismatch: wrong protocol version, or the job's
        /// persisted outcome store was written by a different store schema
        /// (the message carries the store's own `SchemaMismatch` text).
        SchemaMismatch = "schema-mismatch",
        /// The key exists with a *different* campaign spec — the staleness
        /// guard refusing to silently mix two sweeps under one identity.
        SpecMismatch = "spec-mismatch",
        /// The request is not JSON, or is structurally invalid.
        Malformed = "malformed",
        /// The verb is not in [`Verb::ALL`].
        UnknownVerb = "unknown-verb",
        /// No job under the requested key.
        UnknownJob = "unknown-job",
        /// A daemon-side failure (state-directory I/O, corrupt artifacts).
        Internal = "internal",
        /// The response does not fit one frame: a `fetch-outcomes` without
        /// `from` on a store past the frame cap. Ask again page by page.
        TooLarge = "too-large",
    }
}

vocabulary! {
    /// A job's lifecycle state as reported by `status`.
    JobState {
        /// Accepted and waiting for the worker.
        Queued = "queued",
        /// Executing (chunk by chunk, checkpointing after each).
        Running = "running",
        /// Every scenario has an outcome in the job's store.
        Done = "done",
        /// The daemon stopped (crash, restart) with scenarios pending;
        /// `resume` (or an identical re-`submit`) requeues it.
        Interrupted = "interrupted",
        /// Cancelled at a chunk boundary; completed outcomes are kept and a
        /// `resume` continues from them.
        Cancelled = "cancelled",
        /// The persisted store cannot be read (schema mismatch, corruption);
        /// requests against the job surface the stored error text.
        Broken = "broken",
    }
}

/// A refusal: the error kind and message an error reply carries.
pub(crate) type Refusal = (ErrorKind, String);

/// A `malformed` refusal saying `why`.
pub(crate) fn malformed(why: impl Into<String>) -> Refusal {
    (ErrorKind::Malformed, why.into())
}

/// What reading one value answers: `Err` is a syntax error, which outranks
/// every other refusal wherever either sits; `Ok(Err)` is a value that is
/// JSON but not what was asked for, with why.
type Read<T> = Result<Result<T, String>, JsonError>;

// ---------------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------------

/// The one text writer: an envelope — or a `job` or `error` object in one,
/// or a job spec — as canonical text, one member at a time. A request
/// starts with [`request`](Self::request), a success reply with
/// [`ok`](Self::ok), and [`finish`](Self::finish) closes the object.
/// Members are written in call order and every value canonically, so equal
/// envelopes are equal bytes; a `fetch-outcomes` page or a `submit`'s
/// entries are written straight into the envelope, never held as a value.
#[must_use]
pub struct Envelope(String);

impl Envelope {
    fn object() -> Envelope {
        Envelope(String::from("{"))
    }

    /// A request for `verb`: `{"proto", "verb", …`.
    pub fn request(verb: Verb) -> Envelope {
        Envelope::object()
            .string("proto", PROTO)
            .string("verb", verb.wire())
    }

    /// A success reply: `{"proto", "ok": true, …`.
    pub fn ok() -> Envelope {
        Envelope::object()
            .string("proto", PROTO)
            .member("ok", |out| out.push_str("true"))
    }

    /// Appends the member `name`, its value written by `write`.
    pub fn member(mut self, name: &str, write: impl FnOnce(&mut String)) -> Envelope {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        json::write_string(name, &mut self.0);
        self.0.push_str(": ");
        write(&mut self.0);
        self
    }

    /// Appends the string member `name`.
    pub fn string(self, name: &str, value: &str) -> Envelope {
        self.member(name, |out| json::write_string(value, out))
    }

    /// The text, closed.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// An error reply's text:
/// `{"proto", "ok": false, "error": {"kind", "message"}}`.
pub fn error_reply(kind: ErrorKind, message: &str) -> String {
    let error = Envelope::object()
        .string("kind", kind.wire())
        .string("message", message)
        .finish();
    Envelope::object()
        .string("proto", PROTO)
        .member("ok", |out| out.push_str("false"))
        .member("error", |out| out.push_str(&error))
        .finish()
}

/// A job's status, as a reply's `job` object carries it.
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

/// A `job` object's text: `{"key", "state", "total", "completed"}`, with
/// `"error"` last when the job is broken (why).
pub(crate) fn job_object(job: &JobStatus, error: Option<&str>) -> String {
    let object = Envelope::object()
        .string("key", &job.key)
        .string("state", job.state.wire())
        .member("total", |out| json::write_u64(job.total, out))
        .member("completed", |out| json::write_u64(job.completed, out));
    match error {
        Some(error) => object.string("error", error).finish(),
        None => object.finish(),
    }
}

/// Validates a campaign key: 1–100 chars of `[A-Za-z0-9._:-]`, not
/// starting with a dot (keys name files in the state directory).
pub fn validate_key(key: &str) -> Result<(), String> {
    if key.is_empty() || key.len() > 100 {
        return Err(format!(
            "campaign key must be 1–100 characters, got {}",
            key.len()
        ));
    }
    if key.starts_with('.') {
        return Err("campaign key must not start with '.'".to_string());
    }
    if let Some(bad) = key
        .chars()
        .find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | ':' | '-'))
    {
        return Err(format!(
            "campaign key may use [A-Za-z0-9._:-] only, got {bad:?}"
        ));
    }
    Ok(())
}

/// Appends a campaign's `(rank, scenario)` pairs, the `entries` array of
/// a `submit` request and of the persisted job spec:
/// `[{"rank": r, "scenario": s}, …]`, each spec written straight into the
/// text in the store's canonical encoding (so spec equality is byte
/// equality).
pub fn campaign_entries(campaign: &Campaign, out: &mut String) {
    out.push('[');
    for (i, (&rank, scenario)) in campaign
        .ranks()
        .iter()
        .zip(campaign.scenarios())
        .enumerate()
    {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"rank\": ");
        json::write_u64(rank as u64, out);
        out.push_str(", \"scenario\": ");
        write_scenario(scenario, out);
        out.push('}');
    }
    out.push(']');
}

/// The canonical persisted job-spec document's text for a campaign under
/// `key` (schema [`JOB_SCHEMA`]): `{"schema", "key", "entries"}`.
/// Byte-stable: the daemon compares re-submitted specs against these bytes
/// to detect spec drift.
pub fn job_spec(key: &str, campaign: &Campaign) -> String {
    Envelope::object()
        .string("schema", JOB_SCHEMA)
        .string("key", key)
        .member("entries", |out| campaign_entries(campaign, out))
        .finish()
}

// ---------------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------------

/// Walks the JSON document `text`, handing `member` each member of its
/// top-level object (a document that is not an object has none); `Err` is
/// a syntax error anywhere in the text.
fn walk<'a>(
    text: &'a str,
    member: impl FnMut(&str, &mut Cursor<'a>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    let mut cur = Cursor::new(text);
    cur.skip_ws();
    cur.members(member)?;
    cur.finish()
}

/// The string `cur` stands on, or `None` (stepping past) for any other
/// value.
fn string<'a>(cur: &mut Cursor<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if cur.lead()? == b'"' {
        cur.string().map(Some)
    } else {
        cur.skip().map(|()| None)
    }
}

/// The integer `cur` stands on, or `None` (stepping past) for any other
/// value.
fn integer(cur: &mut Cursor<'_>) -> Result<Option<u64>, JsonError> {
    if cur.lead()?.is_ascii_digit() {
        cur.u64().map(Some)
    } else {
        cur.skip().map(|()| None)
    }
}

/// The array `cur` stands on, each element decoded by `each` (handed its
/// index) until the first that does not decode, whose error is the answer;
/// the rest is then only checked for syntax. Any other value is
/// `not_array`.
fn read_array<'a, T>(
    cur: &mut Cursor<'a>,
    not_array: &str,
    mut each: impl FnMut(&mut Cursor<'a>, usize) -> Read<T>,
) -> Read<Vec<T>> {
    if cur.lead()? != b'[' {
        cur.skip()?;
        return Ok(Err(not_array.to_string()));
    }
    let mut items = Ok(Vec::new());
    let mut more = cur.open(b'[')?;
    while more {
        match &mut items {
            Ok(list) => match each(cur, list.len())? {
                Ok(item) => list.push(item),
                Err(why) => items = Err(why),
            },
            Err(_) => cur.skip()?,
        }
        more = cur.more(b']')?;
    }
    Ok(items)
}

/// The `entries` array `cur` stands on (the inverse of
/// [`campaign_entries`]), each scenario decoded where it stands: the
/// `(rank, scenario)` pairs, or why the first entry that does not decode is
/// refused — a missing or non-integer `rank` before a missing or refused
/// `scenario`.
fn read_entries(cur: &mut Cursor<'_>) -> Read<Vec<(usize, Scenario)>> {
    read_array(cur, "\"entries\" must be an array", |cur, i| {
        let (mut rank, mut scenario) = (None, None);
        cur.members(|name, cur| {
            match name {
                "rank" if rank.is_none() => rank = Some(integer(cur)?),
                "scenario" if scenario.is_none() => scenario = Some(read_scenario(cur)?),
                _ => cur.skip()?,
            }
            Ok(())
        })?;
        Ok(match (rank.flatten(), scenario) {
            (None, _) => Err(format!("entries[{i}] has no integer \"rank\"")),
            (Some(_), None) => Err(format!("entries[{i}] has no \"scenario\"")),
            (Some(_), Some(Err(why))) => Err(format!("entries[{i}].scenario: {why}")),
            (Some(rank), Some(Ok(scenario))) => Ok((rank as usize, scenario)),
        })
    })
}

/// A request, as [`read_request`] reads it: its verb and that verb's own
/// fields, already judged.
#[derive(Debug)]
pub enum Request {
    /// `hello`.
    Hello,
    /// `submit`: a valid key and a campaign of at least one scenario.
    Submit {
        /// The campaign key.
        key: String,
        /// The decoded campaign, ranks strictly increasing.
        campaign: Campaign,
    },
    /// `status`: one job's (the key is not validated: an invalid one names
    /// no job) or, without a key, every job's.
    Status {
        /// The job asked about.
        key: Option<String>,
    },
    /// `cancel`.
    Cancel {
        /// The campaign key.
        key: String,
    },
    /// `resume`.
    Resume {
        /// The campaign key.
        key: String,
    },
    /// `fetch-outcomes`: the whole store, or the page from entry `from`.
    FetchOutcomes {
        /// The campaign key.
        key: String,
        /// The first entry of the page asked for.
        from: Option<usize>,
    },
}

/// Reads a request frame's text in one cursor walk, decoding a `submit`'s
/// entries where they stand. The refusal is the first of, in order: a
/// syntax error anywhere in the text; no string `proto`, or another
/// protocol's; no string `verb`, or an unknown one; the verb's own fields
/// (`key`, then `entries` or `from`); the first entry that does not
/// decode; an empty campaign; ranks that do not increase.
pub fn read_request(text: &str) -> Result<Request, Refusal> {
    let (mut proto, mut verb, mut key, mut from, mut entries) = (None, None, None, None, None);
    walk(text, |name, cur| {
        match name {
            "proto" if proto.is_none() => proto = Some(string(cur)?),
            "verb" if verb.is_none() => verb = Some(string(cur)?),
            "key" if key.is_none() => key = Some(string(cur)?),
            "from" if from.is_none() => from = Some(integer(cur)?),
            "entries" if entries.is_none() => entries = Some(read_entries(cur)?),
            _ => cur.skip()?,
        }
        Ok(())
    })
    .map_err(|e| malformed(format!("request is not JSON: {e}")))?;

    let Some(proto) = proto.flatten() else {
        return Err(malformed("request has no \"proto\" field"));
    };
    if proto != PROTO {
        return Err((
            ErrorKind::SchemaMismatch,
            format!("protocol mismatch: peer speaks {proto:?}, this daemon speaks {PROTO:?}"),
        ));
    }
    let Some(name) = verb.flatten() else {
        return Err(malformed("request has no \"verb\" field"));
    };
    let Some(verb) = Verb::parse(&name) else {
        let known: Vec<&str> = Verb::ALL.into_iter().map(Verb::wire).collect();
        return Err((
            ErrorKind::UnknownVerb,
            format!("unknown verb {name:?} (known: {})", known.join(", ")),
        ));
    };
    let required = |key: Option<Option<Cow<'_, str>>>| {
        let key = key
            .flatten()
            .ok_or(malformed("request has no \"key\" field"))?;
        validate_key(&key).map_err(malformed)?;
        Ok(key.into_owned())
    };
    Ok(match verb {
        Verb::Hello => Request::Hello,
        Verb::Submit => {
            let key = required(key)?;
            let entries = entries.ok_or(malformed("submit has no \"entries\" field"))?;
            let entries = entries.map_err(malformed)?;
            if entries.is_empty() {
                return Err(malformed("a campaign needs at least one scenario"));
            }
            let campaign = Campaign::from_ranked(entries).map_err(malformed)?;
            Request::Submit { key, campaign }
        }
        Verb::Status => match key {
            None => Request::Status { key: None },
            Some(Some(key)) => Request::Status {
                key: Some(key.into_owned()),
            },
            Some(None) => return Err(malformed("\"key\" must be a string")),
        },
        Verb::Cancel => Request::Cancel {
            key: required(key)?,
        },
        Verb::Resume => Request::Resume {
            key: required(key)?,
        },
        Verb::FetchOutcomes => {
            let key = required(key)?;
            let from = match from {
                None => None,
                Some(from) => Some(
                    from.and_then(|from| usize::try_from(from).ok())
                        .ok_or_else(|| malformed("\"from\" must be an entry index"))?,
                ),
            };
            Request::FetchOutcomes { key, from }
        }
    })
}

/// Reads a job-spec document (the inverse of [`job_spec`]) in one walk,
/// its entries through the reader a `submit` is read with: the key and the
/// campaign, or why the file is not a spec this build runs —
/// `schema-mismatch` for another job schema, `internal` for anything else.
pub(crate) fn read_job_spec(text: &str) -> Result<(String, Campaign), Refusal> {
    let internal = |why: String| (ErrorKind::Internal, why);
    let (mut schema, mut key, mut entries) = (None, None, None);
    walk(text, |name, cur| {
        match name {
            "schema" if schema.is_none() => schema = Some(string(cur)?),
            "key" if key.is_none() => key = Some(string(cur)?),
            "entries" if entries.is_none() => entries = Some(read_entries(cur)?),
            _ => cur.skip()?,
        }
        Ok(())
    })
    .map_err(|e| internal(e.to_string()))?;
    let schema = schema.flatten().unwrap_or_default();
    if schema != JOB_SCHEMA {
        return Err((
            ErrorKind::SchemaMismatch,
            format!(
                "job spec schema mismatch: file has {schema:?}, this build reads {JOB_SCHEMA:?}"
            ),
        ));
    }
    let campaign = || {
        let key = key.flatten().ok_or("job spec has no \"key\"")?.into_owned();
        validate_key(&key)?;
        let entries = entries.ok_or("job spec has no \"entries\"")??;
        Ok((key, Campaign::from_ranked(entries)?))
    };
    campaign().map_err(internal)
}

/// What a success reply carries, each member as its first occurrence reads.
pub(crate) struct Answer {
    /// `job`: absent, or the job or why it is not one.
    pub(crate) job: Option<Result<JobStatus, String>>,
    /// `jobs`: absent, or every job or why one of them is not one.
    pub(crate) jobs: Option<Result<Vec<JobStatus>, String>>,
    /// `next`: absent or `null` (`Ok(None)`), an index, or the canonical
    /// text of any other value.
    pub(crate) next: Result<Option<u64>, String>,
    /// `store`: absent, or the store document's entries as
    /// [`read_document`] answers them.
    pub(crate) store: Option<Result<Vec<StoreEntry>, StoreError>>,
}

/// Reads a reply frame's text in one cursor walk: the success reply's
/// members, or the typed error the reply is — a syntax error, a reply that
/// is not an envelope (no boolean `ok`, an error without its kind and
/// message), or the daemon's refusal. The `store` member is decoded an
/// entry at a time where it stands; whether the verb asked needed `job` or
/// `jobs` is the caller's to judge.
pub(crate) fn read_reply(text: &str) -> Result<Answer, ClientError> {
    let (mut ok, mut error, mut job, mut jobs, mut next, mut store) =
        (None, None, None, None, None, None);
    walk(text, |name, cur| {
        match name {
            "ok" if ok.is_none() => {
                // `skip` checks the literal its lead names.
                let lead = cur.lead()?;
                cur.skip()?;
                ok = Some(matches!(lead, b't' | b'f').then_some(lead == b't'));
            }
            "error" if error.is_none() => {
                let (mut kind, mut message) = (None, None);
                cur.members(|name, cur| {
                    match name {
                        "kind" if kind.is_none() => kind = Some(string(cur)?),
                        "message" if message.is_none() => message = Some(string(cur)?),
                        _ => cur.skip()?,
                    }
                    Ok(())
                })?;
                error = Some((kind.flatten(), message.flatten()));
            }
            "job" if job.is_none() => job = Some(read_job(cur)?),
            "jobs" if jobs.is_none() => {
                let not_array = "response has no \"jobs\" array";
                jobs = Some(read_array(cur, not_array, |cur, _| read_job(cur))?);
            }
            "next" if next.is_none() => {
                next = Some(match cur.lead()? {
                    b'0'..=b'9' => Ok(Some(cur.u64()?)),
                    b'n' => cur.skip().map(|()| Ok(None))?,
                    _ => Err(cur.copy()?.into_owned()),
                })
            }
            "store" if store.is_none() => store = Some(read_document(cur)?),
            _ => cur.skip()?,
        }
        Ok(())
    })
    .map_err(|e| ClientError::Frame(FrameError::Json(e)))?;
    let malformed = |why: &str| ClientError::Malformed(why.to_string());
    match (ok.flatten(), error) {
        (Some(true), _) => Ok(Answer {
            job,
            jobs,
            next: next.unwrap_or(Ok(None)),
            store,
        }),
        (Some(false), Some((Some(kind), Some(message)))) => Err(ClientError::Server {
            kind: kind.into_owned(),
            message: message.into_owned(),
        }),
        (Some(false), _) => Err(malformed("error has no string \"kind\" and \"message\"")),
        (None, _) => Err(malformed("response has no \"ok\" field")),
    }
}

/// The `job` object `cur` stands on (the inverse of [`write_job`]; an
/// `error` member is not kept): the job, or the first member, in written
/// order, that is missing or of the wrong type.
fn read_job(cur: &mut Cursor<'_>) -> Read<JobStatus> {
    let (mut key, mut state, mut total, mut completed) = (None, None, None, None);
    cur.members(|name, cur| {
        match name {
            "key" if key.is_none() => key = Some(string(cur)?),
            "state" if state.is_none() => state = Some(string(cur)?),
            "total" if total.is_none() => total = Some(integer(cur)?),
            "completed" if completed.is_none() => completed = Some(integer(cur)?),
            _ => cur.skip()?,
        }
        Ok(())
    })?;
    let missing = |what: &str| format!("job has no {what}");
    let read = || {
        let key = key.flatten().ok_or_else(|| missing("string \"key\""))?;
        let state = state.flatten().ok_or_else(|| missing("string \"state\""))?;
        let state =
            JobState::parse(&state).ok_or_else(|| format!("unknown job state {state:?}"))?;
        let total = total
            .flatten()
            .ok_or_else(|| missing("integer \"total\""))?;
        let completed = completed
            .flatten()
            .ok_or_else(|| missing("integer \"completed\""))?;
        Ok(JobStatus {
            key: key.into_owned(),
            state,
            total,
            completed,
        })
    };
    Ok(read())
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Json;

    #[test]
    fn verbs_round_trip_their_wire_names() {
        for v in Verb::ALL {
            assert_eq!(Verb::parse(v.wire()), Some(v));
        }
        assert_eq!(Verb::parse("fetch"), None);
    }

    #[test]
    fn error_kinds_and_job_states_round_trip() {
        for k in ErrorKind::ALL {
            assert_eq!(ErrorKind::parse(k.wire()), Some(k));
        }
        for s in JobState::ALL {
            assert_eq!(JobState::parse(s.wire()), Some(s));
        }
    }

    #[test]
    fn envelopes_have_the_documented_shape() {
        let req = Envelope::request(Verb::Status).string("key", "e3").finish();
        assert_eq!(
            req,
            r#"{"proto": "st-serve/v1", "verb": "status", "key": "e3"}"#
        );
        let ok = Envelope::ok().member("jobs", |out| out.push_str("[]"));
        let ok = ok.finish();
        assert_eq!(ok, r#"{"proto": "st-serve/v1", "ok": true, "jobs": []}"#);
        let err = error_reply(ErrorKind::Busy, "at \"capacity\"\n");
        assert_eq!(
            err,
            r#"{"proto": "st-serve/v1", "ok": false, "error": {"kind": "busy", "message": "at \"capacity\"\n"}}"#
        );
        let job = JobStatus {
            key: "e3".to_string(),
            state: JobState::Broken,
            total: 6,
            completed: 2,
        };
        let text = job_object(&job, Some("damaged"));
        assert_eq!(
            text,
            r#"{"key": "e3", "state": "broken", "total": 6, "completed": 2, "error": "damaged"}"#
        );
        // Written canonically: what the parser reads back, it writes again.
        for text in [req, ok, err, text] {
            assert_eq!(Json::parse(&text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn keys_are_validated() {
        assert!(validate_key("e3").is_ok());
        assert!(validate_key("scenario:crash-recovery_2.1").is_ok());
        assert!(validate_key("").is_err());
        assert!(validate_key(".hidden").is_err());
        assert!(validate_key("a/b").is_err());
        assert!(validate_key(&"k".repeat(101)).is_err());
    }
}
