//! The `st-serve/v1` wire vocabulary: verbs, error kinds, job states, the
//! request/response envelopes, and the persisted job-spec document.
//!
//! Everything here is plain data over [`st_core::Json`]; the framing lives
//! in [`st_core::frame`] and the human-readable specification in
//! `PROTOCOL.md` at the workspace root (CI greps the two against each
//! other — see `scripts/check_protocol_doc.sh`).

use st_campaign::store::write_scenario;
use st_campaign::{store, Campaign, Scenario};
use st_core::{json, Json};

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

/// Request verbs.
// PROTOCOL-VERBS: hello submit status cancel resume fetch-outcomes
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verb {
    /// Liveness + version probe; also what clients poll for readiness.
    Hello,
    /// Enqueue a campaign (idempotent per key; parked jobs requeue).
    Submit,
    /// Report one job (with `key`) or all jobs (without).
    Status,
    /// Stop a job at its next chunk boundary.
    Cancel,
    /// Requeue an interrupted or cancelled job.
    Resume,
    /// Return the job's outcome store document, whole or (with `from`) a
    /// page of it.
    FetchOutcomes,
}

impl Verb {
    /// Every verb, in documentation order.
    pub const ALL: [Verb; 6] = [
        Verb::Hello,
        Verb::Submit,
        Verb::Status,
        Verb::Cancel,
        Verb::Resume,
        Verb::FetchOutcomes,
    ];

    /// The verb's wire name.
    pub fn wire(self) -> &'static str {
        match self {
            Verb::Hello => "hello",
            Verb::Submit => "submit",
            Verb::Status => "status",
            Verb::Cancel => "cancel",
            Verb::Resume => "resume",
            Verb::FetchOutcomes => "fetch-outcomes",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.wire() == name)
    }
}

/// Typed error kinds an error response carries (`error.kind`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// Backpressure: accepting the campaign would exceed the daemon's
    /// in-flight scenario bound. Retry later.
    Busy,
    /// A version mismatch: wrong protocol version, or the job's persisted
    /// outcome store was written by a different store schema (the message
    /// carries the store's own `SchemaMismatch` text).
    SchemaMismatch,
    /// The key exists with a *different* campaign spec — the staleness
    /// guard refusing to silently mix two sweeps under one identity.
    SpecMismatch,
    /// The request document is structurally invalid.
    Malformed,
    /// The verb is not in [`Verb::ALL`].
    UnknownVerb,
    /// No job under the requested key.
    UnknownJob,
    /// A daemon-side failure (state-directory I/O, corrupt artifacts).
    Internal,
    /// The response does not fit one frame: a `fetch-outcomes` without
    /// `from` on a store past the frame cap. Ask again page by page.
    TooLarge,
}

impl ErrorKind {
    /// Every kind, in documentation order.
    pub const ALL: [ErrorKind; 8] = [
        ErrorKind::Busy,
        ErrorKind::SchemaMismatch,
        ErrorKind::SpecMismatch,
        ErrorKind::Malformed,
        ErrorKind::UnknownVerb,
        ErrorKind::UnknownJob,
        ErrorKind::Internal,
        ErrorKind::TooLarge,
    ];

    /// The kind's wire name.
    pub fn wire(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::SchemaMismatch => "schema-mismatch",
            ErrorKind::SpecMismatch => "spec-mismatch",
            ErrorKind::Malformed => "malformed",
            ErrorKind::UnknownVerb => "unknown-verb",
            ErrorKind::UnknownJob => "unknown-job",
            ErrorKind::Internal => "internal",
            ErrorKind::TooLarge => "too-large",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.wire() == name)
    }
}

/// A job's lifecycle state as reported by `status`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Accepted and waiting for the worker.
    Queued,
    /// Executing (chunk by chunk, checkpointing after each).
    Running,
    /// Every scenario has an outcome in the job's store.
    Done,
    /// The daemon stopped (crash, restart) with scenarios pending;
    /// `resume` (or an identical re-`submit`) requeues it.
    Interrupted,
    /// Cancelled at a chunk boundary; completed outcomes are kept and a
    /// `resume` continues from them.
    Cancelled,
    /// The persisted store cannot be read (schema mismatch, corruption);
    /// requests against the job surface the stored error text.
    Broken,
}

impl JobState {
    /// The state's wire name.
    pub fn wire(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Interrupted => "interrupted",
            JobState::Cancelled => "cancelled",
            JobState::Broken => "broken",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<JobState> {
        [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Interrupted,
            JobState::Cancelled,
            JobState::Broken,
        ]
        .into_iter()
        .find(|s| s.wire() == name)
    }
}

/// Builds a request envelope: `{"proto", "verb", <fields>}`.
pub fn request(verb: Verb, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut members = vec![
        ("proto".to_string(), Json::str(PROTO)),
        ("verb".to_string(), Json::str(verb.wire())),
    ];
    members.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(members)
}

/// Builds a success envelope: `{"proto", "ok": true, <fields>}`.
pub fn ok_response(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut members = vec![
        ("proto".to_string(), Json::str(PROTO)),
        ("ok".to_string(), Json::Bool(true)),
    ];
    members.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(members)
}

/// An envelope's text, its own members and then whatever `tail` appends
/// (`, "name": value` members, in canonical JSON): how a `fetch-outcomes`
/// reply carries a store page, and a `submit` request a campaign's
/// entries, without either ever being a [`Json`] value. The bytes are those
/// the envelope would serialize to with the tail's members as further
/// fields.
pub fn text_with(envelope: &Json, tail: impl FnOnce(&mut String)) -> String {
    let mut text = envelope.to_string();
    let close = text.pop();
    debug_assert_eq!(close, Some('}'), "an envelope is an object");
    tail(&mut text);
    text.push('}');
    text
}

/// Builds an error envelope:
/// `{"proto", "ok": false, "error": {"kind", "message"}}`.
pub fn error_response(kind: ErrorKind, message: impl Into<String>) -> Json {
    Json::obj([
        ("proto", Json::str(PROTO)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::str(kind.wire())),
                ("message", Json::str(message.into())),
            ]),
        ),
    ])
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

/// Decodes an `entries` array (from a `submit` request or a persisted job
/// spec) back into `(rank, scenario)` pairs.
pub fn decode_entries(entries: &Json) -> Result<Vec<(usize, Scenario)>, String> {
    let items = entries
        .as_arr()
        .ok_or_else(|| "\"entries\" must be an array".to_string())?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let rank = item
            .get("rank")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("entries[{i}] has no integer \"rank\""))?;
        let scenario = item
            .get("scenario")
            .ok_or_else(|| format!("entries[{i}] has no \"scenario\""))?;
        let scenario =
            store::decode_scenario(scenario).map_err(|e| format!("entries[{i}].scenario: {e}"))?;
        out.push((rank as usize, scenario));
    }
    Ok(out)
}

/// The canonical persisted job-spec document's text for a campaign under
/// `key` (schema [`JOB_SCHEMA`]). Byte-stable: the daemon compares
/// re-submitted specs against these bytes to detect spec drift.
pub fn job_spec(key: &str, campaign: &Campaign) -> String {
    let envelope = Json::obj([("schema", Json::str(JOB_SCHEMA)), ("key", Json::str(key))]);
    text_with(&envelope, |out| {
        out.push_str(", \"entries\": ");
        campaign_entries(campaign, out);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for s in [
            "queued",
            "running",
            "done",
            "interrupted",
            "cancelled",
            "broken",
        ] {
            assert_eq!(JobState::parse(s).map(JobState::wire), Some(s));
        }
    }

    /// The `PROTOCOL-VERBS` marker comment above [`Verb`] is what the CI
    /// doc-freshness script greps; this pins it to the enum itself so the
    /// marker cannot rot either.
    #[test]
    fn protocol_verbs_marker_matches_the_enum() {
        let source = include_str!("protocol.rs");
        let marker = source
            .lines()
            .find_map(|l| l.trim().strip_prefix("// PROTOCOL-VERBS:"))
            .expect("marker comment present");
        let listed: Vec<&str> = marker.split_whitespace().collect();
        let actual: Vec<&str> = Verb::ALL.into_iter().map(Verb::wire).collect();
        assert_eq!(listed, actual);
    }

    #[test]
    fn envelopes_have_the_documented_shape() {
        let req = request(Verb::Status, [("key", Json::str("e3"))]);
        assert_eq!(req.get("proto").and_then(Json::as_str), Some(PROTO));
        assert_eq!(req.get("verb").and_then(Json::as_str), Some("status"));
        assert_eq!(req.get("key").and_then(Json::as_str), Some("e3"));

        let ok = ok_response([("jobs", Json::arr([]))]);
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

        let err = error_response(ErrorKind::Busy, "at capacity");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        let e = err.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("busy"));
        assert_eq!(e.get("message").and_then(Json::as_str), Some("at capacity"));
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
