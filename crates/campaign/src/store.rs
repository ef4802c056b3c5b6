//! The outcome store: campaign results on disk, versioned and resumable.
//!
//! An [`OutcomeStore`] is the persistence half of the campaign engine: a
//! flat list of `(campaign key, rank, serialized scenario spec, outcome)`
//! entries in the workspace's hand-rolled canonical JSON
//! ([`st_core::json`], the same offline-shim-compatible dialect as
//! `BENCH_timeliness.json`). The format is versioned by the [`SCHEMA`]
//! string; loading any other version is a typed
//! [`StoreError::SchemaMismatch`], never a panic or a silent partial
//! resume.
//!
//! # The resume lifecycle
//!
//! 1. A sweep runs with a store attached
//!    ([`Campaign::run_resumed`](crate::Campaign::run_resumed) with
//!    `record`): every outcome is recorded with its rank and its serialized
//!    scenario spec, and the store is [`save`](OutcomeStore::save)d.
//! 2. The sweep is interrupted (or deliberately
//!    [`retain`](crate::Campaign::retain)-filtered); the store holds the
//!    completed prefix-or-subset.
//! 3. A later run [`load`](OutcomeStore::load)s the store and passes it as
//!    `resume`: [`skip_completed`](crate::Campaign::skip_completed) reuses
//!    an entry only when campaign key, rank, **and the serialized spec**
//!    all match, so stale stores (edited grids, changed budgets or seeds)
//!    silently fall back to re-running the scenario.
//! 4. Reused and fresh outcomes merge in rank order: the outcome list —
//!    and the store the resumed run writes — is **byte-identical** to an
//!    uninterrupted run's, at any worker count (differential- and
//!    property-tested in `tests/resume.rs`).
//!
//! Canonical writing makes the byte-identity possible: object members keep
//! insertion order, every number is an exact `u64`, and entries are written
//! one per line in recording order (campaign key by campaign key, rank
//! ascending within each).

use std::fmt;
use std::path::Path;

use st_core::{Json, JsonError, ProcSet, ProcessId};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, GeneratorSpec};
use st_sim::RunStatus;

use crate::invariant::InvariantViolation;
use crate::scenario::{
    AdversarialOutcome, AgreementScenarioOutcome, BgOutcome, CertifyTimely, FdAbi, FdDetector,
    FdOutcome, FleetReplayDrive, LeanOutcome, LeanStabilization, OutcomeData, Scenario,
    ScenarioOutcome, StopRule, WideFdOutcome, WideFdStabilization, Workload,
};

/// The on-disk schema this build writes and accepts. v2 added the
/// invariant-checker fields (`violations`, `counterexample`) to every
/// outcome and the fault-decorator generator kinds.
pub const SCHEMA: &str = "st-campaign/outcome-store-v2";

/// Why a store failed to load or parse.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not valid JSON (with the byte offset of the failure).
    Json(JsonError),
    /// The document parsed but is not a well-formed store.
    Malformed(String),
    /// The store was written by a different schema version. Resuming from
    /// it is refused outright — a partial reuse across versions could
    /// silently mix incompatible outcomes.
    SchemaMismatch {
        /// The `"schema"` string found in the file.
        found: String,
        /// The version this build writes ([`SCHEMA`]).
        expected: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "outcome store I/O error: {e}"),
            StoreError::Json(e) => write!(f, "outcome store is not valid JSON: {e}"),
            StoreError::Malformed(m) => write!(f, "outcome store is malformed: {m}"),
            StoreError::SchemaMismatch { found, expected } => write!(
                f,
                "outcome store schema mismatch: file has {found:?}, this build reads {expected:?} \
                 — rerun without --resume (or regenerate the store)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<JsonError> for StoreError {
    fn from(e: JsonError) -> Self {
        StoreError::Json(e)
    }
}

/// One recorded result: which campaign, which rank, exactly which scenario
/// (as its canonical serialization), and what it produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoreEntry {
    /// The campaign key the recording run used (e.g. the experiment id).
    pub campaign: String,
    /// The scenario's permanent rank in that campaign.
    pub rank: usize,
    /// The scenario spec, serialized canonically at recording time.
    scenario: Json,
    /// The outcome.
    pub outcome: ScenarioOutcome,
}

impl StoreEntry {
    /// The store's canonical order: campaign key, then rank.
    fn sort_key(&self) -> (&str, usize) {
        (self.campaign.as_str(), self.rank)
    }

    /// Appends the entry as the one-line JSON object a store file holds
    /// for it (no separator, no newline). This is the only entry encoder:
    /// store files and `st-serve`'s segment log are both made of these
    /// lines, which is what lets a log be compacted into a store without
    /// changing a byte of any entry.
    pub fn write_json_line(&self, out: &mut String) {
        let obj = Json::obj([
            ("campaign", Json::str(self.campaign.clone())),
            ("rank", Json::U64(self.rank as u64)),
            ("scenario", self.scenario.clone()),
            ("outcome", encode_outcome(&self.outcome)),
        ]);
        out.push_str(&obj.to_string());
    }

    /// Decodes one entry object (the inverse of
    /// [`write_json_line`](Self::write_json_line) after `Json::parse`).
    fn from_json(e: &Json) -> DecodeResult<StoreEntry> {
        let campaign = str_field(e, "campaign")?.to_string();
        let rank = usize_field(e, "rank")?;
        let scenario = field(e, "scenario")?.clone();
        let outcome = decode_outcome(field(e, "outcome")?)?;
        if outcome.rank != rank {
            return Err(format!(
                "entry rank {rank} disagrees with outcome rank {}",
                outcome.rank
            ));
        }
        Ok(StoreEntry {
            campaign,
            rank,
            scenario,
            outcome,
        })
    }
}

/// A persistable, resumable collection of campaign outcomes. See the
/// module docs for the lifecycle and the [`SCHEMA`] versioning rule.
#[derive(Clone, Default, Debug)]
pub struct OutcomeStore {
    entries: Vec<StoreEntry>,
}

impl OutcomeStore {
    /// An empty store.
    pub fn new() -> Self {
        OutcomeStore::default()
    }

    /// Number of recorded outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in recording order.
    pub fn entries(&self) -> &[StoreEntry] {
        &self.entries
    }

    /// Records one outcome under `key`, keyed by the outcome's rank and the
    /// scenario's canonical serialization. Re-recording the same
    /// `(key, rank)` replaces the entry; new entries are inserted in
    /// `(campaign, rank)` order, so a store's bytes depend only on its
    /// *contents*, never on the order outcomes were recorded in — merging
    /// a resumed run's entries into a seeded store reproduces the
    /// uninterrupted store byte for byte.
    pub fn record(&mut self, key: &str, scenario: &Scenario, outcome: &ScenarioOutcome) {
        let entry = StoreEntry {
            campaign: key.to_string(),
            rank: outcome.rank,
            scenario: encode_scenario(scenario),
            outcome: outcome.clone(),
        };
        let probe = self
            .entries
            .binary_search_by(|e| e.sort_key().cmp(&(key, outcome.rank)));
        match probe {
            Ok(idx) => self.entries[idx] = entry,
            Err(idx) => self.entries.insert(idx, entry),
        }
    }

    /// The stored outcome for `(key, rank)`, **only** if the stored
    /// scenario spec is byte-identical to `scenario`'s canonical
    /// serialization — the staleness guard resumption relies on.
    pub fn lookup(&self, key: &str, rank: usize, scenario: &Scenario) -> Option<ScenarioOutcome> {
        let entry = self.entry(key, rank)?;
        if entry.scenario == encode_scenario(scenario) {
            Some(entry.outcome.clone())
        } else {
            None
        }
    }

    /// The entry recorded under `(key, rank)`, if any: a binary search,
    /// since every constructor keeps the entries in `(campaign, rank)`
    /// order.
    pub fn entry(&self, key: &str, rank: usize) -> Option<&StoreEntry> {
        self.entries
            .binary_search_by(|e| e.sort_key().cmp(&(key, rank)))
            .ok()
            .map(|idx| &self.entries[idx])
    }

    /// Keeps only the entries for which `pred` holds (maintenance:
    /// truncating a store to simulate an interrupt, dropping a stale
    /// campaign, …).
    pub fn retain(&mut self, mut pred: impl FnMut(usize, &StoreEntry) -> bool) {
        let mut idx = 0usize;
        self.entries.retain(|e| {
            let keep = pred(idx, e);
            idx += 1;
            keep
        });
    }

    /// Serializes the whole store canonically: schema header, then one
    /// entry per line ([`StoreEntry::write_json_line`]) in
    /// `(campaign, rank)` order.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("\"schema\": {},\n", Json::str(SCHEMA)));
        out.push_str("\"entries\": [");
        for (i, entry) in self.entries.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            entry.write_json_line(&mut out);
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Parses a store document, verifying the schema version first.
    pub fn from_json_str(text: &str) -> Result<Self, StoreError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Decodes an already-parsed store document (a fetched wire frame, a
    /// replayed segment log), verifying the schema version first.
    pub fn from_json(doc: &Json) -> Result<Self, StoreError> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| StoreError::Malformed("missing \"schema\" string".into()))?;
        if schema != SCHEMA {
            return Err(StoreError::SchemaMismatch {
                found: schema.to_string(),
                expected: SCHEMA,
            });
        }
        let raw = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| StoreError::Malformed("missing \"entries\" array".into()))?;
        let mut entries = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            let entry = StoreEntry::from_json(e)
                .map_err(|m| StoreError::Malformed(format!("entry {i}: {m}")))?;
            entries.push(entry);
        }
        // Canonical order regardless of file order (writer-produced files
        // are already sorted; hand-reordered ones are re-canonicalized so
        // `record`'s sorted insertion stays valid). Duplicate keys would
        // make lookups ambiguous — reject them.
        entries.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        if let Some(w) = entries
            .windows(2)
            .find(|w| w[0].sort_key() == w[1].sort_key())
        {
            return Err(StoreError::Malformed(format!(
                "duplicate entries for campaign {:?} rank {}",
                w[0].campaign, w[0].rank
            )));
        }
        debug_assert!(entries
            .windows(2)
            .all(|w| w[0].sort_key() < w[1].sort_key()));
        Ok(OutcomeStore { entries })
    }

    /// Loads a store file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json_str(&text)
    }

    /// Writes the store file ([`to_json_string`](Self::to_json_string)).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_json_string())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scenario / spec encoding (canonical; the staleness-guard comparison key).
// ---------------------------------------------------------------------------

fn bits(set: ProcSet) -> Json {
    Json::U64(set.bits())
}

fn opt_bits(set: &Option<ProcSet>) -> Json {
    match set {
        Some(s) => bits(*s),
        None => Json::Null,
    }
}

fn pid(p: ProcessId) -> Json {
    Json::U64(p.index() as u64)
}

fn policy_name(policy: TimeoutPolicy) -> Json {
    Json::str(match policy {
        TimeoutPolicy::Increment => "Increment",
        TimeoutPolicy::Double => "Double",
    })
}

fn crash_plan(plan: &CrashPlan) -> Json {
    Json::arr(
        plan.entries()
            .map(|(p, step)| Json::arr([pid(p), Json::U64(step)])),
    )
}

fn encode_generator(spec: &GeneratorSpec) -> Json {
    match spec {
        GeneratorSpec::RoundRobin { over } => {
            Json::obj([("kind", Json::str("RoundRobin")), ("over", opt_bits(over))])
        }
        GeneratorSpec::Bursty { burst } => {
            Json::obj([("kind", Json::str("Bursty")), ("burst", Json::U64(*burst))])
        }
        GeneratorSpec::SeededRandom {
            over,
            seed_offset,
            weights,
        } => Json::obj([
            ("kind", Json::str("SeededRandom")),
            ("over", opt_bits(over)),
            ("seed_offset", Json::U64(*seed_offset)),
            (
                "weights",
                match weights {
                    Some(w) => Json::arr(w.iter().map(|&x| Json::U64(x as u64))),
                    None => Json::Null,
                },
            ),
        ]),
        GeneratorSpec::SetTimely {
            p,
            q,
            bound,
            filler,
            crashes,
        } => Json::obj([
            ("kind", Json::str("SetTimely")),
            ("p", bits(*p)),
            ("q", bits(*q)),
            ("bound", Json::U64(*bound as u64)),
            ("filler", encode_generator(filler)),
            ("crashes", crash_plan(crashes)),
        ]),
        GeneratorSpec::Eventually {
            prefix,
            prefix_len,
            body,
        } => Json::obj([
            ("kind", Json::str("Eventually")),
            ("prefix", encode_generator(prefix)),
            ("prefix_len", Json::U64(*prefix_len)),
            ("body", encode_generator(body)),
        ]),
        GeneratorSpec::Figure1 { p1, p2, q } => Json::obj([
            ("kind", Json::str("Figure1")),
            ("p1", pid(*p1)),
            ("p2", pid(*p2)),
            ("q", pid(*q)),
        ]),
        GeneratorSpec::GeneralizedFigure1 { p, q } => Json::obj([
            ("kind", Json::str("GeneralizedFigure1")),
            ("p", bits(*p)),
            ("q", bits(*q)),
        ]),
        GeneratorSpec::RotatingStarvation { k, base } => Json::obj([
            ("kind", Json::str("RotatingStarvation")),
            ("k", Json::U64(*k as u64)),
            ("base", Json::U64(*base)),
        ]),
        GeneratorSpec::FictitiousCrash { i, j, t, k, base } => Json::obj([
            ("kind", Json::str("FictitiousCrash")),
            ("i", Json::U64(*i as u64)),
            ("j", Json::U64(*j as u64)),
            ("t", Json::U64(*t as u64)),
            ("k", Json::U64(*k as u64)),
            ("base", Json::U64(*base)),
        ]),
        GeneratorSpec::Cycle { period } => Json::obj([
            ("kind", Json::str("Cycle")),
            (
                "period",
                Json::arr(period.iter().map(|p| Json::U64(p.index() as u64))),
            ),
        ]),
        GeneratorSpec::AlternatingRotation { groups, base } => Json::obj([
            ("kind", Json::str("AlternatingRotation")),
            ("groups", Json::arr(groups.iter().map(|g| bits(*g)))),
            ("base", Json::U64(*base)),
        ]),
        GeneratorSpec::CrashAfter { inner, plan } => Json::obj([
            ("kind", Json::str("CrashAfter")),
            ("inner", encode_generator(inner)),
            ("plan", crash_plan(plan)),
        ]),
        GeneratorSpec::Flapping {
            p,
            q,
            bound,
            filler,
            timely_dwell,
            untimely_dwell,
            seed_offset,
        } => Json::obj([
            ("kind", Json::str("Flapping")),
            ("p", bits(*p)),
            ("q", bits(*q)),
            ("bound", Json::U64(*bound as u64)),
            ("filler", encode_generator(filler)),
            ("timely_dwell", range(*timely_dwell)),
            ("untimely_dwell", range(*untimely_dwell)),
            ("seed_offset", Json::U64(*seed_offset)),
        ]),
        GeneratorSpec::GrayFailure {
            inner,
            gray,
            stretch,
            seed_offset,
        } => Json::obj([
            ("kind", Json::str("GrayFailure")),
            ("inner", encode_generator(inner)),
            ("gray", bits(*gray)),
            ("stretch", Json::U64(*stretch)),
            ("seed_offset", Json::U64(*seed_offset)),
        ]),
        GeneratorSpec::BurstClog {
            inner,
            clogger,
            window,
            gap,
            seed_offset,
        } => Json::obj([
            ("kind", Json::str("BurstClog")),
            ("inner", encode_generator(inner)),
            ("clogger", pid(*clogger)),
            ("window", Json::U64(*window)),
            ("gap", range(*gap)),
            ("seed_offset", Json::U64(*seed_offset)),
        ]),
        GeneratorSpec::CrashRecovery {
            inner,
            victim,
            crash,
            rejoin,
        } => Json::obj([
            ("kind", Json::str("CrashRecovery")),
            ("inner", encode_generator(inner)),
            ("victim", pid(*victim)),
            ("crash", Json::U64(*crash)),
            ("rejoin", Json::U64(*rejoin)),
        ]),
        GeneratorSpec::Replay { of, schedule } => Json::obj([
            ("kind", Json::str("Replay")),
            ("of", encode_generator(of)),
            (
                "schedule",
                Json::arr(schedule.iter().map(|p| Json::U64(p.index() as u64))),
            ),
        ]),
    }
}

fn range((lo, hi): (u64, u64)) -> Json {
    Json::arr([Json::U64(lo), Json::U64(hi)])
}

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(x) => Json::U64(x),
        None => Json::Null,
    }
}

fn values(vs: &[st_core::Value]) -> Json {
    Json::arr(vs.iter().map(|&v| Json::U64(v)))
}

fn opt_values(vs: &[Option<st_core::Value>]) -> Json {
    Json::arr(vs.iter().map(|v| opt_u64(*v)))
}

fn encode_workload(w: &Workload) -> Json {
    match w {
        Workload::FdConvergence {
            k,
            t,
            policy,
            abi,
            detector,
            certify_membership,
        } => Json::obj([
            ("kind", Json::str("FdConvergence")),
            ("k", Json::U64(*k as u64)),
            ("t", Json::U64(*t as u64)),
            ("policy", policy_name(*policy)),
            (
                "abi",
                Json::str(match abi {
                    FdAbi::Async => "Async",
                    FdAbi::MachineSlot => "MachineSlot",
                    FdAbi::MachineFleet => "MachineFleet",
                }),
            ),
            (
                "detector",
                Json::str(match detector {
                    FdDetector::SetBased => "SetBased",
                    FdDetector::ProcessBased => "ProcessBased",
                }),
            ),
            ("certify_membership", Json::Bool(*certify_membership)),
        ]),
        Workload::Agreement {
            t,
            k,
            inputs,
            policy,
            certify,
        } => Json::obj([
            ("kind", Json::str("Agreement")),
            ("t", Json::U64(*t as u64)),
            ("k", Json::U64(*k as u64)),
            ("inputs", values(inputs)),
            ("policy", policy_name(*policy)),
            (
                "certify",
                match certify {
                    Some(c) => Json::obj([
                        ("i", Json::U64(c.i as u64)),
                        ("j", Json::U64(c.j as u64)),
                        ("cap", Json::U64(c.cap as u64)),
                        ("prefix_len", Json::U64(c.prefix_len)),
                    ]),
                    None => Json::Null,
                },
            ),
        ]),
        Workload::AdversarialAgreement {
            t,
            k,
            inputs,
            policy,
            precrashed,
            witness,
        } => Json::obj([
            ("kind", Json::str("AdversarialAgreement")),
            ("t", Json::U64(*t as u64)),
            ("k", Json::U64(*k as u64)),
            ("inputs", values(inputs)),
            ("policy", policy_name(*policy)),
            ("precrashed", bits(*precrashed)),
            (
                "witness",
                match witness {
                    Some((p, q)) => Json::obj([("p", bits(*p)), ("q", bits(*q))]),
                    None => Json::Null,
                },
            ),
        ]),
        Workload::BgReduction {
            n_sim,
            k,
            max_reads,
        } => Json::obj([
            ("kind", Json::str("BgReduction")),
            ("n_sim", Json::U64(*n_sim as u64)),
            ("k", Json::U64(*k as u64)),
            ("max_reads", Json::U64(*max_reads as u64)),
        ]),
        Workload::LeanConvergence { t, policy, drive } => Json::obj([
            ("kind", Json::str("LeanConvergence")),
            ("t", Json::U64(*t as u64)),
            ("policy", policy_name(*policy)),
            ("drive", encode_drive(*drive)),
        ]),
        Workload::LeanAgreement { t, policy, drive } => Json::obj([
            ("kind", Json::str("LeanAgreement")),
            ("t", Json::U64(*t as u64)),
            ("policy", policy_name(*policy)),
            ("drive", encode_drive(*drive)),
        ]),
        Workload::WideFdConvergence {
            k,
            t,
            policy,
            drive,
        } => Json::obj([
            ("kind", Json::str("WideFdConvergence")),
            ("k", Json::U64(*k as u64)),
            ("t", Json::U64(*t as u64)),
            ("policy", policy_name(*policy)),
            ("drive", encode_drive(*drive)),
        ]),
    }
}

fn encode_drive(drive: FleetReplayDrive) -> Json {
    match drive {
        FleetReplayDrive::Plain => Json::str("Plain"),
        FleetReplayDrive::Soa { slice_len } => Json::obj([
            ("kind", Json::str("Soa")),
            ("slice_len", Json::U64(slice_len as u64)),
        ]),
    }
}

fn decode_drive(j: &Json, name: &str) -> DecodeResult<FleetReplayDrive> {
    match field(j, name)? {
        Json::Str(s) if s == "Plain" => Ok(FleetReplayDrive::Plain),
        v @ Json::Obj(_) if v.get("kind").and_then(Json::as_str) == Some("Soa") => {
            Ok(FleetReplayDrive::Soa {
                slice_len: usize_field(v, "slice_len")?,
            })
        }
        _ => Err(format!("field {name:?} is not a fleet replay drive")),
    }
}

/// Serializes a scenario canonically. Equal scenarios serialize to equal
/// values (and bytes); this is the resume staleness-guard's comparison key.
pub fn encode_scenario(s: &Scenario) -> Json {
    Json::obj([
        ("label", Json::str(s.label.clone())),
        ("n", Json::U64(s.universe.n() as u64)),
        ("generator", encode_generator(&s.generator)),
        ("workload", encode_workload(&s.workload)),
        (
            "stop",
            Json::str(match s.stop {
                StopRule::BudgetOnly => "BudgetOnly",
                StopRule::AllCorrectDecided => "AllCorrectDecided",
            }),
        ),
        ("budget", Json::U64(s.budget)),
        ("seed", Json::U64(s.seed)),
        ("faulty", bits(s.faulty)),
    ])
}

// ---------------------------------------------------------------------------
// Outcome encoding / decoding (full round trip; resumed lists must be
// byte-identical to uninterrupted ones).
// ---------------------------------------------------------------------------

fn encode_status(status: RunStatus) -> Json {
    match status {
        RunStatus::Stopped => Json::str("Stopped"),
        RunStatus::MaxSteps => Json::str("MaxSteps"),
        RunStatus::SourceEnded => Json::str("SourceEnded"),
        RunStatus::Stuck(p) => Json::obj([("kind", Json::str("Stuck")), ("process", pid(p))]),
    }
}

fn encode_timely_pair(pair: &st_core::TimelyPair) -> Json {
    Json::obj([
        ("p", bits(pair.p)),
        ("q", bits(pair.q)),
        ("bound", Json::U64(pair.bound as u64)),
    ])
}

/// Serializes an outcome for the store.
pub fn encode_outcome(out: &ScenarioOutcome) -> Json {
    let data = match &out.data {
        OutcomeData::Fd(fd) => Json::obj([
            ("kind", Json::str("Fd")),
            ("status", encode_status(fd.status)),
            ("steps", Json::U64(fd.steps)),
            (
                "membership",
                match &fd.membership {
                    Some(p) => encode_timely_pair(p),
                    None => Json::Null,
                },
            ),
            (
                "stabilization",
                match &fd.stabilization {
                    Some(s) => Json::obj([
                        ("winnerset", bits(s.winnerset)),
                        ("step", Json::U64(s.step)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "witness",
                match &fd.witness {
                    Some(w) => Json::obj([
                        ("trusted", pid(w.trusted)),
                        ("from_step", Json::U64(w.from_step)),
                    ]),
                    None => Json::Null,
                },
            ),
            ("late_flaps", Json::U64(fd.late_flaps as u64)),
        ]),
        OutcomeData::Agreement(a) => Json::obj([
            ("kind", Json::str("Agreement")),
            (
                "protocol",
                Json::str(match a.kind {
                    st_agreement::StackKind::FdParallelPaxos => "FdParallelPaxos",
                    st_agreement::StackKind::Trivial => "Trivial",
                }),
            ),
            ("status", encode_status(a.status)),
            ("decided_at", opt_u64(a.decided_at)),
            ("decisions", opt_values(&a.decisions)),
            ("correct", bits(a.correct)),
            (
                "violations",
                Json::arr(a.violations.iter().map(encode_violation)),
            ),
            ("clean", Json::Bool(a.clean)),
            ("safe", Json::Bool(a.safe)),
            (
                "certified",
                match a.certified {
                    Some(b) => Json::Bool(b),
                    None => Json::Null,
                },
            ),
        ]),
        OutcomeData::Adversarial(a) => Json::obj([
            ("kind", Json::str("Adversarial")),
            ("status", encode_status(a.status)),
            ("decided", Json::U64(a.decided as u64)),
            ("blocked", Json::Bool(a.blocked)),
            ("safe", Json::Bool(a.safe)),
            ("freeze_events", Json::U64(a.freeze_events)),
            ("max_frozen", Json::U64(a.max_frozen as u64)),
            (
                "certificate",
                match &a.certificate {
                    Some(p) => encode_timely_pair(p),
                    None => Json::Null,
                },
            ),
        ]),
        OutcomeData::Bg(b) => Json::obj([
            ("kind", Json::str("Bg")),
            ("status", encode_status(b.status)),
            ("stalled", bits(b.stalled)),
            (
                "distinct_simulator_values",
                Json::U64(b.distinct_simulator_values as u64),
            ),
            ("simulator_decisions", opt_values(&b.simulator_decisions)),
            ("simulated_decisions", opt_values(&b.simulated_decisions)),
            ("host_steps", Json::U64(b.host_steps)),
            ("live_sched_len", Json::U64(b.live_sched_len as u64)),
            ("max_live_bound", Json::U64(b.max_live_bound as u64)),
        ]),
        OutcomeData::Lean(l) => Json::obj([
            ("kind", Json::str("Lean")),
            ("status", encode_status(l.status)),
            ("steps", Json::U64(l.steps)),
            (
                "stabilization",
                match &l.stabilization {
                    Some(s) => Json::obj([
                        ("leader", Json::U64(s.leader as u64)),
                        ("step", Json::U64(s.step)),
                    ]),
                    None => Json::Null,
                },
            ),
            ("publications", Json::U64(l.publications)),
            ("late_flaps", Json::U64(l.late_flaps as u64)),
            ("decided", Json::U64(l.decided as u64)),
            ("distinct_values", values(&l.distinct_values)),
        ]),
        OutcomeData::WideFd(w) => Json::obj([
            ("kind", Json::str("WideFd")),
            ("status", encode_status(w.status)),
            ("steps", Json::U64(w.steps)),
            (
                "stabilization",
                match &w.stabilization {
                    Some(s) => Json::obj([
                        ("winnerset_code", Json::U64(s.winnerset_code)),
                        (
                            "members",
                            Json::arr(s.members.iter().map(|&m| Json::U64(m as u64))),
                        ),
                        ("step", Json::U64(s.step)),
                    ]),
                    None => Json::Null,
                },
            ),
            ("publications", Json::U64(w.publications)),
            ("late_flaps", Json::U64(w.late_flaps as u64)),
        ]),
    };
    Json::obj([
        ("rank", Json::U64(out.rank as u64)),
        ("label", Json::str(out.label.clone())),
        ("data", data),
        (
            "violations",
            Json::arr(out.violations.iter().map(encode_invariant_violation)),
        ),
        (
            "counterexample",
            match &out.counterexample {
                Some(s) => Json::arr(s.iter().map(|p| Json::U64(p.index() as u64))),
                None => Json::Null,
            },
        ),
    ])
}

fn encode_invariant_violation(v: &InvariantViolation) -> Json {
    match v {
        InvariantViolation::KAgreement { values: vs, k } => Json::obj([
            ("kind", Json::str("KAgreement")),
            ("values", values(vs)),
            ("k", Json::U64(*k as u64)),
        ]),
        InvariantViolation::Validity { process, value } => Json::obj([
            ("kind", Json::str("Validity")),
            ("process", Json::U64(*process as u64)),
            ("value", Json::U64(*value)),
        ]),
        InvariantViolation::Termination { undecided } => Json::obj([
            ("kind", Json::str("Termination")),
            (
                "undecided",
                Json::arr(undecided.iter().map(|&u| Json::U64(u as u64))),
            ),
        ]),
        InvariantViolation::BallotOwnership {
            instance,
            process,
            mbal,
            bal,
        } => Json::obj([
            ("kind", Json::str("BallotOwnership")),
            ("instance", Json::U64(*instance as u64)),
            ("process", Json::U64(*process as u64)),
            ("mbal", Json::U64(*mbal)),
            ("bal", Json::U64(*bal)),
        ]),
        InvariantViolation::AccusedTimelyWinnerset { winnerset } => Json::obj([
            ("kind", Json::str("AccusedTimelyWinnerset")),
            ("winnerset", bits(*winnerset)),
        ]),
        InvariantViolation::GuaranteeBroken {
            p,
            q,
            bound,
            observed,
        } => Json::obj([
            ("kind", Json::str("GuaranteeBroken")),
            ("p", bits(*p)),
            ("q", bits(*q)),
            ("bound", Json::U64(*bound as u64)),
            ("observed", Json::U64(*observed as u64)),
        ]),
        InvariantViolation::CrashWindowResurrection { process, position } => Json::obj([
            ("kind", Json::str("CrashWindowResurrection")),
            ("process", Json::U64(*process as u64)),
            ("position", Json::U64(*position)),
        ]),
        InvariantViolation::FaultyLeaderElected { leader } => Json::obj([
            ("kind", Json::str("FaultyLeaderElected")),
            ("leader", Json::U64(*leader as u64)),
        ]),
    }
}

fn encode_violation(v: &st_core::AgreementViolation) -> Json {
    match v {
        st_core::AgreementViolation::KAgreement { values: vs, k } => Json::obj([
            ("kind", Json::str("KAgreement")),
            ("values", values(vs)),
            ("k", Json::U64(*k as u64)),
        ]),
        st_core::AgreementViolation::Validity { process, value } => Json::obj([
            ("kind", Json::str("Validity")),
            ("process", Json::U64(*process as u64)),
            ("value", Json::U64(*value)),
        ]),
        st_core::AgreementViolation::Termination { undecided } => Json::obj([
            ("kind", Json::str("Termination")),
            (
                "undecided",
                Json::arr(undecided.iter().map(|&u| Json::U64(u as u64))),
            ),
        ]),
    }
}

// --- decoding helpers ------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

fn field<'a>(j: &'a Json, name: &str) -> DecodeResult<&'a Json> {
    j.get(name).ok_or_else(|| format!("missing field {name:?}"))
}

fn u64_field(j: &Json, name: &str) -> DecodeResult<u64> {
    field(j, name)?
        .as_u64()
        .ok_or_else(|| format!("field {name:?} is not an integer"))
}

fn usize_field(j: &Json, name: &str) -> DecodeResult<usize> {
    Ok(u64_field(j, name)? as usize)
}

fn str_field<'a>(j: &'a Json, name: &str) -> DecodeResult<&'a str> {
    field(j, name)?
        .as_str()
        .ok_or_else(|| format!("field {name:?} is not a string"))
}

fn bool_field(j: &Json, name: &str) -> DecodeResult<bool> {
    field(j, name)?
        .as_bool()
        .ok_or_else(|| format!("field {name:?} is not a bool"))
}

fn set_field(j: &Json, name: &str) -> DecodeResult<ProcSet> {
    Ok(ProcSet::from_bits(u64_field(j, name)?))
}

fn pid_field(j: &Json, name: &str) -> DecodeResult<ProcessId> {
    Ok(ProcessId::new(usize_field(j, name)?))
}

fn opt_u64_field(j: &Json, name: &str) -> DecodeResult<Option<u64>> {
    match field(j, name)? {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {name:?} is not null or an integer")),
    }
}

fn opt_values_field(j: &Json, name: &str) -> DecodeResult<Vec<Option<st_core::Value>>> {
    let arr = field(j, name)?
        .as_arr()
        .ok_or_else(|| format!("field {name:?} is not an array"))?;
    arr.iter()
        .map(|v| match v {
            Json::Null => Ok(None),
            v => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field {name:?} holds a non-integer")),
        })
        .collect()
}

fn values_field(j: &Json, name: &str) -> DecodeResult<Vec<st_core::Value>> {
    let arr = field(j, name)?
        .as_arr()
        .ok_or_else(|| format!("field {name:?} is not an array"))?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("field {name:?} holds a non-integer"))
        })
        .collect()
}

fn decode_status(j: &Json) -> DecodeResult<RunStatus> {
    match j {
        Json::Str(s) => match s.as_str() {
            "Stopped" => Ok(RunStatus::Stopped),
            "MaxSteps" => Ok(RunStatus::MaxSteps),
            "SourceEnded" => Ok(RunStatus::SourceEnded),
            other => Err(format!("unknown run status {other:?}")),
        },
        Json::Obj(_) if j.get("kind").and_then(Json::as_str) == Some("Stuck") => {
            Ok(RunStatus::Stuck(pid_field(j, "process")?))
        }
        _ => Err("run status is neither a name nor a Stuck object".into()),
    }
}

fn decode_timely_pair(j: &Json) -> DecodeResult<st_core::TimelyPair> {
    Ok(st_core::TimelyPair {
        p: set_field(j, "p")?,
        q: set_field(j, "q")?,
        bound: usize_field(j, "bound")?,
    })
}

fn opt_timely_pair(j: &Json, name: &str) -> DecodeResult<Option<st_core::TimelyPair>> {
    match field(j, name)? {
        Json::Null => Ok(None),
        v => decode_timely_pair(v).map(Some),
    }
}

/// Decodes an outcome written by [`encode_outcome`] (exact inverse: the
/// round trip is byte-preserving for writer-produced documents).
pub fn decode_outcome(j: &Json) -> DecodeResult<ScenarioOutcome> {
    let rank = usize_field(j, "rank")?;
    let label = str_field(j, "label")?.to_string();
    let data = field(j, "data")?;
    let kind = str_field(data, "kind")?;
    let decoded = match kind {
        "Fd" => OutcomeData::Fd(FdOutcome {
            status: decode_status(field(data, "status")?)?,
            steps: u64_field(data, "steps")?,
            membership: opt_timely_pair(data, "membership")?,
            stabilization: match field(data, "stabilization")? {
                Json::Null => None,
                v => Some(st_fd::convergence::Stabilization {
                    winnerset: set_field(v, "winnerset")?,
                    step: u64_field(v, "step")?,
                }),
            },
            witness: match field(data, "witness")? {
                Json::Null => None,
                v => Some(st_fd::convergence::KAntiOmegaWitness {
                    trusted: pid_field(v, "trusted")?,
                    from_step: u64_field(v, "from_step")?,
                }),
            },
            late_flaps: usize_field(data, "late_flaps")?,
        }),
        "Agreement" => OutcomeData::Agreement(AgreementScenarioOutcome {
            kind: match str_field(data, "protocol")? {
                "FdParallelPaxos" => st_agreement::StackKind::FdParallelPaxos,
                "Trivial" => st_agreement::StackKind::Trivial,
                other => return Err(format!("unknown protocol {other:?}")),
            },
            status: decode_status(field(data, "status")?)?,
            decided_at: opt_u64_field(data, "decided_at")?,
            decisions: opt_values_field(data, "decisions")?,
            correct: set_field(data, "correct")?,
            violations: field(data, "violations")?
                .as_arr()
                .ok_or_else(|| "violations is not an array".to_string())?
                .iter()
                .map(decode_violation)
                .collect::<DecodeResult<_>>()?,
            clean: bool_field(data, "clean")?,
            safe: bool_field(data, "safe")?,
            certified: match field(data, "certified")? {
                Json::Null => None,
                v => Some(
                    v.as_bool()
                        .ok_or_else(|| "certified is not null or a bool".to_string())?,
                ),
            },
        }),
        "Adversarial" => OutcomeData::Adversarial(AdversarialOutcome {
            status: decode_status(field(data, "status")?)?,
            decided: usize_field(data, "decided")?,
            blocked: bool_field(data, "blocked")?,
            safe: bool_field(data, "safe")?,
            freeze_events: u64_field(data, "freeze_events")?,
            max_frozen: usize_field(data, "max_frozen")?,
            certificate: opt_timely_pair(data, "certificate")?,
        }),
        "Bg" => OutcomeData::Bg(BgOutcome {
            status: decode_status(field(data, "status")?)?,
            stalled: set_field(data, "stalled")?,
            distinct_simulator_values: usize_field(data, "distinct_simulator_values")?,
            simulator_decisions: opt_values_field(data, "simulator_decisions")?,
            simulated_decisions: opt_values_field(data, "simulated_decisions")?,
            host_steps: u64_field(data, "host_steps")?,
            live_sched_len: usize_field(data, "live_sched_len")?,
            max_live_bound: usize_field(data, "max_live_bound")?,
        }),
        "Lean" => OutcomeData::Lean(LeanOutcome {
            status: decode_status(field(data, "status")?)?,
            steps: u64_field(data, "steps")?,
            stabilization: match field(data, "stabilization")? {
                Json::Null => None,
                v => Some(LeanStabilization {
                    leader: usize_field(v, "leader")?,
                    step: u64_field(v, "step")?,
                }),
            },
            publications: u64_field(data, "publications")?,
            late_flaps: usize_field(data, "late_flaps")?,
            decided: usize_field(data, "decided")?,
            distinct_values: values_field(data, "distinct_values")?,
        }),
        "WideFd" => OutcomeData::WideFd(WideFdOutcome {
            status: decode_status(field(data, "status")?)?,
            steps: u64_field(data, "steps")?,
            stabilization: match field(data, "stabilization")? {
                Json::Null => None,
                v => Some(WideFdStabilization {
                    winnerset_code: u64_field(v, "winnerset_code")?,
                    members: values_field(v, "members")?
                        .into_iter()
                        .map(|m| m as usize)
                        .collect(),
                    step: u64_field(v, "step")?,
                }),
            },
            publications: u64_field(data, "publications")?,
            late_flaps: usize_field(data, "late_flaps")?,
        }),
        other => return Err(format!("unknown outcome kind {other:?}")),
    };
    let violations = field(j, "violations")?
        .as_arr()
        .ok_or_else(|| "violations is not an array".to_string())?
        .iter()
        .map(decode_invariant_violation)
        .collect::<DecodeResult<_>>()?;
    let counterexample = match field(j, "counterexample")? {
        Json::Null => None,
        v => Some(st_core::Schedule::from_indices(
            v.as_arr()
                .ok_or_else(|| "counterexample is not null or an array".to_string())?
                .iter()
                .map(|p| {
                    p.as_u64()
                        .map(|u| u as usize)
                        .ok_or_else(|| "counterexample holds a non-integer".to_string())
                })
                .collect::<DecodeResult<Vec<usize>>>()?,
        )),
    };
    Ok(ScenarioOutcome {
        rank,
        label,
        data: decoded,
        violations,
        counterexample,
    })
}

fn decode_invariant_violation(j: &Json) -> DecodeResult<InvariantViolation> {
    match str_field(j, "kind")? {
        "KAgreement" => Ok(InvariantViolation::KAgreement {
            values: values_field(j, "values")?,
            k: usize_field(j, "k")?,
        }),
        "Validity" => Ok(InvariantViolation::Validity {
            process: usize_field(j, "process")?,
            value: u64_field(j, "value")?,
        }),
        "Termination" => Ok(InvariantViolation::Termination {
            undecided: values_field(j, "undecided")?
                .into_iter()
                .map(|v| v as usize)
                .collect(),
        }),
        "BallotOwnership" => Ok(InvariantViolation::BallotOwnership {
            instance: usize_field(j, "instance")?,
            process: usize_field(j, "process")?,
            mbal: u64_field(j, "mbal")?,
            bal: u64_field(j, "bal")?,
        }),
        "AccusedTimelyWinnerset" => Ok(InvariantViolation::AccusedTimelyWinnerset {
            winnerset: set_field(j, "winnerset")?,
        }),
        "GuaranteeBroken" => Ok(InvariantViolation::GuaranteeBroken {
            p: set_field(j, "p")?,
            q: set_field(j, "q")?,
            bound: usize_field(j, "bound")?,
            observed: usize_field(j, "observed")?,
        }),
        "CrashWindowResurrection" => Ok(InvariantViolation::CrashWindowResurrection {
            process: usize_field(j, "process")?,
            position: u64_field(j, "position")?,
        }),
        "FaultyLeaderElected" => Ok(InvariantViolation::FaultyLeaderElected {
            leader: usize_field(j, "leader")?,
        }),
        other => Err(format!("unknown invariant violation kind {other:?}")),
    }
}

fn decode_violation(j: &Json) -> DecodeResult<st_core::AgreementViolation> {
    match str_field(j, "kind")? {
        "KAgreement" => Ok(st_core::AgreementViolation::KAgreement {
            values: values_field(j, "values")?,
            k: usize_field(j, "k")?,
        }),
        "Validity" => Ok(st_core::AgreementViolation::Validity {
            process: usize_field(j, "process")?,
            value: u64_field(j, "value")?,
        }),
        "Termination" => Ok(st_core::AgreementViolation::Termination {
            undecided: values_field(j, "undecided")?
                .into_iter()
                .map(|v| v as usize)
                .collect(),
        }),
        other => Err(format!("unknown violation kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Scenario / spec decoding (inverse of `encode_scenario`; what lets saved
// counterexamples and fuzz corpus entries be re-executed).
// ---------------------------------------------------------------------------

fn opt_set_field(j: &Json, name: &str) -> DecodeResult<Option<ProcSet>> {
    match field(j, name)? {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(|b| Some(ProcSet::from_bits(b)))
            .ok_or_else(|| format!("field {name:?} is not null or an integer")),
    }
}

fn schedule_field(j: &Json, name: &str) -> DecodeResult<st_core::Schedule> {
    let arr = field(j, name)?
        .as_arr()
        .ok_or_else(|| format!("field {name:?} is not an array"))?;
    Ok(st_core::Schedule::from_indices(
        arr.iter()
            .map(|p| {
                p.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| format!("field {name:?} holds a non-integer"))
            })
            .collect::<DecodeResult<Vec<usize>>>()?,
    ))
}

fn range_field(j: &Json, name: &str) -> DecodeResult<(u64, u64)> {
    let arr = field(j, name)?
        .as_arr()
        .ok_or_else(|| format!("field {name:?} is not an array"))?;
    match arr {
        [lo, hi] => Ok((
            lo.as_u64()
                .ok_or_else(|| format!("field {name:?} lo is not an integer"))?,
            hi.as_u64()
                .ok_or_else(|| format!("field {name:?} hi is not an integer"))?,
        )),
        _ => Err(format!("field {name:?} is not a 2-element array")),
    }
}

fn plan_field(j: &Json, name: &str) -> DecodeResult<CrashPlan> {
    let arr = field(j, name)?
        .as_arr()
        .ok_or_else(|| format!("field {name:?} is not an array"))?;
    let mut plan = CrashPlan::new();
    for e in arr {
        match e.as_arr() {
            Some([p, step]) => {
                let p = p
                    .as_u64()
                    .ok_or_else(|| format!("field {name:?} entry process is not an integer"))?;
                let step = step
                    .as_u64()
                    .ok_or_else(|| format!("field {name:?} entry step is not an integer"))?;
                plan = plan.crash(ProcessId::new(p as usize), step);
            }
            _ => {
                return Err(format!(
                    "field {name:?} entry is not a [process, step] pair"
                ))
            }
        }
    }
    Ok(plan)
}

fn decode_policy(j: &Json, name: &str) -> DecodeResult<TimeoutPolicy> {
    match str_field(j, name)? {
        "Increment" => Ok(TimeoutPolicy::Increment),
        "Double" => Ok(TimeoutPolicy::Double),
        other => Err(format!("unknown timeout policy {other:?}")),
    }
}

/// Decodes a generator spec written by the canonical encoder (exact
/// inverse over every [`GeneratorSpec`] variant).
pub fn decode_generator(j: &Json) -> DecodeResult<GeneratorSpec> {
    match str_field(j, "kind")? {
        "RoundRobin" => Ok(GeneratorSpec::RoundRobin {
            over: opt_set_field(j, "over")?,
        }),
        "Bursty" => Ok(GeneratorSpec::Bursty {
            burst: u64_field(j, "burst")?,
        }),
        "SeededRandom" => Ok(GeneratorSpec::SeededRandom {
            over: opt_set_field(j, "over")?,
            seed_offset: u64_field(j, "seed_offset")?,
            weights: match field(j, "weights")? {
                Json::Null => None,
                v => Some(
                    v.as_arr()
                        .ok_or_else(|| "weights is not null or an array".to_string())?
                        .iter()
                        .map(|w| {
                            w.as_u64()
                                .map(|x| x as u32)
                                .ok_or_else(|| "weights holds a non-integer".to_string())
                        })
                        .collect::<DecodeResult<_>>()?,
                ),
            },
        }),
        "SetTimely" => Ok(GeneratorSpec::SetTimely {
            p: set_field(j, "p")?,
            q: set_field(j, "q")?,
            bound: usize_field(j, "bound")?,
            filler: Box::new(decode_generator(field(j, "filler")?)?),
            crashes: plan_field(j, "crashes")?,
        }),
        "Eventually" => Ok(GeneratorSpec::Eventually {
            prefix: Box::new(decode_generator(field(j, "prefix")?)?),
            prefix_len: u64_field(j, "prefix_len")?,
            body: Box::new(decode_generator(field(j, "body")?)?),
        }),
        "Figure1" => Ok(GeneratorSpec::Figure1 {
            p1: pid_field(j, "p1")?,
            p2: pid_field(j, "p2")?,
            q: pid_field(j, "q")?,
        }),
        "GeneralizedFigure1" => Ok(GeneratorSpec::GeneralizedFigure1 {
            p: set_field(j, "p")?,
            q: set_field(j, "q")?,
        }),
        "RotatingStarvation" => Ok(GeneratorSpec::RotatingStarvation {
            k: usize_field(j, "k")?,
            base: u64_field(j, "base")?,
        }),
        "FictitiousCrash" => Ok(GeneratorSpec::FictitiousCrash {
            i: usize_field(j, "i")?,
            j: usize_field(j, "j")?,
            t: usize_field(j, "t")?,
            k: usize_field(j, "k")?,
            base: u64_field(j, "base")?,
        }),
        "Cycle" => Ok(GeneratorSpec::Cycle {
            period: schedule_field(j, "period")?,
        }),
        "AlternatingRotation" => Ok(GeneratorSpec::AlternatingRotation {
            groups: field(j, "groups")?
                .as_arr()
                .ok_or_else(|| "groups is not an array".to_string())?
                .iter()
                .map(|g| {
                    g.as_u64()
                        .map(ProcSet::from_bits)
                        .ok_or_else(|| "groups holds a non-integer".to_string())
                })
                .collect::<DecodeResult<_>>()?,
            base: u64_field(j, "base")?,
        }),
        "CrashAfter" => Ok(GeneratorSpec::CrashAfter {
            inner: Box::new(decode_generator(field(j, "inner")?)?),
            plan: plan_field(j, "plan")?,
        }),
        "Flapping" => Ok(GeneratorSpec::Flapping {
            p: set_field(j, "p")?,
            q: set_field(j, "q")?,
            bound: usize_field(j, "bound")?,
            filler: Box::new(decode_generator(field(j, "filler")?)?),
            timely_dwell: range_field(j, "timely_dwell")?,
            untimely_dwell: range_field(j, "untimely_dwell")?,
            seed_offset: u64_field(j, "seed_offset")?,
        }),
        "GrayFailure" => Ok(GeneratorSpec::GrayFailure {
            inner: Box::new(decode_generator(field(j, "inner")?)?),
            gray: set_field(j, "gray")?,
            stretch: u64_field(j, "stretch")?,
            seed_offset: u64_field(j, "seed_offset")?,
        }),
        "BurstClog" => Ok(GeneratorSpec::BurstClog {
            inner: Box::new(decode_generator(field(j, "inner")?)?),
            clogger: pid_field(j, "clogger")?,
            window: u64_field(j, "window")?,
            gap: range_field(j, "gap")?,
            seed_offset: u64_field(j, "seed_offset")?,
        }),
        "CrashRecovery" => Ok(GeneratorSpec::CrashRecovery {
            inner: Box::new(decode_generator(field(j, "inner")?)?),
            victim: pid_field(j, "victim")?,
            crash: u64_field(j, "crash")?,
            rejoin: u64_field(j, "rejoin")?,
        }),
        "Replay" => Ok(GeneratorSpec::Replay {
            of: Box::new(decode_generator(field(j, "of")?)?),
            schedule: schedule_field(j, "schedule")?,
        }),
        other => Err(format!("unknown generator kind {other:?}")),
    }
}

fn decode_workload(j: &Json) -> DecodeResult<Workload> {
    match str_field(j, "kind")? {
        "FdConvergence" => Ok(Workload::FdConvergence {
            k: usize_field(j, "k")?,
            t: usize_field(j, "t")?,
            policy: decode_policy(j, "policy")?,
            abi: match str_field(j, "abi")? {
                "Async" => FdAbi::Async,
                "MachineSlot" => FdAbi::MachineSlot,
                "MachineFleet" => FdAbi::MachineFleet,
                other => return Err(format!("unknown FD ABI {other:?}")),
            },
            detector: match str_field(j, "detector")? {
                "SetBased" => FdDetector::SetBased,
                "ProcessBased" => FdDetector::ProcessBased,
                other => return Err(format!("unknown FD detector {other:?}")),
            },
            certify_membership: bool_field(j, "certify_membership")?,
        }),
        "Agreement" => Ok(Workload::Agreement {
            t: usize_field(j, "t")?,
            k: usize_field(j, "k")?,
            inputs: values_field(j, "inputs")?,
            policy: decode_policy(j, "policy")?,
            certify: match field(j, "certify")? {
                Json::Null => None,
                v => Some(CertifyTimely {
                    i: usize_field(v, "i")?,
                    j: usize_field(v, "j")?,
                    cap: usize_field(v, "cap")?,
                    prefix_len: u64_field(v, "prefix_len")?,
                }),
            },
        }),
        "AdversarialAgreement" => Ok(Workload::AdversarialAgreement {
            t: usize_field(j, "t")?,
            k: usize_field(j, "k")?,
            inputs: values_field(j, "inputs")?,
            policy: decode_policy(j, "policy")?,
            precrashed: set_field(j, "precrashed")?,
            witness: match field(j, "witness")? {
                Json::Null => None,
                v => Some((set_field(v, "p")?, set_field(v, "q")?)),
            },
        }),
        "BgReduction" => Ok(Workload::BgReduction {
            n_sim: usize_field(j, "n_sim")?,
            k: usize_field(j, "k")?,
            max_reads: usize_field(j, "max_reads")?,
        }),
        "LeanConvergence" => Ok(Workload::LeanConvergence {
            t: usize_field(j, "t")?,
            policy: decode_policy(j, "policy")?,
            drive: decode_drive(j, "drive")?,
        }),
        "LeanAgreement" => Ok(Workload::LeanAgreement {
            t: usize_field(j, "t")?,
            policy: decode_policy(j, "policy")?,
            drive: decode_drive(j, "drive")?,
        }),
        "WideFdConvergence" => Ok(Workload::WideFdConvergence {
            k: usize_field(j, "k")?,
            t: usize_field(j, "t")?,
            policy: decode_policy(j, "policy")?,
            drive: decode_drive(j, "drive")?,
        }),
        other => Err(format!("unknown workload kind {other:?}")),
    }
}

/// Decodes a scenario written by [`encode_scenario`] (exact inverse:
/// `encode_scenario(&decode_scenario(j)?) == *j` for writer-produced
/// documents — property-tested over arbitrary spec trees).
pub fn decode_scenario(j: &Json) -> DecodeResult<Scenario> {
    let label = str_field(j, "label")?.to_string();
    let n = usize_field(j, "n")?;
    let universe = st_core::Universe::new(n).map_err(|_| format!("invalid universe size {n}"))?;
    let generator = decode_generator(field(j, "generator")?)?;
    let workload = decode_workload(field(j, "workload")?)?;
    let stop = match str_field(j, "stop")? {
        "BudgetOnly" => StopRule::BudgetOnly,
        "AllCorrectDecided" => StopRule::AllCorrectDecided,
        other => return Err(format!("unknown stop rule {other:?}")),
    };
    let budget = u64_field(j, "budget")?;
    let seed = u64_field(j, "seed")?;
    let faulty = set_field(j, "faulty")?;
    let mut scenario =
        Scenario::new(label, universe, generator, workload, budget, seed).with_faulty(faulty);
    scenario.stop = stop;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Campaign;
    use st_core::Universe;
    use st_sched::GeneratorSpec;

    fn sample_scenario(seed: u64) -> Scenario {
        Scenario::new(
            format!("sample/seed{seed}"),
            Universe::new(3).unwrap(),
            GeneratorSpec::round_robin(),
            Workload::FdConvergence {
                k: 1,
                t: 1,
                policy: TimeoutPolicy::Increment,
                abi: FdAbi::MachineSlot,
                detector: FdDetector::SetBased,
                certify_membership: false,
            },
            2_000,
            seed,
        )
    }

    #[test]
    fn record_lookup_and_spec_guard() {
        let scenario = sample_scenario(7);
        let mut outcome = scenario.run();
        outcome.rank = 3;
        let mut store = OutcomeStore::new();
        store.record("T", &scenario, &outcome);
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup("T", 3, &scenario), Some(outcome.clone()));
        // Wrong key, wrong rank, or a different spec: no reuse.
        assert_eq!(store.lookup("U", 3, &scenario), None);
        assert_eq!(store.lookup("T", 2, &scenario), None);
        let mut edited = scenario.clone();
        edited.budget += 1;
        assert_eq!(store.lookup("T", 3, &edited), None);
    }

    #[test]
    fn file_round_trip_is_byte_identical() {
        let mut store = OutcomeStore::new();
        for (rank, seed) in [(0usize, 1u64), (1, 2), (5, 3)] {
            let scenario = sample_scenario(seed);
            let mut outcome = scenario.run();
            outcome.rank = rank;
            store.record("E2", &scenario, &outcome);
        }
        let text = store.to_json_string();
        let reloaded = OutcomeStore::from_json_str(&text).unwrap();
        assert_eq!(reloaded.entries(), store.entries());
        assert_eq!(reloaded.to_json_string(), text, "canonical round trip");
    }

    #[test]
    fn schema_mismatch_is_a_typed_error() {
        let text = "{\"schema\": \"st-campaign/outcome-store-v0\", \"entries\": []}";
        match OutcomeStore::from_json_str(text) {
            Err(StoreError::SchemaMismatch { found, expected }) => {
                assert_eq!(found, "st-campaign/outcome-store-v0");
                assert_eq!(expected, SCHEMA);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        // And the error renders actionable advice.
        let err = OutcomeStore::from_json_str(text).unwrap_err();
        assert!(err.to_string().contains("--resume"));
    }

    #[test]
    fn store_bytes_do_not_depend_on_recording_order() {
        let entries: Vec<(&str, usize, u64)> =
            vec![("e3", 1, 4), ("e2", 0, 1), ("e3", 0, 3), ("e2", 2, 2)];
        let mut forward = OutcomeStore::new();
        let mut backward = OutcomeStore::new();
        for &(key, rank, seed) in &entries {
            let scenario = sample_scenario(seed);
            let mut outcome = scenario.run();
            outcome.rank = rank;
            forward.record(key, &scenario, &outcome);
        }
        for &(key, rank, seed) in entries.iter().rev() {
            let scenario = sample_scenario(seed);
            let mut outcome = scenario.run();
            outcome.rank = rank;
            backward.record(key, &scenario, &outcome);
        }
        assert_eq!(forward.to_json_string(), backward.to_json_string());
        let keys: Vec<(&str, usize)> = forward
            .entries()
            .iter()
            .map(|e| (e.campaign.as_str(), e.rank))
            .collect();
        assert_eq!(keys, [("e2", 0), ("e2", 2), ("e3", 0), ("e3", 1)]);
        // And every entry is found by the binary search, in either store.
        for &(key, rank, seed) in &entries {
            let found = backward.lookup(key, rank, &sample_scenario(seed));
            assert_eq!(found.map(|o| o.rank), Some(rank), "{key}/{rank}");
        }
        assert!(forward.entry("e2", 1).is_none());
        assert!(forward.entry("e4", 0).is_none());
    }

    #[test]
    fn inconsistent_ranks_and_duplicates_are_rejected() {
        let scenario = sample_scenario(1);
        let mut outcome = scenario.run();
        outcome.rank = 3;
        let mut store = OutcomeStore::new();
        store.record("T", &scenario, &outcome);
        let good = store.to_json_string();
        // Entry rank and outcome rank must agree.
        let skewed = good.replace("\"rank\": 3, \"scenario\"", "\"rank\": 4, \"scenario\"");
        assert_ne!(skewed, good, "edit must hit the entry rank");
        match OutcomeStore::from_json_str(&skewed) {
            Err(StoreError::Malformed(m)) => assert!(m.contains("disagrees"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Two entries with the same (campaign, rank) are ambiguous.
        store.record("U", &scenario, &outcome);
        let duped = store.to_json_string().replace("\"U\"", "\"T\"");
        match OutcomeStore::from_json_str(&duped) {
            Err(StoreError::Malformed(m)) => assert!(m.contains("duplicate"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        assert!(matches!(
            OutcomeStore::from_json_str("{\"entries\": []}"),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            OutcomeStore::from_json_str("not json"),
            Err(StoreError::Json(_))
        ));
        let bad_entry = format!(
            "{{\"schema\": {}, \"entries\": [{{\"campaign\": \"X\"}}]}}",
            Json::str(SCHEMA)
        );
        assert!(matches!(
            OutcomeStore::from_json_str(&bad_entry),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn run_resumed_records_and_reuses() {
        let campaign = {
            let mut c = Campaign::new();
            for seed in 0..4 {
                c.push(sample_scenario(seed));
            }
            c
        };
        let mut full_store = OutcomeStore::new();
        let full = campaign.run_resumed(1, "T", None, Some(&mut full_store));
        assert_eq!(full_store.len(), 4);
        // Drop the middle two entries, resume, and compare everything.
        let mut truncated = full_store.clone();
        truncated.retain(|i, _| i == 0 || i == 3);
        let mut resumed_store = OutcomeStore::new();
        let resumed = campaign.run_resumed(2, "T", Some(&truncated), Some(&mut resumed_store));
        assert_eq!(resumed, full);
        assert_eq!(
            resumed_store.to_json_string(),
            full_store.to_json_string(),
            "resumed store bytes match the uninterrupted store"
        );
    }
}
