//! The outcome store: campaign results on disk, versioned and resumable.
//!
//! An [`OutcomeStore`] is the persistence half of the campaign engine: a
//! flat list of `(campaign key, rank, serialized scenario spec, outcome)`
//! entries in the workspace's hand-rolled canonical JSON
//! ([`st_core::json`]). The format is versioned by the [`SCHEMA`]
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
//!
//! # One entry at a time
//!
//! A store can be far larger than anything else a sweep holds, so no path
//! through this module holds one as a document, and none builds a [`Json`]
//! tree. What stays resident per entry ([`StoreEntry`]) is the campaign
//! key, the rank, the decoded outcome and the scenario spec as its
//! **canonical text** — one allocation, written at
//! [`record`](OutcomeStore::record) time, compared byte for byte by
//! [`lookup`](OutcomeStore::lookup), copied as is into every line written.
//! What a call holds on top of that is transient and bounded by one entry:
//!
//! - **Reading** ([`from_json_str`](OutcomeStore::from_json_str),
//!   [`load`](OutcomeStore::load), a fetched page): [`read_document`]
//!   walks `{"schema", "entries": [e, …]}` with a [`Cursor`] and decodes
//!   each entry where it stands (`StoreEntry`'s reader, the only entry
//!   decoder): the outcome straight into its types, the spec's canonical
//!   text — borrowed from the document when it is canonical already —
//!   into its allocation.
//!   Any whitespace and member order load; the schema is judged before any
//!   entry; the answer is exactly what parsing the whole text first would
//!   give. `load` also holds the file's text.
//! - **Writing** ([`to_json_string`](OutcomeStore::to_json_string),
//!   [`write_to`](OutcomeStore::write_to), [`save`](OutcomeStore::save),
//!   [`write_page`](OutcomeStore::write_page)): one writer appends each
//!   entry's members straight to the output
//!   ([`StoreEntry::write_json_line`], the only entry encoder). `save`
//!   streams through one reused line buffer into a temp sibling and renames
//!   it into place ([`write_atomic`]), so a failed or killed save leaves
//!   the previous file whole.
//!
//! `tests/alloc_budget.rs` pins the live-byte high-water marks and the
//! allocations per loaded entry, `record` and `lookup`, and
//! `tests/store_stream.rs` holds the reader to whole-document parsing on
//! every layout, damage and truncation.
//!
//! # The codec
//!
//! This module is also the one place the wire format of scenarios and
//! outcomes is written down — store files, `st-serve` frames, job specs
//! and segment logs, the fuzz corpus and counterexample files all go
//! through it. Each type has **one** description, an impl of the private
//! `Wire` trait: a writer that appends the canonical bytes to a `String`
//! and a reader that decodes from a [`Cursor`] in place. Leaves (integers,
//! sets, process ids, schedules, crash plans) and `Option` / `Vec` / `Box`
//! are by hand, every struct and enum a `wire_struct!` / `wire_enum!`
//! field list from which both directions are derived. A new
//! `GeneratorSpec` variant is one line in its table. The reader answers
//! what decoding the parsed tree would: members in any order, the first
//! occurrence of each the one that counts (repeats and strangers are only
//! checked for syntax), a `"kind"` tag found wherever it sits, field
//! errors named in declaration order, and a syntax error anywhere
//! outranking every decode error (`tests/tree_oracle.rs` holds it to the
//! tree codec it replaced). Range checks live in the leaves, so no input
//! can panic a decoder (`tests/wire.rs`), and
//! `tests/golden/store_v2.json` pins every written byte
//! (`tests/store_fixture.rs`). [`write_scenario`] is the streaming entry
//! point other crates write specs through; [`encode_scenario`] /
//! [`encode_outcome`] and their inverses are adapters for callers that
//! hold a [`Json`] tree. [`encoding_reference`] renders the tables for
//! PROTOCOL.md.

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use st_agreement::StackKind;
use st_core::json::{self, Cursor};
use st_core::{
    AgreementViolation, Json, JsonError, ProcSet, ProcessId, Schedule, TimelyPair, Universe,
};
use st_fd::convergence::{KAntiOmegaWitness, Stabilization};
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
    /// The scenario spec as canonical JSON text: written once, at recording
    /// time (or re-canonicalized when a file is read), compared byte for
    /// byte by [`lookup`](OutcomeStore::lookup) and copied as is into
    /// every line written for the entry.
    scenario: Box<str>,
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
    /// store files, `st-serve`'s segment log and its `fetch-outcomes` pages
    /// are all made of these lines, which is what lets a log be compacted
    /// into a store without changing a byte of any entry.
    pub fn write_json_line(&self, out: &mut String) {
        out.push_str("{\"campaign\": ");
        json::write_string(&self.campaign, out);
        out.push_str(", \"rank\": ");
        json::write_u64(self.rank as u64, out);
        out.push_str(", \"scenario\": ");
        out.push_str(&self.scenario);
        out.push_str(", \"outcome\": ");
        self.outcome.write(out);
        out.push('}');
    }

    /// Decodes one entry line (the inverse of
    /// [`write_json_line`](Self::write_json_line), in any whitespace and
    /// member order): `Err` when the line is not JSON, `Ok(Err)` naming why
    /// the JSON is not an entry. How `st-serve` replays its segment log.
    pub fn from_json_line(line: &str) -> Result<Result<StoreEntry, String>, JsonError> {
        let mut cur = Cursor::new(line);
        cur.skip_ws();
        let entry = StoreEntry::read(&mut cur)?;
        cur.finish()?;
        Ok(entry)
    }

    /// Decodes an entry already parsed into a tree: an adapter over the
    /// entry reader, for callers that hold one.
    pub fn from_json(e: &Json) -> Result<StoreEntry, String> {
        from_tree(e, StoreEntry::read)
    }

    /// The only entry decoder: the entry object `cur` stands on, its spec's
    /// canonical text copied into an allocation of exactly its length.
    fn read(cur: &mut Cursor<'_>) -> Read<StoreEntry> {
        let (mut campaign, mut rank, mut scenario, mut outcome) = (None, None, None, None);
        members(cur, |key, cur| {
            match key {
                "campaign" if campaign.is_none() => campaign = Some(String::read(cur)?),
                "rank" if rank.is_none() => rank = Some(usize::read(cur)?),
                "scenario" if scenario.is_none() => scenario = Some(Box::from(&*cur.copy()?)),
                "outcome" if outcome.is_none() => outcome = Some(ScenarioOutcome::read(cur)?),
                _ => cur.skip()?,
            }
            Ok(())
        })?;
        let decoded = || -> DecodeResult<StoreEntry> {
            let campaign = field(campaign, "campaign")?;
            let rank = field(rank, "rank")?;
            let scenario = scenario.ok_or("missing field \"scenario\"")?;
            let outcome: ScenarioOutcome = field(outcome, "outcome")?;
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
        };
        Ok(decoded())
    }
}

/// Room for an ordinary spec's text (the E3 grid's are 425–460 bytes); a
/// longer one grows the scratch buffer.
const SPEC_TEXT_ROOM: usize = 1024;

/// `spec`'s canonical text in an allocation of exactly its length, copied
/// out of a scratch buffer. Growing a `String` and shrinking it in place
/// (`to_string().into_boxed_str()`) leaves the allocator one tail fragment
/// per entry, and whether the entry's other allocations land in those
/// fragments turns on the text's length modulo 16: on a 50 k-entry store a
/// scenario seed of 20 digits instead of 19 costs `load` a third more time
/// and the process 6 MB. The reader boxes a loaded spec's text the same
/// way: [`Cursor::copy`] borrows it from the document.
fn boxed_text(spec: &Scenario) -> Box<str> {
    let mut text = String::with_capacity(SPEC_TEXT_ROOM);
    spec.write(&mut text);
    text.as_str().into()
}

/// Where a store document's fixed bytes go around its entry lines: a store
/// is the same members in the same order in a file and in a frame, and
/// differs only in whitespace.
struct Layout {
    open: &'static str,
    after_schema: &'static str,
    first: &'static str,
    between: &'static str,
    close: &'static str,
}

/// A store file: one entry per line.
const FILE: Layout = Layout {
    open: "{\n\"schema\": ",
    after_schema: ",\n\"entries\": [",
    first: "\n",
    between: ",\n",
    close: "\n]\n}\n",
};

/// A store inside a frame: what [`Json::to_string`] would write for the
/// document.
const WIRE: Layout = Layout {
    open: "{\"schema\": ",
    after_schema: ", \"entries\": [",
    first: "",
    between: ", ",
    close: "]}",
};

/// The one store writer: the document holding `entries` in `layout`,
/// appended to `out`. `sink` is handed `out` after the header, after every
/// entry and after the footer — a streaming caller drains it there, so one
/// line is all that is ever buffered. An entry after the first that would
/// take the document past `budget` bytes ends it early; the number of
/// entries written is returned.
fn write_document(
    entries: &[StoreEntry],
    layout: &Layout,
    budget: usize,
    out: &mut String,
    mut sink: impl FnMut(&mut String) -> std::io::Result<()>,
) -> std::io::Result<usize> {
    let start = out.len();
    out.push_str(layout.open);
    json::write_string(SCHEMA, out);
    out.push_str(layout.after_schema);
    let mut spent = out.len() - start + layout.close.len();
    sink(out)?;
    let mut written = 0usize;
    for entry in entries {
        let mark = out.len();
        out.push_str(if written == 0 {
            layout.first
        } else {
            layout.between
        });
        entry.write_json_line(out);
        spent += out.len() - mark;
        if spent > budget && written > 0 {
            out.truncate(mark);
            break;
        }
        written += 1;
        sink(out)?;
    }
    out.push_str(layout.close);
    sink(out)?;
    Ok(written)
}

/// Writes `path` atomically: `write` fills a temp sibling (`<path>.tmp`)
/// that is then renamed over `path` — a kill or a failure part-way never
/// leaves half a document under `path`, and a failure leaves no temp file.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|file| {
        let mut w = BufWriter::with_capacity(1 << 16, file);
        write(&mut w)?;
        // A dropped `BufWriter` swallows the last write's error.
        w.flush()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
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
            scenario: boxed_text(scenario),
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
        // Equal specs are equally long: the probe's text never regrows.
        let mut probe = String::with_capacity(entry.scenario.len());
        scenario.write(&mut probe);
        (*entry.scenario == probe).then(|| entry.outcome.clone())
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
        write_document(&self.entries, &FILE, usize::MAX, &mut out, |_| Ok(()))
            .expect("the sink never fails");
        out
    }

    /// Streams [`to_json_string`](Self::to_json_string)'s bytes into `w`,
    /// a line at a time through one reused line buffer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut line = String::new();
        let drain = |line: &mut String| {
            w.write_all(line.as_bytes())?;
            line.clear();
            Ok(())
        };
        write_document(&self.entries, &FILE, usize::MAX, &mut line, drain).map(|_| ())
    }

    /// Writes the store file: [`write_to`](Self::write_to) a temp sibling,
    /// renamed into place ([`write_atomic`]) — a save that fails or is
    /// killed leaves the previous file as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        write_atomic(path.as_ref(), |w| self.write_to(w))?;
        Ok(())
    }

    /// Appends to `out` the store document holding the entries from index
    /// `from` on, as it travels in a frame (no newlines: what
    /// `Json::to_string` writes for the document), stopping before an entry
    /// — other than the first — that would take the document past
    /// `max_bytes`. Returns the index of the first entry left out
    /// (`len()` when the page reaches the end): the next page's `from`.
    pub fn write_page(&self, from: usize, max_bytes: usize, out: &mut String) -> usize {
        let rest = self.entries.get(from..).unwrap_or_default();
        let written =
            write_document(rest, &WIRE, max_bytes, out, |_| Ok(())).expect("the sink never fails");
        from + written
    }

    /// A store of already-decoded entries. They are put in canonical order
    /// whatever order they came in (writer-produced files are already
    /// sorted; hand-reordered ones are re-canonicalized so `record`'s
    /// sorted insertion stays valid). Duplicate keys would make lookups
    /// ambiguous — they are rejected.
    pub fn from_entries(mut entries: Vec<StoreEntry>) -> Result<Self, StoreError> {
        // Strictly increasing is sorted and duplicate-free in one pass;
        // only a file someone reordered pays for the sort.
        let ordered = entries
            .windows(2)
            .all(|w| w[0].sort_key() < w[1].sort_key());
        if !ordered {
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
        }
        Ok(OutcomeStore { entries })
    }

    /// Parses a store document, verifying the schema version first.
    pub fn from_json_str(text: &str) -> Result<Self, StoreError> {
        let mut cur = Cursor::new(text);
        cur.skip_ws();
        let read = read_document(&mut cur)?;
        cur.finish()?;
        Self::from_entries(read?)
    }

    /// Loads a store file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json_str(&text)
    }
}

/// What a store document says once it is known to be JSON: its entries, or
/// why it is not a store this build reads.
type Verdict = Result<Vec<StoreEntry>, StoreError>;

/// The one store reader: walks the document `cur` stands on —
/// `{"schema": …, "entries": [e, e, …]}` in any layout, a file's or a
/// frame's — decoding each entry where it stands, so the document is never
/// held as a tree. It answers exactly what parsing the whole text and then
/// decoding would: a syntax error anywhere is the `Err` (wherever a
/// decoding problem sits), the first `"schema"` member is judged before any
/// entry (wherever it sits), then a missing `"entries"` array, then the
/// first entry that does not decode. Members it does not know, and repeats
/// of the two it does, are checked for syntax and ignored. The entries come
/// back in document order, not yet checked for order or duplicates
/// ([`OutcomeStore::from_entries`]).
pub fn read_document(cur: &mut Cursor<'_>) -> Result<Verdict, JsonError> {
    let mut schema: Option<Result<(), StoreError>> = None;
    let mut entries: Option<Verdict> = None;
    // An "entries" member met before the schema was judged: decoded last.
    let mut early: Option<Cursor<'_>> = None;
    if cur.peek() == Some(b'{') {
        let mut more = cur.open(b'{')?;
        while more {
            let key = cur.key()?;
            if key == "schema" && schema.is_none() {
                schema = Some(read_schema(cur)?);
            } else if key == "entries" && entries.is_none() && early.is_none() {
                match schema {
                    Some(Ok(())) => entries = Some(read_entries(cur)?),
                    Some(Err(_)) => cur.skip()?,
                    None => {
                        early = Some(cur.clone());
                        cur.skip()?;
                    }
                }
            } else {
                cur.skip()?;
            }
            more = cur.more(b'}')?;
        }
    } else {
        cur.skip()?;
    }
    if let Err(e) = schema.unwrap_or_else(|| Err(missing("\"schema\" string"))) {
        return Ok(Err(e));
    }
    if let Some(mut at) = early {
        entries = Some(read_entries(&mut at)?);
    }
    Ok(entries.unwrap_or_else(|| Err(missing("\"entries\" array"))))
}

/// A top-level member that is absent or of the wrong JSON type.
fn missing(what: &str) -> StoreError {
    StoreError::Malformed(format!("missing {what}"))
}

/// The `"schema"` member's value, judged.
fn read_schema(cur: &mut Cursor<'_>) -> Result<Result<(), StoreError>, JsonError> {
    if cur.lead()? != b'"' {
        cur.skip()?;
        return Ok(Err(missing("\"schema\" string")));
    }
    Ok(match cur.string()? {
        found if found == SCHEMA => Ok(()),
        found => Err(StoreError::SchemaMismatch {
            found: found.into_owned(),
            expected: SCHEMA,
        }),
    })
}

/// The `"entries"` member's value, decoded entry by entry. After the first
/// entry that does not decode the rest is only checked for syntax.
fn read_entries(cur: &mut Cursor<'_>) -> Result<Verdict, JsonError> {
    if cur.lead()? != b'[' {
        cur.skip()?;
        return Ok(Err(missing("\"entries\" array")));
    }
    let mut verdict = Ok(Vec::new());
    let mut more = cur.open(b'[')?;
    while more {
        match &mut verdict {
            Ok(entries) => match StoreEntry::read(cur)? {
                Ok(entry) => entries.push(entry),
                Err(m) => {
                    let index = entries.len();
                    verdict = Err(StoreError::Malformed(format!("entry {index}: {m}")));
                }
            },
            Err(_) => cur.skip()?,
        }
        more = cur.more(b']')?;
    }
    Ok(verdict)
}

// ---------------------------------------------------------------------------
// The wire codec: one description per type, read in both directions.
// ---------------------------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

/// What reading one value answers: `Err` is a syntax error, which outranks
/// every decode error wherever either sits; `Ok(Err)` is a value that is
/// JSON but does not decode, with why.
type Read<T> = Result<DecodeResult<T>, JsonError>;

/// A type with exactly one canonical JSON shape. Everything the store,
/// `st-serve` frames, job specs and logs, the fuzz corpus and counterexample
/// files carry is written and read through an impl of this trait, so
/// encoder and decoder cannot disagree: leaves and composition by hand
/// below, every struct and enum by a `wire_struct!` / `wire_enum!` field
/// list. Private — the public surface is [`write_scenario`],
/// [`StoreEntry`]'s line codec and the `encode_*` / `decode_*` adapters.
trait Wire: Sized {
    /// Appends the canonical encoding to `out`.
    fn write(&self, out: &mut String);
    /// Decodes the value `cur` stands on and steps past it, whether or not
    /// it decodes — so a caller can go on checking the syntax of what
    /// follows. The exact inverse of `write`; every rejected input is an
    /// `Err`, never a panic.
    fn read(cur: &mut Cursor<'_>) -> Read<Self>;
}

/// Steps past a value of the wrong shape: the decode error `what`.
fn wrong<T>(cur: &mut Cursor<'_>, what: &str) -> Read<T> {
    cur.skip()?;
    Ok(Err(what.to_string()))
}

/// Walks the object `cur` stands on, handing `member` each key with the
/// cursor on its value (which `member` steps past); any other value is
/// skipped. Every object shape is read through this.
pub(crate) fn members<'a>(
    cur: &mut Cursor<'a>,
    mut member: impl FnMut(&str, &mut Cursor<'a>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if cur.lead()? != b'{' {
        return cur.skip();
    }
    let mut more = cur.open(b'{')?;
    while more {
        let key = cur.key()?;
        member(&key, cur)?;
        more = cur.more(b'}')?;
    }
    Ok(())
}

/// A listed member once its object is walked: the first occurrence's
/// value, or why there is none.
fn field<T>(slot: Option<DecodeResult<T>>, name: &str) -> DecodeResult<T> {
    match slot {
        None => Err(format!("missing field {name:?}")),
        Some(read) => read.map_err(|e| format!("field {name:?}: {e}")),
    }
}

/// The tag of the object `cur` stands on: its first `"kind"` member, if
/// that is a string. Read ahead on a copy of the cursor, which in a
/// canonical document stops at the first member; a syntax error met on
/// the way is the one the walk would meet.
fn kind_tag<'a>(cur: &Cursor<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    let mut ahead = cur.clone();
    let mut more = ahead.open(b'{')?;
    while more {
        if ahead.key()? == "kind" {
            return Ok(match ahead.lead()? {
                b'"' => Some(ahead.string()?),
                _ => None,
            });
        }
        ahead.skip()?;
        more = ahead.more(b'}')?;
    }
    Ok(None)
}

/// A member's wire name: the field's own name unless `as "name"` renames it.
macro_rules! wire_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $name:literal) => {
        $name
    };
}

/// Reads the object `$cur` stands on into one local per listed field,
/// named after it: `None` if the member is absent, else the first
/// occurrence's decoded value or error. Repeats and members not listed are
/// only checked for syntax; any other value leaves every local `None`.
macro_rules! read_fields {
    ($cur:ident; $($field:ident $(as $name:literal)?),* $(,)?) => {
        $(let mut $field = None;)*
        members($cur, |key, cur| {
            match key {
                $(wire_name!($field $($name)?) if $field.is_none() => {
                    $field = Some(Wire::read(cur)?);
                })*
                _ => cur.skip()?,
            }
            Ok(())
        })?;
    };
}

/// Appends `items` as a JSON array, each written by `each`.
fn write_list<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut each: impl FnMut(I::Item, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        each(item, out);
    }
    out.push(']');
}

/// Walks the array `cur` stands on, folding each element into the
/// accumulator with `item` (which steps past it) until one does not
/// decode; the rest is only checked for syntax. Any other value is "not an
/// array".
fn read_list<'a, A>(
    cur: &mut Cursor<'a>,
    init: A,
    mut item: impl FnMut(A, &mut Cursor<'a>) -> Read<A>,
) -> Read<A> {
    if cur.lead()? != b'[' {
        return wrong(cur, "not an array");
    }
    let mut acc = Ok(init);
    let mut more = cur.open(b'[')?;
    while more {
        acc = match acc {
            Ok(acc) => item(acc, cur)?,
            Err(e) => {
                cur.skip()?;
                Err(e)
            }
        };
        more = cur.more(b']')?;
    }
    Ok(acc)
}

/// An object being written canonically: `{"name": value, …}`.
struct Obj<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> Obj<'o> {
    fn open(out: &'o mut String) -> Self {
        out.push('{');
        Obj { out, empty: true }
    }

    /// The buffer, standing where member `name`'s value goes.
    fn member(&mut self, name: &str) -> &mut String {
        if !self.empty {
            self.out.push_str(", ");
        }
        self.empty = false;
        json::write_string(name, self.out);
        self.out.push_str(": ");
        self.out
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// The two elements of a pair written as a 2-element array.
fn write_pair<A: Wire, B: Wire>(a: &A, b: &B, out: &mut String) {
    out.push('[');
    a.write(out);
    out.push_str(", ");
    b.write(out);
    out.push(']');
}

/// Reads [`write_pair`]'s array: the first element's error, then the
/// second's, and any array of another length is "not a 2-element array".
fn read_pair<A: Wire, B: Wire>(cur: &mut Cursor<'_>) -> Read<(A, B)> {
    if cur.lead()? != b'[' {
        return wrong(cur, "not a 2-element array");
    }
    let (mut a, mut b, mut len) = (None, None, 0usize);
    let mut more = cur.open(b'[')?;
    while more {
        match len {
            0 => a = Some(A::read(cur)?),
            1 => b = Some(B::read(cur)?),
            _ => cur.skip()?,
        }
        len += 1;
        more = cur.more(b']')?;
    }
    Ok(match (a, b, len) {
        (Some(a), Some(b), 2) => a.and_then(|a| b.map(|b| (a, b))),
        _ => Err("not a 2-element array".into()),
    })
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                json::write_u64(*self as u64, out);
            }
            fn read(cur: &mut Cursor<'_>) -> Read<Self> {
                if !cur.lead()?.is_ascii_digit() {
                    return wrong(cur, "not an integer");
                }
                let v = cur.u64()?;
                Ok(<$ty>::try_from(v).map_err(|_| format!("{v} does not fit {}", stringify!($ty))))
            }
        }
    )*};
}
wire_int!(u64, usize, u32);

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        match cur.lead()? {
            b't' | b'f' => Ok(cur.value()?.as_bool().ok_or_else(|| "not a bool".into())),
            _ => wrong(cur, "not a bool"),
        }
    }
}

impl Wire for String {
    fn write(&self, out: &mut String) {
        json::write_string(self, out);
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        match cur.lead()? {
            b'"' => Ok(Ok(cur.string()?.into_owned())),
            _ => wrong(cur, "not a string"),
        }
    }
}

impl Wire for ProcSet {
    fn write(&self, out: &mut String) {
        self.bits().write(out);
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        Ok(u64::read(cur)?.map(ProcSet::from_bits))
    }
}

impl Wire for ProcessId {
    fn write(&self, out: &mut String) {
        self.index().write(out);
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        Ok(usize::read(cur)?.and_then(|i| match i {
            i if i < st_core::MAX_PROCESSES => Ok(ProcessId::new(i)),
            i => Err(format!("process index {i} out of range")),
        }))
    }
}

impl Wire for Universe {
    fn write(&self, out: &mut String) {
        self.n().write(out);
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        Ok(usize::read(cur)?
            .and_then(|n| Universe::new(n).map_err(|_| format!("invalid universe size {n}"))))
    }
}

impl Wire for (u64, u64) {
    fn write(&self, out: &mut String) {
        write_pair(&self.0, &self.1, out);
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        read_pair(cur)
    }
}

/// The adversary's witness pair `(P, Q)`.
impl Wire for (ProcSet, ProcSet) {
    fn write(&self, out: &mut String) {
        let mut obj = Obj::open(out);
        self.0.write(obj.member("p"));
        self.1.write(obj.member("q"));
        obj.close();
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        read_fields!(cur; p, q);
        let decoded = || -> DecodeResult<Self> { Ok((field(p, "p")?, field(q, "q")?)) };
        Ok(decoded())
    }
}

impl Wire for Schedule {
    fn write(&self, out: &mut String) {
        write_list(out, self.iter(), |p, out| p.write(out));
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        Ok(Vec::read(cur)?.map(Schedule::from_steps))
    }
}

impl Wire for CrashPlan {
    fn write(&self, out: &mut String) {
        write_list(out, self.entries(), |(p, step), out| {
            write_pair(&p, &step, out)
        });
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        read_list(cur, CrashPlan::new(), |plan, cur| {
            Ok(read_pair(cur)?.map(|(p, step)| plan.crash(p, step)))
        })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.write(out),
        }
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        if cur.lead()? == b'n' {
            cur.skip()?;
            return Ok(Ok(None));
        }
        Ok(T::read(cur)?.map(Some))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut String) {
        write_list(out, self, |item, out| item.write(out));
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        read_list(cur, Vec::new(), |mut items, cur| {
            Ok(T::read(cur)?.map(|item| {
                items.push(item);
                items
            }))
        })
    }
}

impl<T: Wire> Wire for Box<T> {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        Ok(T::read(cur)?.map(Box::new))
    }
}

/// What a field-list macro knows about its type: the source of
/// PROTOCOL.md's encoding reference ([`encoding_reference`]).
trait Table {
    /// What decode errors and the reference call the type.
    const WHAT: &'static str;
    /// Unit variants, written as bare name strings.
    const NAMES: &'static [&'static str];
    /// Object shapes, `(kind tag, members in written order)`: one per
    /// field-carrying variant, or a struct's single untagged row.
    const ROWS: &'static [(&'static str, &'static [&'static str])];
}

/// Declares a struct's wire shape — an object holding the listed fields in
/// list order, each named after the field (or `as "name"`) and typed by the
/// struct definition — and derives both directions from that one list.
macro_rules! wire_struct {
    ($ty:ty as $what:literal { $($field:ident $(as $name:literal)?),* $(,)? }) => {
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                let Self { $($field),* } = self;
                let mut obj = Obj::open(out);
                $($field.write(obj.member(wire_name!($field $($name)?)));)*
                obj.close();
            }
            fn read(cur: &mut Cursor<'_>) -> Read<Self> {
                read_fields!(cur; $($field $(as $name)?),*);
                let decoded = || -> DecodeResult<Self> {
                    Ok(Self { $($field: field($field, wire_name!($field $($name)?))?),* })
                };
                Ok(decoded())
            }
        }
        impl Table for $ty {
            const WHAT: &'static str = $what;
            const NAMES: &'static [&'static str] = &[];
            const ROWS: &'static [(&'static str, &'static [&'static str])] =
                &[("", &[$(wire_name!($field $($name)?)),*])];
        }
    };
}

/// Declares an enum's wire shape and derives both directions from it. Unit
/// variants (listed before the `;`) are bare name strings. A variant with
/// fields is an object whose first member is `"kind": "<Variant>"`, then
/// the listed fields as in [`wire_struct!`]; `Variant(Payload) { … }` lists
/// the fields of a newtype variant's payload struct, written flat into the
/// same object. Adding a field-only variant is one line here.
macro_rules! wire_enum {
    ($ty:ty as $what:literal {
        $($unit:ident),* ;
        $($variant:ident $(($payload:ident))? { $($fields:tt)* })*
    }) => {
        wire_enum!(@impl $ty, $what, [$($unit)*] $($variant [$($payload)?] { $($fields)* })*);
    };
    (@impl $ty:ty, $what:literal, [$($unit:ident)*] $(
        $variant:ident $payload:tt { $($field:ident $(as $name:literal)?),* $(,)? }
    )*) => {
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                match self {
                    $(Self::$unit => json::write_string(stringify!($unit), out),)*
                    $(wire_enum!(@ctor $variant $payload { $($field),* }) => {
                        let mut obj = Obj::open(out);
                        json::write_string(stringify!($variant), obj.member("kind"));
                        $($field.write(obj.member(wire_name!($field $($name)?)));)*
                        obj.close();
                    })*
                }
            }
            fn read(cur: &mut Cursor<'_>) -> Read<Self> {
                let unknown = |tag: &str| Err(format!("unknown {} {tag:?}", $what));
                let tag = match cur.lead()? {
                    b'"' => {
                        return Ok(match &*cur.string()? {
                            $(stringify!($unit) => Ok(Self::$unit),)*
                            other => unknown(other),
                        });
                    }
                    b'{' => kind_tag(cur)?,
                    _ => None,
                };
                match tag.as_deref() {
                    $(Some(stringify!($variant)) => {
                        read_fields!(cur; $($field $(as $name)?),*);
                        let decoded = || -> DecodeResult<Self> {
                            Ok(wire_enum!(@ctor $variant $payload {
                                $($field: field($field, wire_name!($field $($name)?))?),*
                            }))
                        };
                        Ok(decoded())
                    })*
                    Some(other) => {
                        let unknown = unknown(other);
                        cur.skip()?;
                        Ok(unknown)
                    }
                    None => wrong(cur, concat!("not a ", $what, ": no \"kind\" string")),
                }
            }
        }
        impl Table for $ty {
            const WHAT: &'static str = $what;
            const NAMES: &'static [&'static str] = &[$(stringify!($unit)),*];
            const ROWS: &'static [(&'static str, &'static [&'static str])] =
                &[$((stringify!($variant), &[$(wire_name!($field $($name)?)),*])),*];
        }
    };
    (@ctor $variant:ident [] { $($body:tt)* }) => {
        Self::$variant { $($body)* }
    };
    (@ctor $variant:ident [$payload:ident] { $($body:tt)* }) => {
        Self::$variant($payload { $($body)* })
    };
}

// --- the tables: the whole format -------------------------------------------

wire_enum!(GeneratorSpec as "generator" { ;
    RoundRobin { over }
    Bursty { burst }
    SeededRandom { over, seed_offset, weights }
    SetTimely { p, q, bound, filler, crashes }
    Eventually { prefix, prefix_len, body }
    Figure1 { p1, p2, q }
    GeneralizedFigure1 { p, q }
    RotatingStarvation { k, base }
    FictitiousCrash { i, j, t, k, base }
    Cycle { period }
    AlternatingRotation { groups, base }
    CrashAfter { inner, plan }
    Flapping { p, q, bound, filler, timely_dwell, untimely_dwell, seed_offset }
    GrayFailure { inner, gray, stretch, seed_offset }
    BurstClog { inner, clogger, window, gap, seed_offset }
    CrashRecovery { inner, victim, crash, rejoin }
    Replay { of, schedule }
});

wire_enum!(TimeoutPolicy as "timeout policy" { Increment, Double; });
wire_enum!(FdAbi as "FD ABI" { Async, MachineSlot, MachineFleet; });
wire_enum!(FdDetector as "FD detector" { SetBased, ProcessBased; });
wire_enum!(StopRule as "stop rule" { BudgetOnly, AllCorrectDecided; });
wire_enum!(StackKind as "protocol" { FdParallelPaxos, Trivial; });
wire_enum!(FleetReplayDrive as "fleet replay drive" { Plain; Soa { slice_len } });
wire_struct!(CertifyTimely as "certification" { i, j, cap, prefix_len });

wire_enum!(Workload as "workload" { ;
    FdConvergence { k, t, policy, abi, detector, certify_membership }
    Agreement { t, k, inputs, policy, certify }
    AdversarialAgreement { t, k, inputs, policy, precrashed, witness }
    BgReduction { n_sim, k, max_reads }
    LeanConvergence { t, policy, drive }
    LeanAgreement { t, policy, drive }
    WideFdConvergence { k, t, policy, drive }
});

wire_struct!(Scenario as "scenario" {
    label, universe as "n", generator, workload, stop, budget, seed, faulty
});

/// The one irregular enum: three bare names and a tuple variant whose
/// payload is the member `"process"`.
impl Wire for RunStatus {
    fn write(&self, out: &mut String) {
        match self {
            RunStatus::Stopped => json::write_string("Stopped", out),
            RunStatus::MaxSteps => json::write_string("MaxSteps", out),
            RunStatus::SourceEnded => json::write_string("SourceEnded", out),
            RunStatus::Stuck(p) => {
                let mut obj = Obj::open(out);
                json::write_string("Stuck", obj.member("kind"));
                p.write(obj.member("process"));
                obj.close();
            }
        }
    }
    fn read(cur: &mut Cursor<'_>) -> Read<Self> {
        match cur.lead()? {
            b'"' => Ok(match &*cur.string()? {
                "Stopped" => Ok(RunStatus::Stopped),
                "MaxSteps" => Ok(RunStatus::MaxSteps),
                "SourceEnded" => Ok(RunStatus::SourceEnded),
                other => Err(format!("unknown run status {other:?}")),
            }),
            b'{' if kind_tag(cur)?.as_deref() == Some("Stuck") => {
                read_fields!(cur; process);
                Ok(field(process, "process").map(RunStatus::Stuck))
            }
            _ => wrong(cur, "run status is neither a name nor a Stuck object"),
        }
    }
}

wire_struct!(TimelyPair as "timely pair" { p, q, bound });
wire_struct!(Stabilization as "winnerset stabilization" { winnerset, step });
wire_struct!(KAntiOmegaWitness as "k-anti-Ω witness" { trusted, from_step });
wire_struct!(LeanStabilization as "leader stabilization" { leader, step });
wire_struct!(WideFdStabilization as "wide stabilization" { winnerset_code, members, step });

wire_enum!(OutcomeData as "outcome data" { ;
    Fd(FdOutcome) { status, steps, membership, stabilization, witness, late_flaps }
    Agreement(AgreementScenarioOutcome) {
        kind as "protocol", status, decided_at, decisions, correct, violations, clean, safe,
        certified
    }
    Adversarial(AdversarialOutcome) {
        status, decided, blocked, safe, freeze_events, max_frozen, certificate
    }
    Bg(BgOutcome) {
        status, stalled, distinct_simulator_values, simulator_decisions, simulated_decisions,
        host_steps, live_sched_len, max_live_bound
    }
    Lean(LeanOutcome) {
        status, steps, stabilization, publications, late_flaps, decided, distinct_values
    }
    WideFd(WideFdOutcome) { status, steps, stabilization, publications, late_flaps }
});

wire_enum!(AgreementViolation as "agreement violation" { ;
    KAgreement { values, k }
    Validity { process, value }
    Termination { undecided }
});

wire_enum!(InvariantViolation as "invariant violation" { ;
    KAgreement { values, k }
    Validity { process, value }
    Termination { undecided }
    BallotOwnership { instance, process, mbal, bal }
    AccusedTimelyWinnerset { winnerset }
    GuaranteeBroken { p, q, bound, observed }
    CrashWindowResurrection { process, position }
    FaultyLeaderElected { leader }
});

wire_struct!(ScenarioOutcome as "outcome" { rank, label, data, violations, counterexample });

// --- the public entry points ------------------------------------------------

/// Appends a scenario's canonical encoding to `out`. Equal scenarios write
/// equal bytes: this is the resume staleness guard's comparison key, and
/// what every store line, job spec and submit frame carries.
pub fn write_scenario(s: &Scenario, out: &mut String) {
    s.write(out);
}

/// Decodes the scenario `cur` stands on (the inverse of
/// [`write_scenario`]) and holds it to [`Scenario::validate`]: `Err` is a
/// syntax error, `Ok(Err)` why the value is refused.
pub(crate) fn read_scenario(cur: &mut Cursor<'_>) -> Read<Scenario> {
    Ok(Scenario::read(cur)?.and_then(|scenario| scenario.validate().map(|()| scenario)))
}

/// Appends an outcome's canonical encoding to `out`.
pub(crate) fn write_outcome(o: &ScenarioOutcome, out: &mut String) {
    o.write(out);
}

/// Decodes the outcome `cur` stands on (the inverse of `write_outcome`).
pub(crate) fn read_outcome(cur: &mut Cursor<'_>) -> Read<ScenarioOutcome> {
    ScenarioOutcome::read(cur)
}

/// A value's canonical encoding as a tree, for callers that hold trees.
///
/// # Panics
///
/// On a value nested past the JSON parser's depth cap, which no spec or
/// outcome this workspace builds comes near.
fn tree<T: Wire>(value: &T) -> Json {
    let mut text = String::new();
    value.write(&mut text);
    Json::parse(&text).expect("the writer's bytes parse back")
}

/// Decodes a tree by reading its text: the one decoder, for callers that
/// hold trees. A tree nested past the parser's depth cap is an `Err`.
fn from_tree<T>(j: &Json, read: impl FnOnce(&mut Cursor<'_>) -> Read<T>) -> DecodeResult<T> {
    let text = j.to_string();
    read(&mut Cursor::new(&text)).unwrap_or_else(|e| Err(e.to_string()))
}

/// A scenario's canonical encoding ([`write_scenario`]) as a tree.
pub fn encode_scenario(s: &Scenario) -> Json {
    tree(s)
}

/// Decodes a scenario tree (exact inverse of [`encode_scenario`]:
/// `encode_scenario(&decode_scenario(j)?) == *j` for writer-produced
/// documents — property-tested over arbitrary spec trees), refusing what
/// [`write_scenario`]'s reader refuses.
pub fn decode_scenario(j: &Json) -> Result<Scenario, String> {
    from_tree(j, read_scenario)
}

/// Decodes a generator spec tree written by the canonical encoder (exact
/// inverse over every [`GeneratorSpec`] variant).
pub fn decode_generator(j: &Json) -> Result<GeneratorSpec, String> {
    from_tree(j, GeneratorSpec::read)
}

/// An outcome's canonical encoding, as the store writes it, as a tree.
pub fn encode_outcome(out: &ScenarioOutcome) -> Json {
    tree(out)
}

/// Decodes an outcome tree (exact inverse of [`encode_outcome`]: the round
/// trip is byte-preserving for writer-produced documents).
pub fn decode_outcome(j: &Json) -> Result<ScenarioOutcome, String> {
    from_tree(j, read_outcome)
}

/// The generated half of PROTOCOL.md's "Scenario and outcome encoding"
/// section: every table above as one bullet per written shape — a bare
/// name string, or an object's members in written order (`"kind"` with its
/// tag first, where the type is tagged). `tests/wire.rs` holds the
/// document to this text.
pub fn encoding_reference() -> String {
    fn section<T: Table>(out: &mut String) {
        out.push_str(&format!("- **{}**\n", T::WHAT));
        for name in T::NAMES {
            out.push_str(&format!("  - `\"{name}\"`\n"));
        }
        for (kind, members) in T::ROWS {
            let tag = (!kind.is_empty()).then(|| format!("\"kind\": \"{kind}\""));
            let members = members.iter().map(|m| format!("\"{m}\""));
            let all: Vec<String> = tag.into_iter().chain(members).collect();
            out.push_str(&format!("  - `{{{}}}`\n", all.join(", ")));
        }
    }
    let mut out = String::new();
    section::<Scenario>(&mut out);
    section::<GeneratorSpec>(&mut out);
    section::<Workload>(&mut out);
    section::<TimeoutPolicy>(&mut out);
    section::<FdAbi>(&mut out);
    section::<FdDetector>(&mut out);
    section::<FleetReplayDrive>(&mut out);
    section::<CertifyTimely>(&mut out);
    section::<StopRule>(&mut out);
    section::<ScenarioOutcome>(&mut out);
    section::<OutcomeData>(&mut out);
    section::<StackKind>(&mut out);
    section::<TimelyPair>(&mut out);
    section::<Stabilization>(&mut out);
    section::<KAntiOmegaWitness>(&mut out);
    section::<LeanStabilization>(&mut out);
    section::<WideFdStabilization>(&mut out);
    section::<InvariantViolation>(&mut out);
    section::<AgreementViolation>(&mut out);
    out
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
    fn a_failed_save_leaves_the_previous_file_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("st-store-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("outcomes.json");
        let files = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };

        let scenario = sample_scenario(1);
        let mut store = OutcomeStore::new();
        store.record("T", &scenario, &scenario.run());
        store.save(&path).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        assert_eq!(before, store.to_json_string());
        assert_eq!(files(), ["outcomes.json"]);

        // A writer that dies part-way, past the buffer so bytes reached disk.
        let failed = write_atomic(&path, |w| {
            w.write_all(&vec![b'x'; 1 << 17])?;
            Err(std::io::Error::other("disk full"))
        });
        assert_eq!(failed.unwrap_err().to_string(), "disk full");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        assert_eq!(files(), ["outcomes.json"]);

        // A save that cannot even start (the temp sibling's place is taken
        // by a directory) fails the same way.
        std::fs::create_dir(dir.join("outcomes.json.tmp")).unwrap();
        assert!(matches!(store.save(&path), Err(StoreError::Io(_))));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        std::fs::remove_dir(dir.join("outcomes.json.tmp")).unwrap();

        // And the next good save replaces the file whole.
        store.record("U", &scenario, &scenario.run());
        store.save(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            store.to_json_string()
        );
        assert_eq!(files(), ["outcomes.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pages_are_the_wire_document_in_bounded_pieces() {
        let mut store = OutcomeStore::new();
        for (rank, seed) in [(0usize, 1u64), (1, 2), (2, 3), (5, 4), (9, 5)] {
            let scenario = sample_scenario(seed);
            let mut outcome = scenario.run();
            outcome.rank = rank;
            store.record("E2", &scenario, &outcome);
        }
        // Unbounded, a page is the whole document exactly as the tree of
        // the file would serialize: the bytes `fetch-outcomes` always sent.
        let whole = Json::parse(&store.to_json_string()).unwrap().to_string();
        let mut page = String::from("prefix");
        assert_eq!(store.write_page(0, usize::MAX, &mut page), 5);
        assert_eq!(&page["prefix".len()..], whole);

        let empty = Json::parse(&OutcomeStore::new().to_json_string()).unwrap();
        for from in [5, 6] {
            let mut page = String::new();
            assert_eq!(store.write_page(from, usize::MAX, &mut page), from);
            assert_eq!(page, empty.to_string());
        }

        // Bounded, every page is a store document within the bound (or one
        // entry), and the pages' entries are the store's, in order.
        for bound in [
            0,
            1,
            whole.len() / 5,
            whole.len() / 2,
            whole.len() - 1,
            whole.len(),
        ] {
            let mut entries = Vec::new();
            let mut from = 0usize;
            while from < store.len() {
                let mut page = String::new();
                let next = store.write_page(from, bound, &mut page);
                assert!(next > from, "a page holds at least one entry");
                assert!(page.len() <= bound || next == from + 1, "bound {bound}");
                let read = OutcomeStore::from_json_str(&page).expect("a page is a store");
                assert_eq!(read.entries(), &store.entries()[from..next]);
                entries.extend(read.entries().iter().cloned());
                from = next;
            }
            let joined = OutcomeStore::from_entries(entries).unwrap();
            assert_eq!(joined.to_json_string(), store.to_json_string());
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
