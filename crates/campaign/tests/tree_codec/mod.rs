//! The tree codec the streaming one replaced, kept as the reference the
//! streaming reader and writer are held to (`tests/tree_oracle.rs`,
//! `tests/store_stream.rs`). Everything from `type DecodeResult` to the
//! last table is the store module's codec as it was when values went
//! through a [`Json`] tree in both directions — the trait, the leaves,
//! the two field-list macros and every table — copied verbatim; only the
//! entry points at the bottom are this file's own.
#![allow(dead_code)]

use st_agreement::StackKind;
use st_campaign::{
    AdversarialOutcome, AgreementScenarioOutcome, BgOutcome, CertifyTimely, FdAbi, FdDetector,
    FdOutcome, FleetReplayDrive, InvariantViolation, LeanOutcome, LeanStabilization, OutcomeData,
    Scenario, ScenarioOutcome, StopRule, WideFdOutcome, WideFdStabilization, Workload,
};
use st_core::{AgreementViolation, Json, ProcSet, ProcessId, Schedule, TimelyPair, Universe};
use st_fd::convergence::{KAntiOmegaWitness, Stabilization};
use st_fd::TimeoutPolicy;
use st_sched::{CrashPlan, GeneratorSpec};
use st_sim::RunStatus;

type DecodeResult<T> = Result<T, String>;

/// A type with exactly one canonical JSON shape. Everything the store,
/// `st-serve` frames, the fuzz corpus and counterexample files carry is
/// written and read through an impl of this trait, so encoder and decoder
/// cannot disagree: leaves and composition by hand below, every
/// struct and enum by a `wire_struct!` / `wire_enum!` field list.
/// Private — the public surface is the `encode_*` / `decode_*` functions.
trait Wire: Sized {
    /// The canonical encoding.
    fn to_json(&self) -> Json;
    /// The exact inverse; every rejected input is an `Err`, never a panic.
    fn from_json(j: &Json) -> DecodeResult<Self>;
}

/// Decodes member `name` of object `j`, naming it in any error.
fn member<T: Wire>(j: &Json, name: &str) -> DecodeResult<T> {
    let v = j
        .get(name)
        .ok_or_else(|| format!("missing field {name:?}"))?;
    T::from_json(v).map_err(|e| format!("field {name:?}: {e}"))
}

/// The two elements of a pair written as a 2-element array.
fn pair<A: Wire, B: Wire>(j: &Json) -> DecodeResult<(A, B)> {
    match j.as_arr() {
        Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
        _ => Err("not a 2-element array".into()),
    }
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
            fn from_json(j: &Json) -> DecodeResult<Self> {
                let v = j.as_u64().ok_or("not an integer")?;
                <$ty>::try_from(v).map_err(|_| format!("{v} does not fit {}", stringify!($ty)))
            }
        }
    )*};
}
wire_int!(u64, usize, u32);

impl Wire for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        j.as_bool().ok_or_else(|| "not a bool".into())
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::str(self.clone())
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".into())
    }
}

impl Wire for ProcSet {
    fn to_json(&self) -> Json {
        Json::U64(self.bits())
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        u64::from_json(j).map(ProcSet::from_bits)
    }
}

impl Wire for ProcessId {
    fn to_json(&self) -> Json {
        self.index().to_json()
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        match usize::from_json(j)? {
            i if i < st_core::MAX_PROCESSES => Ok(ProcessId::new(i)),
            i => Err(format!("process index {i} out of range")),
        }
    }
}

impl Wire for Universe {
    fn to_json(&self) -> Json {
        self.n().to_json()
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        let n = usize::from_json(j)?;
        Universe::new(n).map_err(|_| format!("invalid universe size {n}"))
    }
}

impl Wire for (u64, u64) {
    fn to_json(&self) -> Json {
        Json::arr([self.0.to_json(), self.1.to_json()])
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        pair(j)
    }
}

/// The adversary's witness pair `(P, Q)`.
impl Wire for (ProcSet, ProcSet) {
    fn to_json(&self) -> Json {
        Json::obj([("p", self.0.to_json()), ("q", self.1.to_json())])
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        Ok((member(j, "p")?, member(j, "q")?))
    }
}

impl Wire for Schedule {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(|p| p.to_json()))
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        Vec::from_json(j).map(Schedule::from_steps)
    }
}

impl Wire for CrashPlan {
    fn to_json(&self) -> Json {
        Json::arr(
            self.entries()
                .map(|(p, step)| Json::arr([p.to_json(), step.to_json()])),
        )
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        let entries = j.as_arr().ok_or("not an array")?;
        entries.iter().try_fold(CrashPlan::new(), |plan, e| {
            let (p, step) = pair(e)?;
            Ok(plan.crash(p, step))
        })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        match j {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(T::to_json))
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        let items = j.as_arr().ok_or("not an array")?;
        items.iter().map(T::from_json).collect()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        T::from_json(j).map(Box::new)
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

/// A member's wire name: the field's own name unless `as "name"` renames it.
macro_rules! wire_name {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $name:literal) => {
        $name
    };
}

/// Declares a struct's wire shape — an object holding the listed fields in
/// list order, each named after the field (or `as "name"`) and typed by the
/// struct definition — and derives both directions from that one list.
macro_rules! wire_struct {
    ($ty:ty as $what:literal { $($field:ident $(as $name:literal)?),* $(,)? }) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                let Self { $($field),* } = self;
                Json::obj([$((wire_name!($field $($name)?), $field.to_json())),*])
            }
            fn from_json(j: &Json) -> DecodeResult<Self> {
                Ok(Self { $($field: member(j, wire_name!($field $($name)?))?),* })
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
            fn to_json(&self) -> Json {
                match self {
                    $(Self::$unit => Json::str(stringify!($unit)),)*
                    $(wire_enum!(@ctor $variant $payload { $($field),* }) => Json::obj([
                        ("kind", Json::str(stringify!($variant))),
                        $((wire_name!($field $($name)?), $field.to_json())),*
                    ]),)*
                }
            }
            fn from_json(j: &Json) -> DecodeResult<Self> {
                let unknown = |tag: &str| Err(format!("unknown {} {tag:?}", $what));
                match j {
                    Json::Str(name) => match name.as_str() {
                        $(stringify!($unit) => Ok(Self::$unit),)*
                        other => unknown(other),
                    },
                    _ => match j.get("kind").and_then(Json::as_str) {
                        $(Some(stringify!($variant)) => Ok(wire_enum!(@ctor $variant $payload {
                            $($field: member(j, wire_name!($field $($name)?))?),*
                        })),)*
                        Some(other) => unknown(other),
                        None => Err(format!("not a {}: no \"kind\" string", $what)),
                    },
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
    fn to_json(&self) -> Json {
        match self {
            RunStatus::Stopped => Json::str("Stopped"),
            RunStatus::MaxSteps => Json::str("MaxSteps"),
            RunStatus::SourceEnded => Json::str("SourceEnded"),
            RunStatus::Stuck(p) => {
                Json::obj([("kind", Json::str("Stuck")), ("process", p.to_json())])
            }
        }
    }
    fn from_json(j: &Json) -> DecodeResult<Self> {
        match j {
            Json::Str(s) => match s.as_str() {
                "Stopped" => Ok(RunStatus::Stopped),
                "MaxSteps" => Ok(RunStatus::MaxSteps),
                "SourceEnded" => Ok(RunStatus::SourceEnded),
                other => Err(format!("unknown run status {other:?}")),
            },
            Json::Obj(_) if j.get("kind").and_then(Json::as_str) == Some("Stuck") => {
                Ok(RunStatus::Stuck(member(j, "process")?))
            }
            _ => Err("run status is neither a name nor a Stuck object".into()),
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

// --- the reference's entry points ------------------------------------------

/// The tree codec's scenario encoding.
pub fn encode_scenario(s: &Scenario) -> Json {
    s.to_json()
}

/// The tree codec's scenario decoding — the field lists only: the checks
/// `decode_scenario` adds are judged on the decoded value, not on the
/// document.
pub fn decode_scenario(j: &Json) -> DecodeResult<Scenario> {
    Scenario::from_json(j)
}

/// The tree codec's generator decoding.
pub fn decode_generator(j: &Json) -> DecodeResult<GeneratorSpec> {
    GeneratorSpec::from_json(j)
}

/// The tree codec's outcome encoding.
pub fn encode_outcome(out: &ScenarioOutcome) -> Json {
    out.to_json()
}

/// The tree codec's outcome decoding.
pub fn decode_outcome(j: &Json) -> DecodeResult<ScenarioOutcome> {
    ScenarioOutcome::from_json(j)
}

/// A decoded store entry: campaign key, rank, the spec's tree, the outcome.
pub type Entry = (String, usize, Json, ScenarioOutcome);

/// The entry decoder of the tree era (`StoreEntry::from_json`), verbatim
/// but for what it builds: the spec is kept as the tree it was.
pub fn decode_entry(e: &Json) -> DecodeResult<Entry> {
    let campaign = member(e, "campaign")?;
    let rank: usize = member(e, "rank")?;
    let scenario = e
        .get("scenario")
        .ok_or("missing field \"scenario\"")?
        .clone();
    let outcome: ScenarioOutcome = member(e, "outcome")?;
    if outcome.rank != rank {
        return Err(format!(
            "entry rank {rank} disagrees with outcome rank {}",
            outcome.rank
        ));
    }
    Ok((campaign, rank, scenario, outcome))
}

/// An entry's line as the tree era wrote it.
pub fn entry_line((campaign, rank, scenario, outcome): &Entry) -> String {
    Json::obj([
        ("campaign", Json::str(campaign.as_str())),
        ("rank", Json::U64(*rank as u64)),
        ("scenario", scenario.clone()),
        ("outcome", encode_outcome(outcome)),
    ])
    .to_string()
}

/// PROTOCOL.md's encoding reference as the tree codec's tables render it.
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
