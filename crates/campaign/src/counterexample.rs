//! Saved counterexamples: a violating scenario plus its outcome, persisted
//! canonically for replay.
//!
//! A [`Counterexample`] bundles the scenario that violated an invariant and
//! the [`ScenarioOutcome`] that recorded the violation (including the
//! executed [`Schedule`](st_core::Schedule) when the workload kept one).
//! The on-disk form is the workspace's canonical JSON — the same dialect
//! and style as the outcome store — versioned by [`CE_SCHEMA`].
//!
//! Replaying re-executes the recorded schedule exactly: the scenario's
//! generator is wrapped in [`GeneratorSpec::Replay`], which inherits the
//! original spec's armed invariant claims, and the budget is pinned to the
//! schedule length. [`Counterexample::reproduces`] then checks that every
//! originally-recorded violation kind fires again.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use st_core::json::{self, Cursor};
use st_sched::GeneratorSpec;

use crate::scenario::{Scenario, ScenarioOutcome};
use crate::store::{
    members, read_outcome, read_scenario, write_outcome, write_scenario, StoreError,
};

/// The on-disk schema for saved counterexamples.
pub const CE_SCHEMA: &str = "st-campaign/counterexample-v1";

/// A violating scenario and the outcome that convicted it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The scenario that violated an invariant.
    pub scenario: Scenario,
    /// Its outcome — at least one violation, and usually a replayable
    /// schedule.
    pub outcome: ScenarioOutcome,
}

impl Counterexample {
    /// Bundles a violating run. Returns `None` when the outcome is clean
    /// (nothing to save).
    pub fn new(scenario: Scenario, outcome: ScenarioOutcome) -> Option<Self> {
        if outcome.violations.is_empty() {
            return None;
        }
        Some(Counterexample { scenario, outcome })
    }

    /// The violation kinds this counterexample witnesses, deduplicated in
    /// stable order.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut seen = BTreeSet::new();
        self.outcome
            .violations
            .iter()
            .map(|v| v.kind())
            .filter(|k| seen.insert(*k))
            .collect()
    }

    /// A scenario that re-executes the recorded schedule exactly, with the
    /// original spec's claims still armed. Falls back to re-running the
    /// original scenario when no schedule was recorded.
    pub fn replay_scenario(&self) -> Scenario {
        let Some(schedule) = &self.outcome.counterexample else {
            return self.scenario.clone();
        };
        let of = self.scenario.generator.clone();
        let mut replay = Scenario::new(
            self.scenario.label.clone(),
            self.scenario.universe,
            GeneratorSpec::replay(of, schedule.clone()),
            self.scenario.workload.clone(),
            schedule.len() as u64,
            self.scenario.seed,
        );
        replay.stop = self.scenario.stop;
        replay
    }

    /// Re-executes the counterexample under the checker and reports the
    /// replayed outcome alongside whether it reproduced.
    pub fn replay(&self) -> (ScenarioOutcome, bool) {
        let out = self.replay_scenario().run();
        let reproduced = self.reproduces(&out);
        (out, reproduced)
    }

    /// Whether `replayed` witnesses every violation kind the original run
    /// recorded.
    pub fn reproduces(&self, replayed: &ScenarioOutcome) -> bool {
        let got: BTreeSet<&str> = replayed.violations.iter().map(|v| v.kind()).collect();
        self.kinds().iter().all(|k| got.contains(k))
    }

    /// Serializes canonically: schema header, scenario, outcome.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"schema\": ");
        json::write_string(CE_SCHEMA, &mut out);
        out.push_str(", \"scenario\": ");
        write_scenario(&self.scenario, &mut out);
        out.push_str(", \"outcome\": ");
        write_outcome(&self.outcome, &mut out);
        out.push_str("}\n");
        out
    }

    /// Parses a counterexample document, verifying the schema version
    /// first. Any member order and whitespace reads; the first occurrence of
    /// each member counts, and the document's syntax is judged before any
    /// of its members.
    pub fn from_json_str(text: &str) -> Result<Self, StoreError> {
        let (mut schema, mut scenario, mut outcome) = (None, None, None);
        let mut cur = Cursor::new(text);
        cur.skip_ws();
        members(&mut cur, |key, cur| {
            match key {
                "schema" if schema.is_none() => {
                    schema = Some(match cur.lead()? {
                        b'"' => Some(cur.string()?.into_owned()),
                        _ => {
                            cur.skip()?;
                            None
                        }
                    })
                }
                "scenario" if scenario.is_none() => scenario = Some(read_scenario(cur)?),
                "outcome" if outcome.is_none() => outcome = Some(read_outcome(cur)?),
                _ => cur.skip()?,
            }
            Ok(())
        })?;
        cur.finish()?;
        let schema = schema
            .flatten()
            .ok_or_else(|| StoreError::Malformed("missing \"schema\" string".into()))?;
        if schema != CE_SCHEMA {
            return Err(StoreError::SchemaMismatch {
                found: schema,
                expected: CE_SCHEMA,
            });
        }
        let scenario = scenario
            .ok_or_else(|| StoreError::Malformed("missing \"scenario\"".into()))?
            .map_err(StoreError::Malformed)?;
        let outcome = outcome
            .ok_or_else(|| StoreError::Malformed("missing \"outcome\"".into()))?
            .map_err(StoreError::Malformed)?;
        if outcome.violations.is_empty() {
            return Err(StoreError::Malformed(
                "counterexample has no violations".into(),
            ));
        }
        Ok(Counterexample { scenario, outcome })
    }

    /// Loads a counterexample file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json_str(&text)
    }

    /// Writes the counterexample file
    /// ([`to_json_string`](Self::to_json_string)).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_json_string())?;
        Ok(())
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let len = self
            .outcome
            .counterexample
            .as_ref()
            .map_or(0, st_core::Schedule::len);
        write!(
            f,
            "counterexample [{}]: kinds {:?}, schedule {} steps",
            self.scenario.label,
            self.kinds(),
            len
        )
    }
}
