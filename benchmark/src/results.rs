//! Result files: what one run measured, and a set of runs, as canonical
//! JSON (`st_core::json`). That dialect has no floats, so a measured value
//! is written as the decimal string Rust prints for it, which parses back
//! to the same `f64`.

use st_core::Json;

use crate::env::Env;

pub const RUN_SCHEMA: &str = "st-benchmark/run-v1";
pub const SET_SCHEMA: &str = "st-benchmark/results-v1";

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// One run: one process, one workload, one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Campaign worker threads the system could use.
    pub workers: u64,
    pub env: Env,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced
    /// one.
    pub metrics: Vec<Metric>,
    /// The raw series behind the floors: each pass's wall, each set-up.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Deterministic counts: equal between runs of equal seed.
    pub counts: Vec<(String, u64)>,
}

fn num(value: f64) -> Json {
    Json::Str(format!("{value}"))
}

fn as_f64(doc: &Json) -> Option<f64> {
    doc.as_str()?.parse().ok()
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The line the driver reads: the last line of standard output.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(RUN_SCHEMA)),
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::U64(self.seed)),
            ("seconds", Json::U64(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("workers", Json::U64(self.workers)),
            ("env", self.env.to_json()),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "metrics",
                Json::arr(self.metrics.iter().map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name.as_str())),
                        ("unit", Json::str(m.unit.as_str())),
                        ("value", num(m.value)),
                    ])
                })),
            ),
            (
                "samples",
                Json::arr(self.samples.iter().map(|(name, values)| {
                    Json::obj([
                        ("name", Json::str(name.as_str())),
                        ("values", Json::arr(values.iter().copied().map(num))),
                    ])
                })),
            ),
            (
                "counts",
                Json::arr(self.counts.iter().map(|(name, value)| {
                    Json::obj([
                        ("name", Json::str(name.as_str())),
                        ("value", Json::U64(*value)),
                    ])
                })),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let field = |name: &str| doc.get(name).ok_or_else(|| format!("run has no {name:?}"));
        let schema = field("schema")?.as_str().unwrap_or_default();
        if schema != RUN_SCHEMA {
            return Err(format!(
                "run schema is {schema:?}, this build reads {RUN_SCHEMA:?}"
            ));
        }
        let u64_of = |name: &str| {
            field(name)?
                .as_u64()
                .ok_or_else(|| format!("{name:?} is not a number"))
        };
        let list = |name: &str| {
            field(name)?
                .as_arr()
                .ok_or_else(|| format!("{name:?} is not a list"))
        };
        let bad = |what: &str| format!("malformed {what} entry");
        let name_of = |entry: &Json, what: &str| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(what))
        };
        let metrics = list("metrics")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: name_of(m, "metric")?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("metric"))?
                        .to_string(),
                    value: m
                        .get("value")
                        .and_then(as_f64)
                        .ok_or_else(|| bad("metric"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        let samples = list("samples")?
            .iter()
            .map(|s| {
                let values = s
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("sample"))?
                    .iter()
                    .map(|v| as_f64(v).ok_or_else(|| bad("sample")))
                    .collect::<Result<_, String>>()?;
                Ok((name_of(s, "sample")?, values))
            })
            .collect::<Result<_, String>>()?;
        let counts = list("counts")?
            .iter()
            .map(|c| {
                let value = c
                    .get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("count"))?;
                Ok((name_of(c, "count")?, value))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: u64_of("seed")?,
            seconds: u64_of("seconds")?,
            traced: field("traced")?
                .as_bool()
                .ok_or("\"traced\" is not a bool")?,
            workers: u64_of("workers")?,
            env: Env::from_json(field("env")?).ok_or("malformed \"env\"")?,
            attempted: u64_of("attempted")?,
            failed: u64_of("failed")?,
            metrics,
            samples,
            counts,
        })
    }
}

/// A set of runs made by one `run` invocation.
pub fn set_to_json(runs: &[RunResult]) -> Json {
    Json::obj([
        ("schema", Json::str(SET_SCHEMA)),
        ("runs", Json::arr(runs.iter().map(RunResult::to_json))),
    ])
}

pub fn set_from_json(doc: &Json) -> Result<Vec<RunResult>, String> {
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or_default();
    if schema != SET_SCHEMA {
        return Err(format!(
            "results schema is {schema:?}, this build reads {SET_SCHEMA:?}"
        ));
    }
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or("results have no \"runs\" list")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

pub fn load_set(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    set_from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_run(workload: &str, seed: u64, pass_wall_s: f64) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            seconds: 6,
            traced: false,
            workers: 1,
            env: Env {
                nproc: 2,
                hardware_threads: 2,
                rustc: "rustc 1.95.0".into(),
                git_commit: "unknown".into(),
            },
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "pass_wall_s".into(),
                    unit: "s".into(),
                    value: pass_wall_s,
                },
                Metric {
                    name: "work_per_s".into(),
                    unit: "1/s".into(),
                    value: 1.0 / pass_wall_s,
                },
            ],
            samples: vec![("pass_wall_s".into(), vec![pass_wall_s, 0.1 + 0.2, 1e-9])],
            counts: vec![("steps".into(), u64::MAX)],
        }
    }

    #[test]
    fn run_file_round_trips_through_canonical_json() {
        let run = sample_run("campaign_batch", 7, 0.7312894561);
        let text = run.to_json().to_string();
        let back = RunResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, run, "every digit of every value survives");
        assert_eq!(back.to_json().to_string(), text, "and so do the bytes");

        let set = set_to_json(&[run.clone(), sample_run("store_resume", 8, 1.5)]);
        let runs = set_from_json(&Json::parse(&set.to_string()).unwrap()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], run);
    }

    #[test]
    fn other_schemas_are_refused() {
        let doc = Json::obj([("schema", Json::str("st-benchmark/run-v0"))]);
        assert!(RunResult::from_json(&doc).unwrap_err().contains("run-v0"));
        assert!(set_from_json(&doc).unwrap_err().contains("run-v0"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut run = sample_run("campaign_batch", 7, 0.25);
        run.failed = 2;
        assert_eq!(
            run.driver_line(),
            "{\"correct\": false, \"attempted\": 12, \"failed\": 2, \"metrics\": {\
             \"pass_wall_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"work_per_s\": {\"value\": 4, \"unit\": \"1/s\"}}}"
        );
    }
}
