//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics with the span each is read from.
//! `BENCHMARK.json` is generated from these tables ([`manifest`]) and a unit
//! test holds the committed file to them, so the harness, its comparator
//! and the driver agree on every name, unit and bound.

use std::collections::BTreeMap;

use crate::stats::{median, percentile};
use crate::trace::Span;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`, and the
/// harness's default `--seconds`).
pub const RUN_SECONDS: u64 = 8;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "paper_tables",
        why: "stlab all in-process: every table of the paper, all layers at once",
    },
    WorkloadDef {
        name: "campaign_batch",
        why: "4096 small-n agreement scenarios via run_parallel(1): per-scenario overhead dominates; no store, no socket",
    },
    WorkloadDef {
        name: "campaign_served",
        why: "the same scenarios as 1024-scenario jobs through an in-process st-serve daemon: store encode and checkpoint writes dominate",
    },
    WorkloadDef {
        name: "store_resume",
        why: "load, skip-all resume and save against a 50 176-entry outcome store: the read-heavy use of store and JSON; no simulator steps",
    },
    WorkloadDef {
        name: "fleet_bursty",
        why: "lean and wide fleets at n=64..1024 on bursty schedules, plain and SoA drives: long dwells, SoA's design case",
    },
    WorkloadDef {
        name: "fleet_interleaved",
        why: "the same fleet cells on round-robin schedules: stride-n interleaving, where SoA at n=1024 loses to plain",
    },
    WorkloadDef {
        name: "timeliness_sweep",
        why: "set-timeliness analysis of n=12 schedules: core.timeliness does all the work, the simulator is never entered",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract); what
/// a pass and a unit of work are per workload is tabulated in the README.
pub const END_TO_END: [EndToEndDef; 4] = [
    EndToEndDef {
        name: "pass_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// How a per-layer metric is read from the spans of one name. A cost is
/// the fastest of them — the same floor estimate as the end-to-end timing
/// (see `run.rs`), for the same reason.
#[derive(Clone, Copy, Debug)]
pub enum Read {
    /// Shortest span duration (scale `1e3` = ms).
    Dur,
    /// Least span duration over its count (scale `1e9` = ns per item).
    PerCount,
    /// Greatest span count over its duration in seconds (scale `1e-6` with
    /// a byte count = MB/s).
    Rate,
    /// Median span duration: a latency as clients see it.
    MedianDur,
    /// Median of the spans' counts.
    MedianCount,
}

/// Where a span-backed metric comes from.
#[derive(Clone, Debug)]
pub struct Source {
    pub span: String,
    pub read: Read,
    pub scale: f64,
}

pub struct LayerDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// `None`: computed from other spans and metrics by the run (`run.rs`).
    pub source: Option<Source>,
}

/// The fleet cells `(cell, universe size)`; each runs on both drives.
pub const FLEET_CELLS: [(&str, usize); 6] = [
    ("lean_conv", 64),
    ("lean_conv", 256),
    ("lean_conv", 1024),
    ("lean_agree", 256),
    ("wide_fd", 64),
    ("wide_fd", 256),
];
pub const FLEET_DRIVES: [&str; 2] = ["plain", "soa"];

/// The analyzer cells: schedule × `(i, j)`.
pub const SWEEP_SCHEDULES: [&str; 2] = ["rr", "rnd"];
pub const SWEEP_CELLS: [(usize, usize); 3] = [(2, 2), (3, 3), (2, 4)];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. The
/// span a metric is read from is named beside it; the README's per-layer
/// tables say which public function each span wraps.
pub fn per_layer() -> Vec<LayerDef> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, source: Option<Source>| {
        defs.push(LayerDef {
            name: name.to_string(),
            unit,
            better,
            source,
        })
    };
    let from = |span: &str, read: Read, scale: f64| {
        Some(Source {
            span: span.to_string(),
            read,
            scale,
        })
    };
    let dur = |span: &str, scale: f64| from(span, Read::Dur, scale);
    let per = |span: &str, scale: f64| from(span, Read::PerCount, scale);
    let rate = |span: &str| from(span, Read::Rate, 1e-6);
    let count = |span: &str| from(span, Read::MedianCount, 1.0);
    const DERIVED: Option<Source> = None;

    // Ladder on the single E3 cell (n=8, k=3, t=4).
    add(
        "sim.memory.word_rw_ns",
        "ns",
        Lower,
        per("sim.memory.word_rw", 1e9),
    );
    add("sched.build_us", "us", Lower, per("sched.build", 1e6));
    add(
        "sched.pull_ns_per_step",
        "ns",
        Lower,
        per("sched.pull", 1e9),
    );
    add(
        "agreement.stack_build_us",
        "us",
        Lower,
        per("agreement.stack_build", 1e6),
    );
    add(
        "sim.runner.machine_slot_ns_per_step",
        "ns",
        Lower,
        per("sim.runner.machine_slot", 1e9),
    );
    add(
        "sim.runner.replay_plain_ns_per_step",
        "ns",
        Lower,
        per("sim.runner.replay_plain", 1e9),
    );
    add(
        "campaign.scenario.unchecked_ns_per_step",
        "ns",
        Lower,
        per("campaign.scenario.unchecked", 1e9),
    );
    add(
        "campaign.scenario.checked_ns_per_step",
        "ns",
        Lower,
        per("campaign.scenario.checked", 1e9),
    );
    add("campaign.invariant.overhead_ratio", "ratio", Lower, DERIVED);
    add(
        "campaign.scenario.unattributed_ns_per_step",
        "ns",
        Lower,
        DERIVED,
    );
    add(
        "campaign.campaign.us_per_scenario",
        "us",
        Lower,
        per("campaign.campaign.run_parallel_1w", 1e6),
    );
    add("core.parallel.speedup_2w", "ratio", Higher, DERIVED);

    // Store and wire.
    add(
        "campaign.store.encode_outcome_us",
        "us",
        Lower,
        per("campaign.store.encode_outcome", 1e6),
    );
    add(
        "campaign.store.record_us",
        "us",
        Lower,
        per("campaign.store.record", 1e6),
    );
    add(
        "campaign.store.to_json_ms",
        "ms",
        Lower,
        dur("campaign.store.to_json", 1e3),
    );
    add(
        "campaign.store.save_ms",
        "ms",
        Lower,
        dur("campaign.store.save", 1e3),
    );
    add(
        "campaign.store.from_json_ms",
        "ms",
        Lower,
        dur("campaign.store.from_json", 1e3),
    );
    add(
        "campaign.store.load_ms",
        "ms",
        Lower,
        dur("campaign.store.load", 1e3),
    );
    add(
        "campaign.store.lookup_us",
        "us",
        Lower,
        per("campaign.store.lookup", 1e6),
    );
    add(
        "campaign.store.checkpoint_bytes_per_job",
        "count",
        Lower,
        count("campaign.store.checkpoint"),
    );
    add("campaign.campaign.chunk_overhead_us", "us", Lower, DERIVED);
    add(
        "core.json.to_string_mb_per_s",
        "MB/s",
        Higher,
        rate("core.json.to_string"),
    );
    add(
        "core.json.parse_mb_per_s",
        "MB/s",
        Higher,
        rate("core.json.parse"),
    );
    add(
        "core.frame.small_rtt_us",
        "us",
        Lower,
        per("core.frame.small_rtt", 1e6),
    );
    add(
        "core.frame.store_mb_per_s",
        "MB/s",
        Higher,
        rate("core.frame.store"),
    );

    // Daemon, around the client's calls.
    add("serve.hello_rtt_us", "us", Lower, per("serve.hello", 1e6));
    add("serve.submit_ms", "ms", Lower, dur("serve.submit", 1e3));
    add("serve.run_wait_ms", "ms", Lower, dur("serve.run_wait", 1e3));
    add("serve.fetch_ms", "ms", Lower, dur("serve.fetch", 1e3));
    add(
        "serve.polls_per_job",
        "count",
        Lower,
        count("serve.run_wait"),
    );
    add("serve.overhead_ratio", "ratio", Lower, DERIVED);
    add(
        "serve.job_ms_p50",
        "ms",
        Lower,
        from("serve.job", Read::MedianDur, 1e3),
    );
    add("serve.job_ms_p80", "ms", Lower, DERIVED);

    // Fleet cells through Scenario::run, then the drives alone.
    for (cell, n) in FLEET_CELLS {
        for drive in FLEET_DRIVES {
            let span = format!("sim.fleet.{cell}.n{n}.{drive}");
            add(&format!("{span}.ns_per_step"), "ns", Lower, per(&span, 1e9));
        }
    }
    add(
        "sim.runner.replay_plain_ns_per_step.n256",
        "ns",
        Lower,
        per("sim.runner.replay_plain.n256", 1e9),
    );
    add(
        "sim.soa.replay_ns_per_step.n256",
        "ns",
        Lower,
        per("sim.soa.replay.n256", 1e9),
    );
    add(
        "sim.memory.span_read_ns_per_word",
        "ns",
        Lower,
        per("sim.memory.span_read", 1e9),
    );
    add(
        "campaign.scenario.fleet_overhead_ns_per_step",
        "ns",
        Lower,
        DERIVED,
    );

    // Analyzer.
    add(
        "core.timeliness.decompose_ms",
        "ms",
        Lower,
        dur("core.timeliness.decompose", 1e3),
    );
    for sched in SWEEP_SCHEDULES {
        for (i, j) in SWEEP_CELLS {
            add(
                &format!("core.timeliness.pairs_ms.{sched}.{i}x{j}"),
                "ms",
                Lower,
                dur(&format!("core.timeliness.pairs.{sched}.{i}x{j}"), 1e3),
            );
        }
    }
    add(
        "core.timeliness.sweep_matrix_ms",
        "ms",
        Lower,
        dur("core.timeliness.sweep_matrix", 1e3),
    );
    add(
        "core.timeliness.prefix_bounds_ms",
        "ms",
        Lower,
        dur("core.timeliness.prefix_bounds", 1e3),
    );

    // Lab: one span per experiment.
    for id in st_lab::ALL_EXPERIMENTS {
        add(
            &format!("lab.{id}_s"),
            "s",
            Lower,
            dur(&format!("lab.{id}"), 1.0),
        );
    }

    // Traced over untraced pass wall of the same run.
    add("trace_overhead_ratio", "ratio", Lower, DERIVED);
    defs
}

/// Reads every span-backed per-layer metric from `spans`. A metric whose
/// span never ran, and every derived metric, is absent from the result.
pub fn extract(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for def in per_layer() {
        let Some(Source { span, read, scale }) = def.source else {
            continue;
        };
        let found: Vec<&Span> = spans.iter().filter(|s| s.name == span).collect();
        if found.is_empty() {
            continue;
        }
        let each = |f: fn(&Span) -> f64| found.iter().map(|s| f(s)).collect::<Vec<f64>>();
        let least = |values: Vec<f64>| values.into_iter().fold(f64::INFINITY, f64::min);
        let per_count = |s: &Span| secs(s) / s.count as f64;
        let value = match read {
            Read::Dur => least(each(secs)) * scale,
            Read::PerCount => least(each(per_count)) * scale,
            Read::Rate => scale / least(each(per_count)),
            Read::MedianDur => median(&each(secs)) * scale,
            Read::MedianCount => median(&each(|s| s.count as f64)) * scale,
        };
        out.insert(def.name, value);
    }
    out
}

fn secs(span: &Span) -> f64 {
    span.dur_ns() as f64 / 1e9
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(secs).collect()
}

/// The 80th percentile of the `serve.job` spans, in ms.
pub fn job_ms_p80(spans: &[Span]) -> f64 {
    percentile(&durations(spans, "serve.job"), 80) * 1e3
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, dur_ns: u64, count: u64) -> Span {
        Span {
            name: name.into(),
            id: String::new(),
            parent: None,
            start_ns: 0,
            end_ns: dur_ns,
            count,
        }
    }

    /// `cargo run ... -- manifest > BENCHMARK.json` regenerates the file.
    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest());
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let ok_char = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok_char), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn extraction_takes_the_fastest_span_and_the_median_latency() {
        let spans = [
            span("sched.pull", 10_000, 1_000), // 10 ns/step
            span("sched.pull", 8_000, 1_000),  // 8
            span("sched.pull", 30_000, 1_000), // 30
            span("campaign.store.to_json", 2_000_000, 0),
            span("campaign.store.to_json", 3_000_000, 0),
            span("core.json.parse", 1_000_000_000, 50_000_000),
            span("core.json.parse", 2_000_000_000, 50_000_000),
            span("serve.run_wait", 5, 17),
            span("serve.job", 4_000_000, 1),
            span("serve.job", 6_000_000, 1),
            span("serve.job", 9_000_000, 1),
        ];
        let got = extract(&spans);
        let close = |name: &str, want: f64| {
            assert!(
                (got[name] - want).abs() < 1e-9 * want,
                "{name}: {}",
                got[name]
            );
        };
        close("sched.pull_ns_per_step", 8.0);
        close("campaign.store.to_json_ms", 2.0);
        close("core.json.parse_mb_per_s", 50.0);
        close("serve.polls_per_job", 17.0);
        close("serve.job_ms_p50", 6.0);
        assert!(!got.contains_key("sched.build_us"), "span never ran");
        assert!(!got.contains_key("trace_overhead_ratio"), "derived");
    }
}
