//! The three protocols that had only a loop transcription until they were
//! ported — the process-timeliness baseline, the trivial `t < k` protocol
//! and the BG simulator — against that transcription, and the fixture's
//! own checks.
//!
//! The transcriptions' runs are kept as data in
//! `tests/fixtures/transcription.json` (see `common` for what a case
//! records and how a machine is held to it). Figure 2, the Paxos proposer
//! and the k-set stack are held to their cases in `tests/differential.rs`.

mod common;

use std::collections::BTreeSet;

use common::{check, fixture, label, FIXTURE};
use set_timeliness::core::json::Json;

#[test]
fn baseline_matches_its_transcription() {
    check(common::baseline_cases());
}

#[test]
fn trivial_matches_its_transcription() {
    check(common::trivial_cases());
}

#[test]
fn bg_simulator_matches_its_transcription() {
    check(common::bg_cases());
}

/// The fixture is canonical JSON, holds each case once, and every case is
/// one of `common`'s.
#[test]
fn the_fixture_holds_every_case_once() {
    let doc = Json::parse(FIXTURE).unwrap();
    assert_eq!(format!("{doc}\n"), FIXTURE, "the fixture is not canonical");
    let labels: Vec<String> = [
        common::kanti_cases(),
        common::paxos_cases(),
        common::kset_cases(),
        common::baseline_cases(),
        common::trivial_cases(),
        common::bg_cases(),
    ]
    .into_iter()
    .flatten()
    .map(|c| c.label)
    .collect();
    let fixture: Vec<String> = fixture().iter().map(|c| label(c).to_string()).collect();
    assert_eq!(fixture, labels);
    assert_eq!(labels.iter().collect::<BTreeSet<_>>().len(), labels.len());
}

/// The comparison is not vacuous: on the fixture, bursty Paxos decides
/// everywhere, the k-set stack decides everywhere on round-robin, the
/// baseline flaps on E8's schedule, and the BG simulators all finish.
#[test]
fn the_fixture_is_not_vacuous() {
    let fixture = fixture();
    let case = |l: &str| fixture.iter().find(|c| label(c) == l).unwrap().clone();
    let all_decided = |c: &Json| {
        let decisions = c.get("decisions").and_then(Json::as_arr).unwrap();
        decisions.iter().all(|d| *d != Json::Null)
    };
    for n in [1, 2, 3, 5] {
        assert!(all_decided(&case(&format!("paxos/bursty/n{n}"))));
    }
    assert!(all_decided(&case("kset/rr/n4/k2/t2")));
    let probes = |c: &Json| c.get("probes").and_then(Json::as_arr).unwrap().len();
    assert!(probes(&case("baseline/alternating/n4/k2/t2/inc")) > 4 * 10);
    let status = |c: &Json| c.get("status").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(status(&case("bg/rr/trivial/k2/nsim5")), "Stopped");
}
