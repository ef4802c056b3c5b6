//! The streaming codec against the tree codec it replaced.
//!
//! The store's `Wire` impls write straight into a buffer and read straight
//! from a `json::Cursor`. The reference is the codec that went through a
//! [`Json`] tree in both directions, kept verbatim in `tests/tree_codec`.
//! Both must give the same value — the same bytes when written — or the
//! same error, variant and text, on every entry of the committed fixture,
//! on `SpecMutator::arbitrary` spec trees, on reordered, repeated and
//! unknown members, on structural damage, at every truncation point and
//! under bit flips.
//!
//! Hand mutants of the streaming reader, each applied to a copy of
//! `store.rs`, and the test here that fails on it:
//! - *last duplicate wins* (a repeated member overwrites the first):
//!   `repeated_and_unknown_members_read_as_the_tree_reads_them`;
//! - *`"kind"` required first* (the tag is looked for in the first member
//!   only): `reordered_members_read_as_the_tree_reads_them`;
//! - *a decode error reported before a later syntax error* (a field that
//!   does not decode ends the read): `every_truncation_of_a_damaged_line_is_the_same_error`;
//! - *field errors in document order* (the first bad member met is the one
//!   named): `two_bad_fields_are_named_in_declaration_order`.

mod soup;
mod tree_codec;

use proptest::prelude::*;
use st_campaign::store::{
    decode_generator, decode_outcome, decode_scenario, encode_outcome, encode_scenario,
    encoding_reference, write_scenario,
};
use st_campaign::{FdAbi, FdDetector, Scenario, StoreEntry, Workload};
use st_core::{Json, Universe};
use st_fd::TimeoutPolicy;
use st_sched::{SpecMutator, SpecRng};

fn golden_entries() -> Vec<Json> {
    let doc = Json::parse(soup::GOLDEN).unwrap();
    doc.get("entries").and_then(Json::as_arr).unwrap().to_vec()
}

/// The two entry-line readers agree on `text`.
fn same_entry_line(text: &str) {
    let streamed = StoreEntry::from_json_line(text);
    let tree = Json::parse(text).map(|e| tree_codec::decode_entry(&e));
    match (streamed, tree) {
        (Ok(Ok(entry)), Ok(Ok(reference))) => {
            let mut line = String::new();
            entry.write_json_line(&mut line);
            assert_eq!(line, tree_codec::entry_line(&reference), "{text}");
        }
        (Ok(Err(a)), Ok(Err(b))) => assert_eq!(a, b, "{text}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{text}"),
        (a, b) => panic!("streamed {a:?} but the tree codec {b:?} on {text}"),
    }
}

/// The two scenario decoders agree on `j`. `decode_scenario` also holds a
/// decoded value to what running it asserts; where only it refuses, the
/// refusal must be the one the tree codec's value earns on its own.
fn same_scenario(j: &Json) {
    match (decode_scenario(j), tree_codec::decode_scenario(j)) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{j}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{j}"),
        (Err(a), Ok(b)) => {
            let canonical = tree_codec::encode_scenario(&b);
            assert_eq!(decode_scenario(&canonical), Err(a), "{j}");
        }
        (a, b) => panic!("streamed {a:?} but the tree codec {b:?} on {j}"),
    }
}

fn same_outcome(j: &Json) {
    assert_eq!(decode_outcome(j), tree_codec::decode_outcome(j), "{j}");
}

fn same_generator(j: &Json) {
    assert_eq!(decode_generator(j), tree_codec::decode_generator(j), "{j}");
}

/// Every reader this file holds to the reference, on `entry` (an entry
/// object) and on its spec, generator and outcome.
fn same_everywhere(entry: &Json) {
    same_entry_line(&entry.to_string());
    if let Some(scenario) = entry.get("scenario") {
        same_scenario(scenario);
        if let Some(generator) = scenario.get("generator") {
            same_generator(generator);
        }
    }
    if let Some(outcome) = entry.get("outcome") {
        same_outcome(outcome);
    }
}

#[test]
fn the_tables_and_the_written_bytes_are_the_tree_codecs() {
    assert_eq!(encoding_reference(), tree_codec::encoding_reference());
    for entry in golden_entries() {
        let scenario = tree_codec::decode_scenario(entry.get("scenario").unwrap()).unwrap();
        let outcome = tree_codec::decode_outcome(entry.get("outcome").unwrap()).unwrap();
        let mut text = String::new();
        write_scenario(&scenario, &mut text);
        assert_eq!(text, tree_codec::encode_scenario(&scenario).to_string());
        assert_eq!(
            encode_scenario(&scenario),
            tree_codec::encode_scenario(&scenario)
        );
        assert_eq!(
            encode_outcome(&outcome),
            tree_codec::encode_outcome(&outcome)
        );
        same_everywhere(&entry);
    }
}

/// An FD scenario around `generator`, at `n`.
fn around(generator: st_sched::GeneratorSpec, n: usize, seed: u64) -> Scenario {
    Scenario::new(
        format!("arbitrary/{seed}"),
        Universe::new(n).unwrap(),
        generator,
        Workload::FdConvergence {
            k: 1,
            t: 1,
            policy: TimeoutPolicy::Double,
            abi: FdAbi::MachineFleet,
            detector: FdDetector::ProcessBased,
            certify_membership: true,
        },
        1_000,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary spec trees: the same bytes written, the same value read,
    /// and the same answer on every variation of the document.
    #[test]
    fn arbitrary_spec_trees_are_written_and_read_as_the_tree_codec_does(
        seed in any::<u64>(), n in 2usize..9, depth in 0usize..4
    ) {
        let mut rng = SpecRng::new(seed);
        let generator = SpecMutator::new(Universe::new(n).unwrap()).arbitrary(&mut rng, depth);
        let scenario = around(generator, n, seed);
        let reference = tree_codec::encode_scenario(&scenario);
        let mut text = String::new();
        write_scenario(&scenario, &mut text);
        prop_assert_eq!(&text, &reference.to_string());
        same_scenario(&reference);
        for variant in variations(&reference, &mut rng) {
            same_scenario(&variant);
            if let Some(generator) = variant.get("generator") {
                same_generator(generator);
            }
        }
    }
}

/// `j` with every object's members in reverse order.
fn reversed(j: &Json) -> Json {
    match j {
        Json::Arr(items) => Json::Arr(items.iter().map(reversed).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), reversed(v)))
                .collect(),
        ),
        scalar => scalar.clone(),
    }
}

/// `j` with every object's members in a seeded order.
fn shuffled(j: &Json, rng: &mut SpecRng) -> Json {
    match j {
        Json::Arr(items) => Json::Arr(items.iter().map(|c| shuffled(c, rng)).collect()),
        Json::Obj(members) => {
            let mut members: Vec<(String, Json)> = members
                .iter()
                .map(|(k, v)| (k.clone(), shuffled(v, rng)))
                .collect();
            for i in (1..members.len()).rev() {
                members.swap(i, rng.below(i as u64 + 1) as usize);
            }
            Json::Obj(members)
        }
        scalar => scalar.clone(),
    }
}

/// `j` with every object's members repeated after it — each repeat
/// carrying another member's value, so a reader that let a later
/// occurrence win would read something else — and a stranger member
/// between them.
fn with_repeats_and_strangers(j: &Json) -> Json {
    match j {
        Json::Arr(items) => Json::Arr(items.iter().map(with_repeats_and_strangers).collect()),
        Json::Obj(members) if !members.is_empty() => {
            let firsts: Vec<(String, Json)> = members
                .iter()
                .map(|(k, v)| (k.clone(), with_repeats_and_strangers(v)))
                .collect();
            let mut all = firsts.clone();
            all.push(("zz_stranger".into(), Json::arr([Json::Null, j.clone()])));
            for (i, (k, _)) in members.iter().enumerate() {
                let other = &firsts[(i + 1) % firsts.len()].1;
                all.push((k.clone(), other.clone()));
            }
            Json::Obj(all)
        }
        scalar => scalar.clone(),
    }
}

/// The layouts and member orders a spec or outcome may arrive in.
fn variations(j: &Json, rng: &mut SpecRng) -> Vec<Json> {
    vec![
        reversed(j),
        shuffled(j, rng),
        with_repeats_and_strangers(j),
        with_repeats_and_strangers(&reversed(j)),
    ]
}

#[test]
fn reordered_members_read_as_the_tree_reads_them() {
    let mut rng = SpecRng::new(5);
    for entry in golden_entries() {
        same_everywhere(&reversed(&entry));
        for _ in 0..8 {
            same_everywhere(&shuffled(&entry, &mut rng));
        }
    }
}

#[test]
fn repeated_and_unknown_members_read_as_the_tree_reads_them() {
    for entry in golden_entries() {
        same_everywhere(&with_repeats_and_strangers(&entry));
        same_everywhere(&with_repeats_and_strangers(&reversed(&entry)));
    }
}

/// The values an injury puts in a node's place.
fn injury(pick: u64, tags: &[String]) -> Json {
    match pick % 7 {
        0 => Json::Null,
        1 => Json::str("Bogus"),
        2 => Json::arr([]),
        3 => Json::U64(u64::MAX),
        4 => Json::U64(5_000),
        5 => Json::Obj(vec![]),
        _ => Json::Str(tags[(pick / 7) as usize % tags.len()].clone()),
    }
}

/// Every `"kind"` tag and bare variant name the fixture holds.
fn tags(j: &Json, out: &mut Vec<String>) {
    match j {
        Json::Str(s) => out.push(s.clone()),
        Json::Arr(items) => items.iter().for_each(|c| tags(c, out)),
        Json::Obj(members) => members.iter().for_each(|(_, c)| tags(c, out)),
        _ => {}
    }
}

/// `j` with its `target`-th node in preorder replaced by `value`.
fn replaced(j: &Json, target: &mut usize, value: &Json) -> Json {
    if *target == 0 {
        *target = usize::MAX;
        return value.clone();
    }
    *target = target.wrapping_sub(1);
    match j {
        Json::Arr(items) => Json::Arr(items.iter().map(|c| replaced(c, target, value)).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), replaced(v, target, value)))
                .collect(),
        ),
        scalar => scalar.clone(),
    }
}

fn node_count(j: &Json) -> usize {
    1 + match j {
        Json::Arr(items) => items.iter().map(node_count).sum(),
        Json::Obj(members) => members.iter().map(|(_, c)| node_count(c)).sum(),
        _ => 0,
    }
}

#[test]
fn every_single_injury_reads_as_the_tree_reads_it() {
    let entries = golden_entries();
    let mut pool = Vec::new();
    tags(&Json::Arr(entries.clone()), &mut pool);
    for entry in &entries {
        for node in 1..node_count(entry) {
            for pick in [0, 1, 2, 3, 4, 5, 6 + 7 * node as u64] {
                let injured = replaced(entry, &mut node.clone(), &injury(pick, &pool));
                same_everywhere(&injured);
                same_everywhere(&reversed(&injured));
            }
        }
    }
}

#[test]
fn two_bad_fields_are_named_in_declaration_order() {
    // An outcome with a bad `label` (declared second) before a bad `rank`
    // (declared first) in the document: the tree codec names `rank`.
    for entry in golden_entries() {
        let Some(Json::Obj(members)) = entry.get("outcome") else {
            panic!("outcomes are objects")
        };
        let mut members = members.clone();
        members.reverse();
        for (name, value) in members.iter_mut() {
            if name == "rank" || name == "label" || name == "data" {
                *value = Json::arr([]);
            }
        }
        let outcome = Json::Obj(members);
        same_outcome(&outcome);
        assert!(tree_codec::decode_outcome(&outcome)
            .unwrap_err()
            .starts_with("field \"rank\": "));
        let Json::Obj(mut fields) = entry.clone() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "outcome");
        fields.insert(0, ("outcome".into(), outcome));
        same_entry_line(&Json::Obj(fields).to_string());
    }
}

#[test]
fn every_truncation_is_the_same_error() {
    for entry in golden_entries() {
        let line = entry.to_string();
        for cut in 0..=line.len() {
            same_entry_line(&line[..cut]);
        }
    }
}

#[test]
fn every_truncation_of_a_damaged_line_is_the_same_error() {
    // A field that does not decode early in the line, then every cut after
    // it, or trailing garbage: the syntax error outranks the field.
    for entry in golden_entries().iter().take(4) {
        let damaged = replaced(entry, &mut 2, &Json::str("not a rank")).to_string();
        let damaged_outcome =
            entry
                .to_string()
                .replacen("\"status\": \"", "\"status\": \"Bogus", 1);
        for line in [damaged, damaged_outcome] {
            for cut in 0..=line.len() {
                same_entry_line(&line[..cut]);
            }
            same_entry_line(&format!("{line} }}"));
            same_entry_line(&format!("{line},"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One flipped bit anywhere in an entry line, in the writer's order or
    /// reversed: the same entry or the same error.
    #[test]
    fn a_flipped_bit_reads_as_the_tree_reads_it(
        which in 0usize..12, at in 0usize..4_000, bit in 0u32..7, reverse in any::<bool>()
    ) {
        let entries = golden_entries();
        let entry = &entries[which % entries.len()];
        let entry = if reverse { reversed(entry) } else { entry.clone() };
        let mut bytes = entry.to_string().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        // The fixture is ASCII and bit 7 stays clear: still a `str`.
        same_entry_line(&String::from_utf8(bytes).expect("ASCII stays ASCII"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bytes in: arbitrary entry-shaped text, bare and behind a good start,
    /// and every truncation of it — the entry-line reader answers what the
    /// tree codec does, a typed error or an entry, and never unwinds.
    #[test]
    fn any_text_and_every_truncation_reads_as_the_tree_reads_it(
        picks in prop::collection::vec(any::<u32>(), 0..16)
    ) {
        let text = soup::soup(&picks);
        let started = format!("{{\"campaign\": \"c\", \"rank\": 0, \"outcome\": {text}");
        for text in [text, started] {
            for cut in soup::truncations(&text) {
                same_entry_line(cut);
            }
        }
    }
}
