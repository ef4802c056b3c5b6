//! The streamed store reader against the reader it replaced.
//!
//! `OutcomeStore::from_json_str` walks a store document with a
//! [`st_core::json::Cursor`] and decodes each entry where it stands. The
//! oracle here is what it did before streaming: `Json::parse` of the whole
//! text, then schema, then every entry through the tree codec
//! (`tests/tree_codec`), then sort and duplicate check. The two must agree
//! on everything a caller can see — the same store (the same bytes when
//! rewritten), or the same error down to its text — on well-formed
//! documents in any layout and member order, on every kind of damage, at
//! every truncation point and under random byte flips.

mod soup;
mod tree_codec;

use proptest::prelude::*;
use st_campaign::store::SCHEMA;
use st_campaign::{OutcomeStore, StoreError};
use st_core::Json;

const GOLDEN: &str = include_str!("golden/store_v2.json");

/// Whole-document parse, then the tree codec: the reader before
/// streaming, answering the store file it would have written.
fn oracle(text: &str) -> Result<String, StoreError> {
    let doc = Json::parse(text)?;
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
        let entry = tree_codec::decode_entry(e)
            .map_err(|m| StoreError::Malformed(format!("entry {i}: {m}")))?;
        entries.push(entry);
    }
    let key = |e: &tree_codec::Entry| (e.0.clone(), e.1);
    entries.sort_by_key(key);
    if let Some(w) = entries.windows(2).find(|w| key(&w[0]) == key(&w[1])) {
        return Err(StoreError::Malformed(format!(
            "duplicate entries for campaign {:?} rank {}",
            w[0].0, w[0].1
        )));
    }
    let lines: Vec<String> = entries.iter().map(tree_codec::entry_line).collect();
    let mut file = format!("{{\n\"schema\": {},\n\"entries\": [", Json::str(SCHEMA));
    if !lines.is_empty() {
        file.push('\n');
        file.push_str(&lines.join(",\n"));
    }
    file.push_str("\n]\n}\n");
    Ok(file)
}

/// What a caller can tell apart: the variant and every word of the text.
fn error_of(e: &StoreError) -> (std::mem::Discriminant<StoreError>, String) {
    (std::mem::discriminant(e), e.to_string())
}

/// Streamed and oracle agree on `text`; returns what they agreed on.
fn agree(text: &str) -> Result<OutcomeStore, StoreError> {
    let streamed = OutcomeStore::from_json_str(text);
    match (&streamed, &oracle(text)) {
        (Ok(a), Ok(b)) => assert_eq!(&a.to_json_string(), b, "{text}"),
        (Err(a), Err(b)) => assert_eq!(error_of(a), error_of(b), "{text}"),
        (a, b) => panic!("streamed {a:?} but the oracle {b:?} on {text}"),
    }
    streamed
}

/// `doc` with every container broken over lines: `indent` per level,
/// `newline` between items, spaces around the colons and before commas.
fn pretty(doc: &Json, indent: &str, newline: &str) -> String {
    fn go(j: &Json, level: usize, indent: &str, newline: &str, out: &mut String) {
        let pad = |level: usize, out: &mut String| {
            out.push_str(newline);
            out.push_str(&indent.repeat(level));
        };
        match j {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" ,");
                    }
                    pad(level + 1, out);
                    go(item, level + 1, indent, newline, out);
                }
                pad(level, out);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(level + 1, out);
                    out.push_str(&Json::str(k.as_str()).to_string());
                    out.push_str(" : ");
                    go(v, level + 1, indent, newline, out);
                }
                pad(level, out);
                out.push('}');
            }
            scalar_or_empty => out.push_str(&scalar_or_empty.to_string()),
        }
    }
    let mut out = String::from(newline);
    go(doc, 0, indent, newline, &mut out);
    out.push_str(newline);
    out
}

fn golden_doc() -> Json {
    Json::parse(GOLDEN).unwrap()
}

fn golden_entries() -> Vec<Json> {
    let doc = golden_doc();
    doc.get("entries").and_then(Json::as_arr).unwrap().to_vec()
}

fn doc_of(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn store_doc(entries: Vec<Json>) -> Json {
    doc_of(vec![
        ("schema", Json::str(SCHEMA)),
        ("entries", Json::Arr(entries)),
    ])
}

/// Asserts both readers load `text` to the golden store's bytes.
fn loads_as_golden(text: &str) {
    let store = agree(text).unwrap_or_else(|e| panic!("{e} on {text}"));
    assert!(store.to_json_string() == GOLDEN, "{text}");
}

#[test]
fn the_fixture_loads_in_any_layout() {
    loads_as_golden(GOLDEN);
    let doc = golden_doc();
    loads_as_golden(&doc.to_string());
    loads_as_golden(&pretty(&doc, "  ", "\n"));
    loads_as_golden(&pretty(&doc, "\t", "\n"));
    loads_as_golden(&pretty(&doc, "    ", "\r\n"));
    loads_as_golden(&GOLDEN.replace('\n', "\r\n"));
    loads_as_golden(&format!(" \t\r\n{GOLDEN}\n\n  "));
}

#[test]
fn member_order_repeats_and_strangers_do_not_matter() {
    let entries = || Json::Arr(golden_entries());
    let schema = || Json::str(SCHEMA);
    let stranger = || {
        doc_of(vec![
            ("entries", Json::arr([Json::U64(1)])),
            ("schema", Json::str("someone-else/v9")),
            ("note", Json::str("é€𝄞 \"quoted\"\n")),
        ])
    };
    let docs = [
        // The schema after the entries it governs.
        doc_of(vec![("entries", entries()), ("schema", schema())]),
        // Members this build does not know, in every position.
        doc_of(vec![
            ("written_by", stranger()),
            ("schema", schema()),
            ("count", Json::U64(12)),
            ("entries", entries()),
            ("trailer", Json::arr([Json::Null, Json::Bool(true)])),
        ]),
        doc_of(vec![
            ("a", Json::Null),
            ("entries", entries()),
            ("b", stranger()),
            ("schema", schema()),
            ("c", Json::arr([])),
        ]),
        // The first `entries` and the first `schema` are the document's;
        // later ones are ignored, whatever they hold.
        doc_of(vec![
            ("schema", schema()),
            ("entries", entries()),
            ("entries", Json::arr([Json::str("not an entry")])),
            ("schema", Json::str("st-campaign/outcome-store-v0")),
        ]),
        doc_of(vec![
            ("entries", entries()),
            ("entries", Json::Null),
            ("schema", schema()),
            ("schema", Json::U64(3)),
        ]),
    ];
    for doc in &docs {
        loads_as_golden(&doc.to_string());
        loads_as_golden(&pretty(doc, "  ", "\r\n"));
    }
}

fn expect_err(text: &str) -> StoreError {
    match agree(text) {
        Ok(store) => panic!("loaded {} entries from {text}", store.len()),
        Err(e) => e,
    }
}

#[test]
fn the_schema_is_judged_before_any_entry() {
    let garbage = || {
        Json::arr([
            Json::U64(1),
            Json::str("x"),
            doc_of(vec![("campaign", Json::U64(5))]),
        ])
    };
    let old = || Json::str("st-campaign/outcome-store-v1");
    for doc in [
        doc_of(vec![("schema", old()), ("entries", garbage())]),
        doc_of(vec![("entries", garbage()), ("schema", old())]),
        doc_of(vec![("schema", old())]),
        // The first schema member is the one that counts.
        doc_of(vec![
            ("schema", old()),
            ("schema", Json::str(SCHEMA)),
            ("entries", Json::Arr(golden_entries())),
        ]),
    ] {
        for text in [doc.to_string(), pretty(&doc, "\t", "\n")] {
            match expect_err(&text) {
                StoreError::SchemaMismatch { found, expected } => {
                    assert_eq!(found, "st-campaign/outcome-store-v1");
                    assert_eq!(expected, SCHEMA);
                }
                other => panic!("expected SchemaMismatch, got {other:?} on {text}"),
            }
        }
    }
    // No schema string at all outranks everything about the entries too.
    for doc in [
        doc_of(vec![("entries", garbage())]),
        doc_of(vec![("schema", Json::U64(2)), ("entries", garbage())]),
        doc_of(vec![("entries", garbage()), ("schema", Json::Null)]),
        Json::arr([Json::str(SCHEMA)]),
        Json::U64(7),
        Json::str(SCHEMA),
        Json::Obj(vec![]),
    ] {
        match expect_err(&doc.to_string()) {
            StoreError::Malformed(m) => assert_eq!(m, "missing \"schema\" string"),
            other => panic!("expected Malformed, got {other:?} on {doc}"),
        }
    }
    // With a good schema, a garbage `entries` is named by its first entry.
    for doc in [
        doc_of(vec![("schema", Json::str(SCHEMA)), ("entries", garbage())]),
        doc_of(vec![("entries", garbage()), ("schema", Json::str(SCHEMA))]),
    ] {
        match expect_err(&doc.to_string()) {
            StoreError::Malformed(m) => assert!(m.starts_with("entry 0: "), "{m}"),
            other => panic!("expected Malformed, got {other:?} on {doc}"),
        }
    }
    for doc in [
        doc_of(vec![("schema", Json::str(SCHEMA))]),
        doc_of(vec![("schema", Json::str(SCHEMA)), ("entries", Json::Null)]),
        doc_of(vec![
            ("entries", doc_of(vec![("0", Json::Null)])),
            ("schema", Json::str(SCHEMA)),
            // Only the first `entries` member is the document's.
            ("entries", Json::Arr(golden_entries())),
        ]),
    ] {
        match expect_err(&doc.to_string()) {
            StoreError::Malformed(m) => assert_eq!(m, "missing \"entries\" array"),
            other => panic!("expected Malformed, got {other:?} on {doc}"),
        }
    }
}

/// `entry` with member `name` replaced.
fn with_member(entry: &Json, name: &str, value: Json) -> Json {
    let Json::Obj(members) = entry else {
        panic!("entries are objects")
    };
    Json::Obj(
        members
            .iter()
            .map(|(k, v)| (k.clone(), if k == name { value.clone() } else { v.clone() }))
            .collect(),
    )
}

#[test]
fn a_bad_entry_is_named_by_its_index_and_never_half_loads() {
    let good = golden_entries();
    for (i, name, value) in [
        (0, "campaign", Json::U64(1)),
        (3, "rank", Json::str("three")),
        (7, "rank", Json::U64(99)),
        (11, "outcome", Json::Null),
        (5, "scenario", Json::arr([])),
    ] {
        let mut entries = good.clone();
        entries[i] = with_member(&good[i], name, value);
        // A second bad entry further on changes nothing: the first is named.
        if i + 1 < entries.len() {
            entries[i + 1] = Json::Null;
        }
        let doc = store_doc(entries);
        for text in [doc.to_string(), pretty(&doc, "  ", "\n")] {
            match expect_err(&text) {
                // A scenario spec is kept as text, not decoded: any JSON
                // value in its place loads.
                StoreError::Malformed(m) if name == "scenario" => {
                    assert!(m.starts_with(&format!("entry {}: ", i + 1)), "{m}")
                }
                StoreError::Malformed(m) => assert!(m.starts_with(&format!("entry {i}: ")), "{m}"),
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }
    // Damage to the syntax anywhere after a bad entry is still the answer:
    // a document that is not JSON is not judged as a store.
    let mut entries = good.clone();
    entries[2] = Json::Null;
    let text = store_doc(entries).to_string();
    for broken in [
        text.replacen("\"late_flaps\": ", "\"late_flaps\": -", 1),
        format!("{text} trailing"),
        text[..text.len() - 1].to_string(),
    ] {
        assert_ne!(broken, text);
        assert!(
            matches!(expect_err(&broken), StoreError::Json(_)),
            "{broken}"
        );
    }
    // Nesting past the parser's cap inside one entry: the same refusal.
    let deep = Json::parse(&("[".repeat(64) + &"]".repeat(64))).unwrap();
    let mut entries = good.clone();
    entries[4] = with_member(&good[4], "scenario", deep);
    match expect_err(&store_doc(entries).to_string()) {
        StoreError::Json(e) => assert!(e.message.contains("nesting too deep"), "{e}"),
        other => panic!("expected a JSON error, got {other:?}"),
    }
}

#[test]
fn reordered_files_are_recanonicalized_and_duplicates_refused() {
    let good = golden_entries();
    let mut reversed = good.clone();
    reversed.reverse();
    loads_as_golden(&store_doc(reversed).to_string());
    let mut rotated = good.clone();
    rotated.rotate_left(5);
    loads_as_golden(&pretty(&store_doc(rotated), "  ", "\n"));

    for (at, copy_of) in [(12, 0), (1, 0), (6, 11)] {
        let mut entries = good.clone();
        entries.insert(at, good[copy_of].clone());
        match expect_err(&store_doc(entries).to_string()) {
            StoreError::Malformed(m) => {
                assert!(m.starts_with("duplicate entries for campaign "), "{m}");
                let rank = good[copy_of].get("rank").and_then(Json::as_u64).unwrap();
                assert!(m.ends_with(&format!("rank {rank}")), "{m}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}

/// A three-entry store in the writer's own layout.
fn three_entry_store() -> String {
    let text = store_doc(golden_entries()[..3].to_vec()).to_string();
    OutcomeStore::from_json_str(&text).unwrap().to_json_string()
}

#[test]
fn every_truncation_is_the_same_typed_error() {
    let file = three_entry_store();
    let wire = store_doc(golden_entries()[..3].to_vec()).to_string();
    for text in [file, wire] {
        let body = text.trim_end().len();
        for cut in 0..text.len() {
            match agree(&text[..cut]) {
                // Only the newline after the closing brace can go.
                Ok(store) => assert!(cut >= body && store.len() == 3, "cut at {cut}"),
                Err(e) => assert!(matches!(e, StoreError::Json(_)), "cut at {cut}: {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One flipped bit anywhere in the fixture: both readers give the same
    /// store or the same error, and neither panics.
    #[test]
    fn a_flipped_bit_is_read_the_same_way(at in 0usize..GOLDEN.len(), bit in 0u32..7) {
        // The fixture is ASCII and bit 7 stays clear: still a `str`.
        let mut bytes = GOLDEN.as_bytes().to_vec();
        bytes[at] ^= 1 << bit;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        let _ = agree(&text);
    }

    /// Bytes in: arbitrary store-shaped text, bare and behind a good
    /// header, and every truncation of it — both readers give the same
    /// store or the same typed error, and neither unwinds.
    #[test]
    fn any_text_and_every_truncation_is_read_the_same_way(
        picks in prop::collection::vec(any::<u32>(), 0..16)
    ) {
        let text = soup::soup(&picks);
        let headed = format!("{{\"schema\": {}, \"entries\": [{text}", Json::str(SCHEMA));
        for text in [text, headed] {
            for cut in soup::truncations(&text) {
                let _ = agree(cut);
            }
        }
    }

    /// The same over the wire layout and a pretty-printed one, where the
    /// whitespace the flips land in differs.
    #[test]
    fn a_flipped_bit_in_other_layouts_is_read_the_same_way(
        at in 0usize..8_000, bit in 0u32..7, layout in 0usize..2
    ) {
        let doc = golden_doc();
        let text = if layout == 0 { doc.to_string() } else { pretty(&doc, " ", "\r\n") };
        let mut bytes = text.into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let text = String::from_utf8(bytes).expect("ASCII stays ASCII");
        let _ = agree(&text);
    }
}
