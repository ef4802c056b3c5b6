//! What the unit tests of the request and reply readers share: the
//! transcript fixture captured before envelopes were read and written as
//! text (`tests/fixtures/transcript.json`), and arbitrary text strung
//! together from envelope pieces and slices of that transcript.

use st_core::Json;

/// The transcript: one step per line, `{"note", "request", "reply"}`
/// (`reply` `null` where the daemon answered nothing), `{"note", "run"}`
/// for a job the replay runs, and `now` / `why` on a step whose reply
/// changed on purpose.
pub(crate) const TRANSCRIPT: &str = include_str!("../tests/fixtures/transcript.json");

/// The transcript's steps.
pub(crate) fn steps() -> Vec<Json> {
    let steps = Json::parse(TRANSCRIPT).expect("the transcript is JSON");
    steps.as_arr().expect("an array of steps").to_vec()
}

/// The string member `name` of every step that has one.
pub(crate) fn members(name: &str) -> Vec<String> {
    steps()
        .iter()
        .filter_map(|step| Some(step.get(name)?.as_str()?.to_string()))
        .collect()
}

const PIECES: [&str; 22] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\n",
    "\"",
    "\\",
    "\\u00",
    "\"proto\": \"st-serve/v1\"",
    "\"verb\": ",
    "\"key\": ",
    "\"from\": ",
    "\"entries\": ",
    "\"ok\": ",
    "true",
    "null",
    "0",
    "18446744073709551616",
    "é",
];

/// The text `picks` draw: each a structural piece, or a slice of one of
/// `texts` up to 64 bytes long.
pub(crate) fn soup(picks: &[u32], texts: &[String]) -> String {
    picks
        .iter()
        .map(|&pick| {
            let at = (pick / 32) as usize;
            match PIECES.get((pick % 32) as usize) {
                Some(piece) => piece,
                None => {
                    let text = &texts[at % texts.len()];
                    let start = floor(text, at % text.len().max(1));
                    &text[start..floor(text, (start + 1 + at % 64).min(text.len()))]
                }
            }
        })
        .collect()
}

/// The last char boundary of `text` at or before `at`.
fn floor(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Every prefix of `text` that is a `str`.
pub(crate) fn truncations(text: &str) -> impl Iterator<Item = &str> {
    (0..=text.len())
        .filter(|&cut| text.is_char_boundary(cut))
        .map(|cut| &text[..cut])
}
