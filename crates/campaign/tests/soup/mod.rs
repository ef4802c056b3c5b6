//! Bytes in: text strung together from the pieces a store document is made
//! of and from slices of the committed fixture — arbitrary, but close
//! enough to a store that the readers get past the first byte.

/// The committed fixture (`tests/store_fixture.rs`), all ASCII.
pub const GOLDEN: &str = include_str!("../golden/store_v2.json");

const PIECES: [&str; 20] = [
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
    "\"schema\": ",
    "\"entries\": ",
    "\"st-campaign/outcome-store-v2\"",
    "\"kind\": ",
    "null",
    "0",
    "18446744073709551616",
    "-",
    "é",
];

/// The text `picks` draw: each a structural piece, or a slice of the
/// fixture up to 64 bytes long.
pub fn soup(picks: &[u32]) -> String {
    picks
        .iter()
        .map(|&pick| {
            let at = (pick / 32) as usize;
            match PIECES.get((pick % 32) as usize) {
                Some(piece) => piece,
                None => {
                    let start = at % GOLDEN.len();
                    &GOLDEN[start..(start + 1 + at % 64).min(GOLDEN.len())]
                }
            }
        })
        .collect()
}

/// Every prefix of `text` that is a `str`.
pub fn truncations(text: &str) -> impl Iterator<Item = &str> {
    (0..=text.len())
        .filter(|&cut| text.is_char_boundary(cut))
        .map(|cut| &text[..cut])
}
