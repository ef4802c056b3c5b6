//! The checkpoint segment log: what a running job's outcomes look like on
//! disk before they are compacted into an ordinary store file.
//!
//! `job-<key>.store.log` is a sequence of `\n`-terminated lines. After
//! every chunk the worker appends one **segment** in a single `write_all`:
//! the chunk's fresh entries, each as the exact line an
//! [`OutcomeStore`](st_campaign::OutcomeStore) file holds for it
//! ([`StoreEntry::write_json_line`]), then a **commit line**
//!
//! ```json
//! {"commit": 8, "hash": 1234567890123456789}
//! ```
//!
//! where `commit` counts the segment's entry lines and `hash` is 64-bit
//! FNV-1a over their bytes, newlines included (a run that finds every
//! scenario already recorded commits one empty segment). A job therefore
//! appends O(N) bytes in total — its store plus one commit line per
//! chunk — instead of rewriting the whole store per chunk.
//!
//! # Recovery
//!
//! Replay walks the lines. A commit line that matches the lines since
//! the previous one commits them. Whatever follows the last commit line —
//! entry lines without a commit, half a line, half a commit line — is a
//! **torn tail**: the write a kill interrupted. It is dropped without
//! error, and the worker truncates it away before appending again. A
//! commit line that does *not* match its lines, or a committed line that
//! is not an entry, means the file was damaged after it was written: that
//! is a typed error and the job parks `broken` — a damaged log is never
//! partly reused.
//!
//! Replay decodes a line at a time through the store's own entry-line
//! reader ([`StoreEntry::from_json_line`]), straight from the bytes: what
//! is resident is the log's bytes and the decoded entries, never a
//! document of them and never a tree.

use std::fmt::Write;

use st_campaign::StoreEntry;
use st_core::json::Cursor;

/// What [`replay`] recovered.
pub(crate) struct Replay {
    /// The committed entries, decoded, in log order.
    pub entries: Vec<StoreEntry>,
    /// Bytes up to and including the last commit line; the rest of the
    /// file is a torn tail.
    pub committed_len: usize,
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One segment: `entries` as store lines, then their commit line.
pub(crate) fn segment(entries: &[&StoreEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        entry.write_json_line(&mut out);
        out.push('\n');
    }
    let hash = fnv1a(out.as_bytes());
    writeln!(out, "{{\"commit\": {}, \"hash\": {hash}}}", entries.len())
        .expect("writing to a String cannot fail");
    out
}

/// The `(count, hash)` of a commit line, `None` for any other line: a JSON
/// object whose first `commit` and first `hash` members are integers.
fn parse_commit(line: &[u8]) -> Option<(u64, u64)> {
    if !line.starts_with(b"{\"commit\": ") {
        return None;
    }
    let mut cur = Cursor::new(std::str::from_utf8(line).ok()?);
    let (mut commit, mut hash, mut other) = (None, None, None);
    let mut more = cur.open(b'{').ok()?;
    while more {
        let slot = match &*cur.key().ok()? {
            "commit" => &mut commit,
            "hash" => &mut hash,
            _ => &mut other,
        };
        let value = match cur.lead().ok()? {
            b'0'..=b'9' => Some(cur.u64().ok()?),
            _ => {
                cur.skip().ok()?;
                None
            }
        };
        slot.get_or_insert(value);
        more = cur.more(b'}').ok()?;
    }
    cur.finish().ok()?;
    Some((commit??, hash??))
}

/// Replays a log's bytes (see the module docs for the rule). `Err` is the
/// description of the damage.
pub(crate) fn replay(log: &[u8]) -> Result<Replay, String> {
    let mut entries = Vec::new();
    let mut committed_len = 0usize;
    // Complete lines since `committed_len`: the segment still open.
    let mut open_lines = 0u64;
    let mut pos = 0usize;
    while let Some(len) = log[pos..].iter().position(|&b| b == b'\n') {
        let line_start = pos;
        pos += len + 1;
        let Some((count, hash)) = parse_commit(&log[line_start..line_start + len]) else {
            open_lines += 1;
            continue;
        };
        let body = &log[committed_len..line_start];
        if count != open_lines || hash != fnv1a(body) {
            return Err(format!(
                "segment log is damaged: the commit line at byte {line_start} does not match \
                 the {open_lines} line(s) before it"
            ));
        }
        let damaged = |e: &dyn std::fmt::Display| {
            format!("segment log is damaged: the segment committed at byte {line_start}: {e}")
        };
        for line in std::str::from_utf8(body).map_err(|e| damaged(&e))?.lines() {
            let entry = StoreEntry::from_json_line(line)
                .map_err(|e| damaged(&e))?
                .map_err(|e| format!("entry {}: {e}", entries.len()))?;
            entries.push(entry);
        }
        committed_len = pos;
        open_lines = 0;
    }
    Ok(Replay {
        entries,
        committed_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use st_campaign::OutcomeStore;

    fn committed(body: &str) -> Vec<u8> {
        committed_bytes(body.as_bytes())
    }

    /// `body` under a commit line that vouches for it, whatever it holds.
    fn committed_bytes(body: &[u8]) -> Vec<u8> {
        let lines = body.iter().filter(|&&b| b == b'\n').count();
        let hash = fnv1a(body);
        let mut log = body.to_vec();
        log.extend(format!("{{\"commit\": {lines}, \"hash\": {hash}}}\n").bytes());
        log
    }

    /// The entries of the campaign crate's committed store fixture.
    fn fixture() -> OutcomeStore {
        OutcomeStore::from_json_str(FIXTURE).expect("the fixture loads")
    }

    const FIXTURE: &str = include_str!("../../campaign/tests/golden/store_v2.json");

    #[test]
    fn every_truncation_of_a_log_replays_its_whole_segments() {
        let store = fixture();
        let entries: Vec<&StoreEntry> = store.entries().iter().collect();
        let mut log = String::new();
        // (end of the segment, entries committed through it)
        let mut segments = vec![(0, 0)];
        for (from, to) in [(0, 2), (2, 2), (2, 5)] {
            log.push_str(&segment(&entries[from..to]));
            segments.push((log.len(), to));
        }
        for cut in 0..=log.len() {
            let replay = replay(&log.as_bytes()[..cut]).unwrap_or_else(|e| panic!("{cut}: {e}"));
            let &(end, count) = segments.iter().rfind(|(end, _)| *end <= cut).unwrap();
            assert_eq!(replay.committed_len, end, "cut at {cut}");
            assert_eq!(replay.entries.len(), count, "cut at {cut}");
            assert!(replay.entries.iter().zip(&entries).all(|(a, b)| a == *b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bytes in: arbitrary bytes, arbitrary text under a commit line
        /// that vouches for it, and a well-formed log with bytes appended
        /// replay to entries or a typed error — never an unwind.
        #[test]
        fn any_bytes_replay_to_entries_or_a_typed_error(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
            picks in prop::collection::vec(0usize..2048, 0..12)
        ) {
            let _ = replay(&bytes);
            let _ = replay(&committed_bytes(&bytes));
            // Slices of the fixture's entry lines and newlines, vouched for.
            let lines: Vec<&str> = FIXTURE.lines().collect();
            let body: String = picks
                .iter()
                .map(|&pick| {
                    let line = lines[pick % lines.len()];
                    let cut = (pick / lines.len()).min(line.len());
                    if pick % 3 == 0 { format!("{line}\n") } else { line[..cut].to_string() }
                })
                .collect();
            let _ = replay(&committed(&body));
            let store = fixture();
            let mut log = segment(&store.entries().iter().take(3).collect::<Vec<_>>()).into_bytes();
            log.extend(&bytes);
            let replay = replay(&log);
            prop_assert!(replay.is_err() || replay.is_ok_and(|r| r.entries.len() >= 3));
        }
    }

    /// Lines a commit vouches for that are not entries: the hash matches, so
    /// this is a writer's bug or a forged log, and it reads as it always
    /// has — the store decoder's words for the entry, the log's for the
    /// line.
    #[test]
    fn committed_lines_that_are_not_entries_are_damage() {
        let Err(not_an_entry) = replay(&committed("{\"x\": 1}\n")) else {
            panic!("a non-entry line replayed");
        };
        assert_eq!(not_an_entry, "entry 0: missing field \"campaign\"");
        let Err(not_json) = replay(&committed("{\"x\": 1\n")) else {
            panic!("a non-JSON line replayed");
        };
        assert!(
            not_json.starts_with(
                "segment log is damaged: the segment committed at byte 8: JSON error at byte 7"
            ),
            "{not_json}"
        );
        // And nothing of a damaged log is kept: no entries come back.
        let empty = replay(&committed("")).unwrap_or_else(|e| panic!("{e}"));
        assert!(empty.entries.is_empty());
        assert_eq!(empty.committed_len, committed("").len());
    }
}
