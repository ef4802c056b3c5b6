//! Minimal canonical JSON: the on-disk language of this workspace's
//! artifacts (the `st-campaign` outcome store, `st-serve`'s frames and logs).
//!
//! The container that builds this workspace has no registry access, so
//! there is no serde — artifacts are hand-rolled JSON. This module holds
//! the one value type, writer, and parser those artifacts share, with two
//! properties the campaign store's resume guarantee leans on:
//!
//! - **Canonical writing**: [`Json::to_string`] emits object members in
//!   insertion order with fixed spacing, so equal values serialize to equal
//!   bytes. Re-serializing a parsed document reproduces the writer's bytes
//!   (`to_string ∘ parse ∘ to_string = to_string`), which is what lets an
//!   interrupted-and-resumed sweep rewrite a store file byte-identically.
//! - **Exact numbers**: the only number shape is the unsigned 64-bit
//!   integer — every quantity in the paper's artifacts (steps, seeds,
//!   bounds, ranks, process bitmasks) is one. Floats are rejected at parse
//!   time, so a round-trip can never perturb a value.
//!
//! The parser is a plain recursive-descent over the full JSON grammar
//! (minus floats/negatives, plus a depth cap), returning byte-offset
//! errors; it accepts any whitespace, so hand-edited stores still load.
//! It is public as [`Cursor`], so a reader can decode a document straight
//! into its own types, or take it one element at a time, instead of
//! holding it as one tree; and the writer is public as [`Json::write`] /
//! [`write_string`] / [`write_u64`], so a writer can append to a buffer it
//! already holds.

use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth the parser accepts (generator specs recurse, but
/// shallowly; this is a guard against stack exhaustion on garbage input).
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve insertion order (canonical writing).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape artifacts use).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(members: I) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience: an array from values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object; `None` on other shapes or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes canonically: members in insertion order, `", "` / `": "`
    /// separators, no trailing whitespace, strings escaped minimally
    /// (`\"`, `\\`, and `\u00XX` for control characters).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the canonical serialization ([`to_string`](Self::to_string)'s
    /// bytes) to `out`: how a writer that already holds a buffer — a store
    /// line, a frame — adds a value without a `String` per value.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => write_u64(*v, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (one value, optionally surrounded by
    /// whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut cur = Cursor::new(text);
        cur.skip_ws();
        let value = cur.value()?;
        cur.finish()?;
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

/// Appends `v` as [`Json::to_string`] writes it: decimal digits straight
/// into the buffer (no `String` per number).
pub fn write_u64(mut v: u64, out: &mut String) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string literal, escaped as [`Json::to_string`]
/// escapes it. Runs without a character to escape are copied whole, the
/// mirror of the parser's bulk copy.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run_start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        // Every byte that needs an escape is ASCII, so it is never inside a
        // multi-byte character and both sides of it are valid UTF-8.
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Where the value starting at `at` ends, if it is written exactly as
/// [`Json::write`] writes it — the single space after each `,` and `:` and
/// no other whitespace, integers without a leading zero, strings with no
/// raw control character and only [`write_string`]'s escapes — and nests
/// at most `room` containers deep; `None` for any other text, well-formed
/// or not. A strict subset of the grammar, scanned in one tight pass: text
/// it accepts, the parser accepts with the same end.
fn canonical_end(text: &[u8], mut at: usize, room: usize) -> Option<usize> {
    // Bit `i`: the container `i` levels out from the innermost is an object.
    let mut objects: u128 = 0;
    let mut depth = 0;
    loop {
        match *text.get(at)? {
            open @ (b'[' | b'{') if text.get(at + 1) != Some(&(open + 2)) => {
                depth += 1;
                if depth > room {
                    return None;
                }
                objects = objects << 1 | u128::from(open == b'{');
                at += 1;
                if open == b'{' {
                    at = canonical_key(text, at)?;
                }
                continue;
            }
            b'[' | b'{' => at += 2,
            b'"' => at = canonical_string(text, at)?,
            b'0' => at += 1,
            b'1'..=b'9' => {
                let digits = text[at..].iter().take_while(|d| d.is_ascii_digit()).count();
                let number = &text[at..at + digits];
                if digits > 20 || (digits == 20 && number > b"18446744073709551615".as_slice()) {
                    return None;
                }
                at += digits;
            }
            b'n' if text[at..].starts_with(b"null") => at += 4,
            b't' if text[at..].starts_with(b"true") => at += 4,
            b'f' if text[at..].starts_with(b"false") => at += 5,
            _ => return None,
        }
        if matches!(text.get(at), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            return None;
        }
        // A value ended: close every container it was the last of.
        loop {
            if depth == 0 {
                return Some(at);
            }
            let object = objects & 1 == 1;
            match *text.get(at)? {
                b',' if text.get(at + 1) == Some(&b' ') => {
                    at += 2;
                    if object {
                        at = canonical_key(text, at)?;
                    }
                    break;
                }
                b'}' if object => {}
                b']' if !object => {}
                _ => return None,
            }
            at += 1;
            depth -= 1;
            objects >>= 1;
        }
    }
}

/// [`canonical_end`] of the string literal starting at `at`.
fn canonical_string(text: &[u8], mut at: usize) -> Option<usize> {
    at += 1;
    loop {
        at += text
            .get(at..)?
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        match text[at] {
            b'"' => return Some(at + 1),
            b'\\' => match *text.get(at + 1)? {
                b'"' | b'\\' | b'n' | b'r' | b't' => at += 2,
                b'u' => match text.get(at + 2..at + 6)? {
                    b"0009" | b"000a" | b"000d" => return None,
                    [b'0', b'0', b'0' | b'1', b'0'..=b'9' | b'a'..=b'f'] => at += 6,
                    _ => return None,
                },
                _ => return None,
            },
            _ => return None,
        }
    }
}

/// [`canonical_end`] of an object key and the `": "` after it.
fn canonical_key(text: &[u8], at: usize) -> Option<usize> {
    if text.get(at) != Some(&b'"') {
        return None;
    }
    let at = canonical_string(text, at)?;
    (text.get(at..at + 2)? == b": ").then_some(at + 2)
}

/// The parser, one step at a time: a position in a JSON text that can
/// parse the value it stands on, skip it, copy it canonically, or walk
/// into a container element by element. [`Json::parse`] is `skip_ws`,
/// [`value`](Self::value), [`finish`](Self::finish); a reader that must not
/// hold a document as a tree (the outcome store's codec) dispatches on
/// [`lead`](Self::lead), walks containers with [`open`](Self::open) /
/// [`key`](Self::key) / [`more`](Self::more) and reads scalars with
/// [`u64`](Self::u64) / [`string`](Self::string) — same grammar, same
/// depth cap, same errors at the same offsets. Keys and strings without an
/// escape are borrowed from the text, and [`skip`](Self::skip) allocates
/// nothing for them.
///
/// After any `Err` the cursor's position is unspecified; stop using it.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Containers entered so far (by `value` recursion or by `open`).
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    // The steps a walk takes once per token are marked for inlining, and
    // the smallest forced: left to the inliner, `skip` over a 40 MB store
    // ran a fifth slower.

    /// The byte the cursor stands on, `None` at the end of the text.
    #[inline(always)]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Steps over whitespace (space, tab, LF, CR).
    #[inline(always)]
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Steps over `byte`, or fails if the cursor stands on anything else.
    #[inline(always)]
    pub fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    /// Steps over trailing whitespace and fails unless that ends the text.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing content after the document"))
        }
    }

    // Off the path every well-formed value takes.
    #[cold]
    #[inline(never)]
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError::at(self.pos, message)
    }

    /// Enters the container starting with `open` (`[` or `{`). `true`: the
    /// cursor stands on the first element (or key); `false`: the container
    /// was empty and is already closed.
    #[inline(always)]
    pub fn open(&mut self, open: u8) -> Result<bool, JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(open + 2) {
            // `]` and `}` are two code points after `[` and `{`.
            self.pos += 1;
            return Ok(false);
        }
        self.depth += 1;
        Ok(true)
    }

    /// After an element of the container that ends with `close` (`]` or
    /// `}`): steps over `,` onto the next element (`true`), or over
    /// `close` out of the container (`false`).
    #[inline(always)]
    pub fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if close == b']' => Err(self.error("expected ',' or ']' in array")),
            _ => Err(self.error("expected ',' or '}' in object")),
        }
    }

    /// Parses an object member's key and steps over the `:` onto its value.
    #[inline]
    pub fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Walks the object the cursor stands on, handing `member` each key
    /// with the cursor on its value (which `member` steps past); a value
    /// that is not an object is skipped. How a reader that decodes straight
    /// into its own types finds the members it knows.
    pub fn members(
        &mut self,
        mut member: impl FnMut(&str, &mut Cursor<'a>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.lead()? != b'{' {
            return self.skip();
        }
        let mut more = self.open(b'{')?;
        while more {
            let key = self.key()?;
            member(&key, self)?;
            more = self.more(b'}')?;
        }
        Ok(())
    }

    /// The depth guard every value passes, then the byte the value the
    /// cursor stands on starts with: what a reader decoding straight into
    /// its own types dispatches on before it reads the value or
    /// [`skip`](Self::skip)s it.
    #[inline]
    pub fn lead(&self) -> Result<u8, JsonError> {
        match self.peek() {
            _ if self.depth > MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b) => Ok(b),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses the value the cursor stands on and steps past it.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.container()? {
            None => self.scalar(),
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.open(b'[')?;
                while more {
                    items.push(self.value()?);
                    more = self.more(b']')?;
                }
                Ok(Json::Arr(items))
            }
            Some(_) => {
                let mut members = Vec::new();
                let mut more = self.open(b'{')?;
                while more {
                    let key = self.key()?.into_owned();
                    members.push((key, self.value()?));
                    more = self.more(b'}')?;
                }
                Ok(Json::Obj(members))
            }
        }
    }

    /// Where the value the cursor stands on ends, if it is canonical text
    /// ([`canonical_end`]) within the depth cap.
    fn canonical_end(&self) -> Option<usize> {
        let room = MAX_DEPTH.checked_sub(self.depth)?;
        canonical_end(self.text.as_bytes(), self.pos, room)
    }

    /// Steps past the value the cursor stands on, checking it exactly as
    /// [`value`](Self::value) does but keeping nothing of it: nothing is
    /// allocated but a key or string that holds an escape. Canonical text —
    /// anything the writer wrote — is checked in one tight scan; any other
    /// text, and so every error, goes through the parser's own steps.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.canonical_end() {
            Some(end) => {
                self.pos = end;
                Ok(())
            }
            None => self.walk(None),
        }
    }

    /// Steps past the value the cursor stands on as [`skip`](Self::skip)
    /// does, answering its canonical serialization: the bytes
    /// `value()?.to_string()` would give, without the tree. Canonical text
    /// — anything the writer wrote — is borrowed as it stands; any other is
    /// rewritten.
    pub fn copy(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let start = self.pos;
        if let Some(end) = self.canonical_end() {
            self.pos = end;
            return Ok(Cow::Borrowed(&self.text[start..end]));
        }
        let mut out = String::new();
        self.walk(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// [`skip`](Self::skip) and [`copy`](Self::copy) of text that is not
    /// canonical: the parser's steps, writing the canonical serialization
    /// when there is somewhere to write it.
    fn walk(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        let Some(open) = self.container()? else {
            if self.peek() == Some(b'"') {
                let string = self.string()?;
                if let Some(out) = out {
                    write_string(&string, out);
                }
            } else {
                let scalar = self.scalar()?;
                if let Some(out) = out {
                    scalar.write(out);
                }
            }
            return Ok(());
        };
        let mut more = self.open(open)?;
        if let Some(out) = out.as_deref_mut() {
            out.push(open as char);
        }
        let mut first = true;
        while more {
            if let Some(out) = out.as_deref_mut().filter(|_| !first) {
                out.push_str(", ");
            }
            first = false;
            if open == b'{' {
                let key = self.key()?;
                if let Some(out) = out.as_deref_mut() {
                    write_string(&key, out);
                    out.push_str(": ");
                }
            }
            self.walk(out.as_deref_mut())?;
            more = self.more(open + 2)?;
        }
        if let Some(out) = out {
            out.push((open + 2) as char);
        }
        Ok(())
    }

    /// The depth guard every value passes, then the opening byte if the
    /// cursor stands on an array or object.
    #[inline(always)]
    fn container(&self) -> Result<Option<u8>, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        Ok(self.peek().filter(|b| matches!(b, b'[' | b'{')))
    }

    fn scalar(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'0'..=b'9') => self.u64().map(Json::U64),
            Some(b'-') => {
                Err(self.error("negative numbers are not used by this workspace's artifacts"))
            }
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
        }
    }

    fn literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{literal}'")))
        }
    }

    /// Parses the integer the cursor stands on (its [`lead`](Self::lead)
    /// is a digit).
    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut value = Some(0u64);
        while let Some(&digit @ b'0'..=b'9') = bytes.get(self.pos) {
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(
                self.error("floating-point numbers are not exact; artifacts use integers only")
            );
        }
        match value {
            _ if self.pos == start => Err(self.error("expected an integer")),
            Some(v) => Ok(v),
            None => Err(JsonError::at(start, "integer out of u64 range")),
        }
    }

    /// Parses the string literal the cursor stands on: borrowed from the
    /// text when it holds no escape, unescaped into a `String` when it does.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let start = self.pos;
        self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
        }
        let mut out = String::from(&text[start..self.pos]);
        loop {
            // A backslash: the run stops nowhere else but the end.
            if self.peek() != Some(b'\\') {
                return Err(self.error("unterminated string"));
            }
            self.pos += 1;
            out.push(self.escape()?);
            let run_start = self.pos;
            self.run();
            out.push_str(&text[run_start..self.pos]);
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// Steps to the next quote or backslash (or the end of the text). The
    /// delimiters are ASCII, so the bytes stepped over are a `str` slice.
    #[inline(always)]
    fn run(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    /// The character the escape after a backslash stands for; steps past
    /// the escape.
    fn escape(&mut self) -> Result<char, JsonError> {
        let bytes = self.text.as_bytes();
        let c = match bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                let hex =
                    std::str::from_utf8(hex).map_err(|_| self.error("non-ASCII \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
                let c = char::from_u32(code).ok_or_else(|| {
                    // Surrogate halves: the writer never emits them.
                    self.error("unsupported \\u escape (surrogate)")
                })?;
                self.pos += 4;
                c
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_round_trip() {
        let v = Json::obj([
            ("schema", Json::str("demo-v1")),
            ("count", Json::U64(42)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::arr([Json::U64(0), Json::str("a\"b\\c\nd"), Json::arr([])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = v.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, v);
        // Canonical: re-serialization is byte-identical.
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn parses_foreign_whitespace() {
        let v = Json::parse(" {\n  \"a\" : [ 1 , 2 ] ,\n  \"b\" : null\n} ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_floats_negatives_and_trailers() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("-1").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("18446744073709551616").is_err()); // u64::MAX + 1
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
    }

    #[test]
    fn depth_guard_fires() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn control_characters_escape_and_return() {
        let v = Json::str("line\nbreak\u{1}end");
        let text = v.to_string();
        assert_eq!(text, "\"line\\nbreak\\u0001end\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    /// The writer this module had before it copied unescaped runs whole:
    /// char by char, `format!` per control escape. Kept as the oracle.
    fn write_string_reference(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Every control character, the two escaped printables, DEL, and the
    /// first and last code points of each UTF-8 length.
    fn string_pieces() -> Vec<String> {
        let controls = (0u32..0x20).map(|c| char::from_u32(c).unwrap().to_string());
        let others = [
            "\"",
            "\\",
            "/",
            " ",
            "a",
            "\u{7f}",
            "\u{80}",
            "é",
            "\u{7ff}",
            "\u{800}",
            "€",
            "\u{ffff}",
            "\u{10000}",
            "𝄞",
            "\u{10ffff}",
            "",
        ];
        controls.chain(others.map(str::to_string)).collect()
    }

    fn assert_written_as_the_reference_writes(s: &str) {
        let mut expected = String::new();
        write_string_reference(s, &mut expected);
        let mut got = String::from("prefix");
        write_string(s, &mut got);
        assert_eq!(&got["prefix".len()..], expected, "{s:?}");
        assert_eq!(Json::str(s).to_string(), expected);
        assert_eq!(Json::parse(&expected).unwrap(), Json::str(s), "{s:?}");
    }

    #[test]
    fn the_string_writer_matches_the_reference_on_every_pair_of_pieces() {
        // Every escape next to every multi-byte boundary: at the start, at
        // the end and inside a run.
        let pieces = string_pieces();
        for a in &pieces {
            for b in &pieces {
                assert_written_as_the_reference_writes(&format!("{a}{b}"));
                assert_written_as_the_reference_writes(&format!("x{a}y{b}z"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_string_writer_matches_the_reference_on_random_strings(
            picks in prop::collection::vec(0usize..48, 0..40)
        ) {
            let pieces = string_pieces();
            prop_assert_eq!(pieces.len(), 48);
            let s: String = picks.iter().map(|&i| pieces[i].as_str()).collect();
            assert_written_as_the_reference_writes(&s);
        }
    }

    #[test]
    fn integers_are_written_digit_for_digit() {
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(Json::U64(v).to_string(), v.to_string());
        }
        let mut v = 1u64;
        while let Some(next) = v.checked_mul(10) {
            for w in [v - 1, v, v + 1] {
                assert_eq!(Json::U64(w).to_string(), w.to_string());
            }
            v = next;
        }
    }

    #[test]
    fn a_cursor_walks_a_document_the_way_parse_reads_it() {
        let text =
            " {\"a\": [1, {\"b\": null}, \"x\"], \"skip\": {\"deep\": [[], {}]}, \"z\": 7 } ";
        let whole = Json::parse(text).unwrap();
        let mut cur = Cursor::new(text);
        cur.skip_ws();
        let mut members = Vec::new();
        let mut more = cur.open(b'{').unwrap();
        while more {
            let key = cur.key().unwrap().into_owned();
            if key == "a" {
                // Element by element.
                let mut items = Vec::new();
                let mut more = cur.open(b'[').unwrap();
                while more {
                    items.push(cur.value().unwrap());
                    more = cur.more(b']').unwrap();
                }
                members.push((key, Json::Arr(items)));
            } else if key == "skip" {
                let mut probe = cur.clone();
                cur.skip().unwrap();
                members.push((key, probe.value().unwrap()));
                assert_eq!(probe.pos, cur.pos, "skip and value step alike");
            } else {
                members.push((key, cur.value().unwrap()));
            }
            more = cur.more(b'}').unwrap();
        }
        cur.finish().unwrap();
        assert_eq!(Json::Obj(members), whole);
    }

    #[test]
    fn skip_and_value_fail_alike() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        for bad in [
            "[1, 2",
            "{\"a\": 1.5}",
            "[\"\\x\"]",
            "{\"a\" 1}",
            "[1,]",
            "tru",
            &deep,
        ] {
            let by_value = Cursor::new(bad).value().unwrap_err();
            let by_skip = Cursor::new(bad).skip().unwrap_err();
            let by_copy = Cursor::new(bad).copy().unwrap_err();
            assert_eq!(by_skip, by_value, "{bad:?}");
            assert_eq!(by_copy, by_value, "{bad:?}");
            assert_eq!(Json::parse(bad).unwrap_err(), by_value, "{bad:?}");
        }
    }

    /// Foreign layouts, escapes, leading zeros, empties and repeated keys:
    /// a canonical copy writes what the parsed tree writes.
    #[test]
    fn copy_writes_what_the_tree_writes() {
        for text in [
            "0",
            "007",
            "10",
            " 18446744073709551615 ",
            "null",
            "true",
            "false",
            "\"\"",
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001fé\"",
            "\"\\/\"",
            "\"\\b\\f\"",
            "\"\\u0041\"",
            "\"\\u001F\"",
            "\"\\u000a\\u0009\\u000d\"",
            "\"\u{1}\"",
            "[]",
            "{}",
            "[1, {\"a\": null}]",
            "[1,2]",
            "{\"a\":1}",
            "{\"a\" : 1}",
            "[ [ ] ,{ } ]",
            " {\n \"a\" : [ 1 ,2 ] ,\"a\":{\"\\u00e9\": null}, \"b\\\"\" : \"x\\ty\" } ",
        ] {
            let mut cur = Cursor::new(text);
            cur.skip_ws();
            let copied = cur.copy().unwrap();
            cur.finish().unwrap();
            let tree = Json::parse(text).unwrap().to_string();
            assert_eq!(copied, tree, "{text:?}");
            // Borrowed exactly when the text is canonical already.
            let borrowed = matches!(copied, Cow::Borrowed(_));
            assert_eq!(borrowed, tree == text.trim(), "{text:?}");
            assert!(matches!(Cursor::new(&tree).copy(), Ok(Cow::Borrowed(_))));
        }
    }

    #[test]
    fn strings_without_an_escape_are_borrowed() {
        let mut cur = Cursor::new("{\"plain\": \"text\", \"esc\\u0061ped\": 1}");
        assert!(cur.open(b'{').unwrap());
        assert!(matches!(cur.key().unwrap(), Cow::Borrowed("plain")));
        assert!(matches!(cur.string().unwrap(), Cow::Borrowed("text")));
        assert!(cur.more(b'}').unwrap());
        assert_eq!(cur.key().unwrap(), Cow::<str>::Owned("escaped".into()));
        assert_eq!(cur.lead().unwrap(), b'1');
        assert_eq!(cur.u64().unwrap(), 1);
        assert!(!cur.more(b'}').unwrap());
        assert_eq!(
            Cursor::new("").lead().unwrap_err(),
            Json::parse("").unwrap_err()
        );
    }

    /// The pieces JSON is made of, and a few that break it: what
    /// [`json_soup`] strings together.
    const PIECES: [&str; 40] = [
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
        "\\ud800",
        "0",
        "7",
        "18446744073709551616",
        "1.5",
        "-",
        "null",
        "tru",
        "true",
        "false",
        "\"kind\"",
        "\"a\"",
        "é",
        "\u{1}",
        "x",
        "\"\"",
        "e",
        "\t",
        "00",
        "\\u001f",
        "\\u001F",
        "\\u000a",
        "\\u0041",
        "\\/",
        "\\b",
        "\\n",
        "\\\"",
        ", ",
        ": ",
    ];

    /// Text drawn from [`PIECES`] and stray ASCII bytes.
    fn json_soup(picks: &[u16]) -> String {
        picks
            .iter()
            .map(|&i| match PIECES.get(usize::from(i)) {
                Some(piece) => piece.to_string(),
                None => char::from((i % 128) as u8).to_string(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bytes in: arbitrary text and every prefix of it parse to a value
        /// or a typed error, never an unwind — and `skip` and `copy` answer
        /// alike, `copy` with the tree's bytes.
        #[test]
        fn any_text_and_every_truncation_is_a_value_or_a_typed_error(
            picks in prop::collection::vec(0u16..64, 0..40)
        ) {
            let text = json_soup(&picks);
            for cut in (0..=text.len()).filter(|&cut| text.is_char_boundary(cut)) {
                let text = &text[..cut];
                let (mut skip, mut copy) = (Cursor::new(text), Cursor::new(text));
                skip.skip_ws();
                copy.skip_ws();
                let skipped = skip.skip().and_then(|()| skip.finish());
                let copied = copy.copy().and_then(|copied| copy.finish().map(|()| copied));
                match Json::parse(text) {
                    Ok(tree) => {
                        prop_assert_eq!(skipped, Ok(()));
                        let copied = copied.expect("what parses copies");
                        prop_assert_eq!(&copied, &tree.to_string());
                        // Borrowed exactly when the text is canonical.
                        let bare = text.trim_matches([' ', '\t', '\n', '\r']);
                        let borrowed = matches!(copied, Cow::Borrowed(_));
                        prop_assert_eq!(borrowed, copied == bare);
                    }
                    Err(e) => {
                        prop_assert_eq!(skipped, Err(e.clone()));
                        prop_assert_eq!(copied, Err(e));
                    }
                }
            }
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\": 1.5}").unwrap_err();
        assert_eq!(err.offset, 7);
        assert!(err.message.contains("integers"));
    }
}
