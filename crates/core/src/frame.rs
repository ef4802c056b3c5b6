//! Length-prefixed canonical-JSON frames: the wire unit of the `st-serve`
//! protocol (see `PROTOCOL.md` at the workspace root).
//!
//! A frame is a 4-byte **big-endian** unsigned length followed by exactly
//! that many bytes of UTF-8 [`Json`] text. The payload is always written
//! with [`Json::to_string`], so a frame's bytes are canonical: equal values
//! produce equal frames, and re-framing a parsed payload reproduces the
//! sender's bytes — the same property the outcome store leans on, carried
//! onto the socket.
//!
//! The codec is transport-agnostic: it reads from any [`Read`] and writes
//! to any [`Write`], so unit tests run it over in-memory buffers and the
//! daemon runs it over `TcpStream`s unchanged. Oversized lengths are
//! refused *before* allocation ([`MAX_FRAME_BYTES`]), a clean EOF before
//! the first length byte is the typed [`FrameError::Closed`] (a peer
//! hanging up between requests is not an error worth a stack trace), and
//! every other failure carries its cause.

use std::fmt;
use std::io::{Read, Write};

use crate::json::{Json, JsonError};

/// Hard cap on a frame's payload size (64 MiB). Large campaign stores fit
/// comfortably; a hostile or corrupt length prefix cannot convince the
/// reader to allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// A typed frame codec failure.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a frame started.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The declared payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// An I/O failure (includes truncation mid-frame).
    Io(std::io::Error),
    /// The payload is not UTF-8.
    Utf8(std::str::Utf8Error),
    /// The payload is not canonical JSON.
    Json(JsonError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed before a frame"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Utf8(e) => write!(f, "frame payload is not UTF-8: {e}"),
            FrameError::Json(e) => write!(f, "frame payload is not canonical JSON: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes `payload` as one frame and flushes the writer.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> Result<(), FrameError> {
    write_frame_text(w, &payload.to_string())
}

/// Writes `text` — which must be canonical JSON, as [`Json::write`]
/// produces it — as one frame and flushes the writer: [`write_frame`] for
/// a sender that built its payload's text without building the value.
pub fn write_frame_text(w: &mut impl Write, text: &str) -> Result<(), FrameError> {
    let len = text.len();
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads one frame and parses its payload.
///
/// A clean EOF *before any length byte* is [`FrameError::Closed`]; EOF
/// mid-prefix or mid-payload is a truncation and surfaces as
/// [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Json, FrameError> {
    Json::parse(&read_frame_text(r)?).map_err(FrameError::Json)
}

/// Reads one frame's payload as text, checked to be UTF-8 but not parsed:
/// [`read_frame`] for a receiver that walks a large payload with a
/// [`Cursor`](crate::json::Cursor) instead of holding it as one value.
pub fn read_frame_text(r: &mut impl Read) -> Result<String, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0usize;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Err(FrameError::Closed),
            0 => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid length prefix",
                )))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload).map_err(|e| FrameError::Utf8(e.utf8_error()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::obj([
            ("verb", Json::str("status")),
            ("ranks", Json::arr([Json::U64(0), Json::U64(7)])),
            ("ok", Json::Bool(true)),
        ])
    }

    #[test]
    fn round_trips_a_document() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc()).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, doc());
    }

    #[test]
    fn frames_are_canonical_bytes() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_frame(&mut a, &doc()).unwrap();
        let reparsed = read_frame(&mut a.as_slice()).unwrap();
        write_frame(&mut b, &reparsed).unwrap();
        assert_eq!(a, b, "re-framing a parsed payload reproduces the bytes");
    }

    #[test]
    fn consecutive_frames_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::U64(1)).unwrap();
        write_frame(&mut buf, &Json::str("two")).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Json::U64(1));
        assert_eq!(read_frame(&mut r).unwrap(), Json::str("two"));
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_prefix_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_mid_payload_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn truncation_mid_prefix_is_an_io_error() {
        let buf = [0u8, 0u8];
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn non_json_payload_is_a_typed_error() {
        let mut buf = Vec::new();
        let body = b"{nope";
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(body);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Json(_))
        ));
    }

    #[test]
    fn non_utf8_payload_is_a_typed_error() {
        let mut buf = Vec::new();
        let body = [0xFFu8, 0xFE];
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Utf8(_))
        ));
    }
}
