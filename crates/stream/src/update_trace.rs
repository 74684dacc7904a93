//! `.adjbu` — the checksummed binary container for update traces.
//!
//! The text format of [`crate::update`] is convenient to author but slow to
//! parse and silently tolerant of torn writes (a truncated file is just a
//! shorter stream). Registered daemon traces need the same integrity story
//! as static `.adjb` files, so [`UpdateStream`]s are written in the
//! workspace's one framed container ([`crate::frame`], magic
//! [`ADJBU_MAGIC`]) with the payload
//!
//! ```text
//! count  u64 LE    number of events
//! event  17 bytes  op u8 (0 insert, 1 delete), lo u32 LE, hi u32 LE,
//!                  ts u64 LE — repeated `count` times
//! ```
//!
//! [`read_updates`] sniffs the first eight bytes: the magic selects the
//! binary decoder, anything else falls through to the text parser, so every
//! consumer (CLI, daemon, benches) accepts both formats through one entry
//! point. A damaged container is [`UpdateTraceError::Frame`], and decoded
//! events pass the same semantic checks as the text parser (no self-loops,
//! non-decreasing timestamps), reported with the 1-based event index in the
//! [`UpdateParseError`]'s `line` field.

use std::fmt;
use std::io::{self, Read, Write};

use adjstream_graph::{EdgeKey, VertexId};

use crate::frame::{take_counted, write_frame, Frame, FrameError};
use crate::update::{UpdateEvent, UpdateOp, UpdateParseError, UpdateStream};

/// Magic bytes opening every `.adjbu` binary update trace.
pub const ADJBU_MAGIC: [u8; 8] = *b"ADJBUPDT";

/// Current `.adjbu` format version; readers reject anything else with
/// [`FrameError::UnsupportedVersion`].
pub const ADJBU_VERSION: u32 = 2;

/// Bytes per encoded event: op tag, two endpoints, timestamp.
const EVENT_BYTES: usize = 1 + 4 + 4 + 8;

/// Why an update trace (binary or text) was rejected.
#[derive(Debug)]
pub enum UpdateTraceError {
    /// The underlying I/O operation failed.
    Io(io::Error),
    /// The text parser rejected a line, or a decoded binary event violated
    /// update-stream semantics (for binary traces the error's `line` is the
    /// 1-based event index).
    Parse(UpdateParseError),
    /// The binary container was rejected.
    Frame(FrameError),
    /// An event's op tag was neither 0 (insert) nor 1 (delete).
    BadOp {
        /// 1-based event index.
        event: usize,
        /// The tag byte found.
        found: u8,
    },
    /// The file has neither the `.adjbu` magic nor valid UTF-8 text — it
    /// is not an update trace in any dialect this build reads. (Distinct
    /// from [`FrameError::Truncated`], which means a *binary* trace ended
    /// early.)
    NotText,
}

impl fmt::Display for UpdateTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateTraceError::Io(e) => write!(f, "update trace I/O error: {e}"),
            UpdateTraceError::Parse(e) => write!(f, "invalid update trace: {e}"),
            UpdateTraceError::Frame(e) => write!(f, ".adjbu container rejected: {e}"),
            UpdateTraceError::BadOp { event, found } => {
                write!(f, "event {event}: bad op tag {found} (expected 0 or 1)")
            }
            UpdateTraceError::NotText => {
                write!(f, "not an update trace: no .adjbu magic and not UTF-8 text")
            }
        }
    }
}

impl std::error::Error for UpdateTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateTraceError::Io(e) => Some(e),
            UpdateTraceError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for UpdateTraceError {
    fn from(e: io::Error) -> Self {
        UpdateTraceError::Io(e)
    }
}

impl From<FrameError> for UpdateTraceError {
    fn from(e: FrameError) -> Self {
        UpdateTraceError::Frame(e)
    }
}

impl From<UpdateParseError> for UpdateTraceError {
    fn from(e: UpdateParseError) -> Self {
        UpdateTraceError::Parse(e)
    }
}

/// Whether `bytes` begins with the `.adjbu` magic — the same sniff
/// [`parse_update_bytes`] performs, exposed for catalog-style kind
/// detection that must not pay for a full decode.
pub fn is_adjbu(bytes: &[u8]) -> bool {
    bytes.starts_with(&ADJBU_MAGIC)
}

/// Serialize `stream` in the `.adjbu` container format.
pub fn write_adjbu(stream: &UpdateStream, w: &mut dyn Write) -> io::Result<()> {
    let mut payload = Vec::with_capacity(8 + stream.len() * EVENT_BYTES);
    payload.extend_from_slice(&(stream.len() as u64).to_le_bytes());
    for ev in stream.events() {
        payload.push(match ev.op {
            UpdateOp::Insert => 0,
            UpdateOp::Delete => 1,
        });
        payload.extend_from_slice(&ev.edge.lo().0.to_le_bytes());
        payload.extend_from_slice(&ev.edge.hi().0.to_le_bytes());
        payload.extend_from_slice(&ev.ts.to_le_bytes());
    }
    write_frame(&mut *w, &ADJBU_MAGIC, ADJBU_VERSION, &payload)?;
    w.flush()
}

/// Parse an update trace from raw bytes, sniffing the format: the
/// [`ADJBU_MAGIC`] prefix selects the binary decoder, anything else is
/// handed to [`UpdateStream::parse_text`].
pub fn parse_update_bytes(bytes: &[u8]) -> Result<UpdateStream, UpdateTraceError> {
    if is_adjbu(bytes) {
        return decode_adjbu(bytes);
    }
    // A zero-length file is the empty text trace, not a truncated binary
    // one — the magic never began, so there is nothing to have cut short.
    // Likewise non-UTF-8 bytes are "not a trace at all" rather than
    // Truncated.
    let text = std::str::from_utf8(bytes).map_err(|_| UpdateTraceError::NotText)?;
    Ok(UpdateStream::parse_text(text)?)
}

/// Read an update trace from `r`, sniffing binary vs text (see
/// [`parse_update_bytes`]).
pub fn read_updates<R: Read>(mut r: R) -> Result<UpdateStream, UpdateTraceError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    parse_update_bytes(&bytes)
}

/// Decode a whole `.adjbu` container: verify the frame, then decode and
/// vet each event.
fn decode_adjbu(bytes: &[u8]) -> Result<UpdateStream, UpdateTraceError> {
    let mut rest = Frame::open(bytes, &ADJBU_MAGIC, ADJBU_VERSION)?;
    let (_, records) = take_counted(&mut rest, EVENT_BYTES)?;
    if !rest.is_empty() {
        return Err(FrameError::Truncated.into());
    }

    let mut events = Vec::with_capacity(records.len() / EVENT_BYTES);
    let mut prev_ts = 0u64;
    for (i, ev) in records.chunks_exact(EVENT_BYTES).enumerate() {
        let op = match ev[0] {
            0 => UpdateOp::Insert,
            1 => UpdateOp::Delete,
            found => {
                return Err(UpdateTraceError::BadOp {
                    event: i + 1,
                    found,
                })
            }
        };
        let lo = u32::from_le_bytes(ev[1..5].try_into().expect("4"));
        let hi = u32::from_le_bytes(ev[5..9].try_into().expect("4"));
        let ts = u64::from_le_bytes(ev[9..17].try_into().expect("8"));
        if lo == hi {
            return Err(UpdateParseError::SelfLoop {
                line: i + 1,
                vertex: lo,
            }
            .into());
        }
        if i > 0 && ts < prev_ts {
            return Err(UpdateParseError::TimestampRegression {
                line: i + 1,
                previous: prev_ts,
                found: ts,
            }
            .into());
        }
        prev_ts = ts;
        events.push(UpdateEvent {
            op,
            edge: EdgeKey::new(VertexId(lo), VertexId(hi)),
            ts,
        });
    }
    Ok(UpdateStream::new(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{churn, ChurnConfig};
    use adjstream_graph::gen;

    fn sample_stream() -> UpdateStream {
        let g = gen::disjoint_cliques(3, 6);
        churn(
            &g,
            &ChurnConfig {
                churn_events: 80,
                delete_fraction: 0.5,
                seed: 5,
            },
        )
    }

    fn encode(s: &UpdateStream) -> Vec<u8> {
        let mut buf = Vec::new();
        write_adjbu(s, &mut buf).unwrap();
        buf
    }

    #[test]
    fn binary_round_trip() {
        let s = sample_stream();
        let bytes = encode(&s);
        assert!(is_adjbu(&bytes));
        assert_eq!(parse_update_bytes(&bytes).unwrap(), s);
        assert_eq!(read_updates(&bytes[..]).unwrap(), s);
    }

    #[test]
    fn sniffs_text_without_magic() {
        let s = sample_stream();
        let mut text = Vec::new();
        s.write_text(&mut text).unwrap();
        assert!(!is_adjbu(&text));
        assert_eq!(parse_update_bytes(&text).unwrap(), s);
    }

    #[test]
    fn zero_length_input_is_the_empty_update_trace() {
        // Regression: an empty file used to fall into the binary error
        // path on some callers; it is a valid (empty) text trace.
        let s = parse_update_bytes(b"").unwrap();
        assert!(s.is_empty());
        let s = read_updates(&b""[..]).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn non_utf8_without_magic_is_not_text_not_truncated() {
        let err = parse_update_bytes(&[0xFF, 0xFE, 0x00, 0x01]).unwrap_err();
        assert!(matches!(err, UpdateTraceError::NotText), "got {err:?}");
    }

    #[test]
    fn empty_stream_round_trips() {
        let s = UpdateStream::default();
        assert_eq!(parse_update_bytes(&encode(&s)).unwrap(), s);
    }

    #[test]
    fn semantic_violations_reject_with_event_index() {
        // Hand-build payloads: self-loop at event 2, regression at event 2.
        let build = |events: &[(u8, u32, u32, u64)]| {
            let mut payload = Vec::new();
            payload.extend_from_slice(&(events.len() as u64).to_le_bytes());
            for &(op, lo, hi, ts) in events {
                payload.push(op);
                payload.extend_from_slice(&lo.to_le_bytes());
                payload.extend_from_slice(&hi.to_le_bytes());
                payload.extend_from_slice(&ts.to_le_bytes());
            }
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &ADJBU_MAGIC, ADJBU_VERSION, &payload).unwrap();
            bytes
        };
        assert!(matches!(
            parse_update_bytes(&build(&[(0, 0, 1, 0), (0, 4, 4, 1)])),
            Err(UpdateTraceError::Parse(UpdateParseError::SelfLoop {
                line: 2,
                vertex: 4
            }))
        ));
        assert!(matches!(
            parse_update_bytes(&build(&[(0, 0, 1, 7), (0, 1, 2, 3)])),
            Err(UpdateTraceError::Parse(
                UpdateParseError::TimestampRegression {
                    line: 2,
                    previous: 7,
                    found: 3
                }
            ))
        ));
        assert!(matches!(
            parse_update_bytes(&build(&[(9, 0, 1, 0)])),
            Err(UpdateTraceError::BadOp { event: 1, found: 9 })
        ));
    }
}
