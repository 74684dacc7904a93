//! Item traces: run algorithms on externally supplied streams.
//!
//! Everything else in this crate generates streams from in-memory graphs;
//! a *trace* is the reverse direction — a raw sequence of `src dst` items
//! (e.g. produced by another system, or the CLI's `stream` command) that is
//! validated against the adjacency-list promise and then driven through any
//! [`MultiPassAlgorithm`](crate::runner::MultiPassAlgorithm). Multi-pass algorithms replay the same trace per
//! pass, which is exactly the model's "same ordering" semantics.
//!
//! Traces built by [`ItemTrace::new`]/[`ItemTrace::read`] are certified
//! valid up front. [`ItemTrace::new_unchecked`] skips certification so that
//! corrupted streams (from [`crate::fault::FaultPlan`] or hostile inputs)
//! can be driven through a [`crate::guard::Guarded`] algorithm via
//! [`run_slice_passes`](crate::runner::run_slice_passes)`(algo, |_| trace.items())`,
//! which degrades to a typed [`RunError`](crate::runner::RunError) instead
//! of panicking.
//!
//! # Binary trace format (`.adjb`)
//!
//! Text traces pay a per-line `String` allocation and two `str::parse`s per
//! item on every load — and file-backed replay drivers reload per
//! generation. [`ItemTrace::write_adjb`] serializes a trace into the
//! workspace's one framed container ([`crate::frame`], magic
//! [`ADJB_MAGIC`]), which loads in one buffered read with no parsing. The
//! payload is
//!
//! ```text
//! items  u64 LE      item count N
//! pairs  N × (u32 src LE, u32 dst LE)
//! runs   u64 LE      run count R (maximal same-source runs)
//! lens   R × u32 LE  run lengths (must sum to N)
//! ```
//!
//! and its counts must fill the frame's declared length exactly.
//! [`ItemTrace::read`] and [`ItemTrace::read_unchecked`] sniff the first 8
//! bytes and accept either format transparently; corrupt binary inputs are
//! rejected with typed [`TraceError`]s before any item reaches an
//! algorithm. The run lengths are self-describing redundancy for external
//! consumers — replay drivers re-derive list boundaries from source
//! changes, exactly as with a text trace.

use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

use adjstream_graph::VertexId;

use crate::frame::{take_counted, Frame, FrameError, FrameWriter};
use crate::item::StreamItem;
use crate::validate::{validate_slice, StreamError};

/// Magic bytes opening every binary (`.adjb`) trace file.
pub const ADJB_MAGIC: [u8; 8] = *b"ADJBTRAC";

/// Current binary trace format version. Bumped on any incompatible layout
/// change; readers reject other versions with
/// [`FrameError::UnsupportedVersion`].
pub const ADJB_VERSION: u32 = 2;

/// A replayable item trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemTrace {
    items: Vec<StreamItem>,
    edges: usize,
}

/// Errors loading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Line that is not `src dst`.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// The items violate the adjacency-list promise.
    Invalid(StreamError),
    /// A binary trace's container was rejected.
    Frame(FrameError),
    /// A binary trace's run lengths do not sum to its item count.
    InconsistentRuns {
        /// Declared item count.
        items: u64,
        /// Sum of the declared run lengths.
        run_total: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::Malformed { line } => write!(f, "malformed trace at line {line}"),
            TraceError::Invalid(e) => write!(f, "invalid stream: {e}"),
            TraceError::Frame(e) => write!(f, "binary trace rejected: {e}"),
            TraceError::InconsistentRuns { items, run_total } => write!(
                f,
                "binary trace corrupt: run lengths sum to {run_total}, expected {items} items"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<FrameError> for TraceError {
    fn from(e: FrameError) -> Self {
        TraceError::Frame(e)
    }
}

/// Locate the pair region of an `.adjb` payload (layout in the module
/// docs): the counts must fill `payload` exactly and the run lengths must
/// sum to the item count. The one layout walk behind both
/// [`ItemTrace`]'s decode and [`crate::mmapfile::MappedTrace::open`].
pub(crate) fn adjb_pairs(payload: &[u8]) -> Result<&[u8], TraceError> {
    let mut rest = payload;
    let (items, pairs) = take_counted(&mut rest, 8)?;
    let (_, lens) = take_counted(&mut rest, 4)?;
    if !rest.is_empty() {
        return Err(FrameError::Truncated.into());
    }
    let run_total: u64 = lens
        .chunks_exact(4)
        .map(|c| u64::from(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
        .sum();
    if run_total != items {
        return Err(TraceError::InconsistentRuns { items, run_total });
    }
    Ok(pairs)
}

/// Decode a `(u32 src, u32 dst)` little-endian pair region into items.
///
/// On little-endian targets `StreamItem`'s `repr(C)` layout *is* the
/// on-disk encoding, so the whole region is materialized with one
/// `memcpy` instead of a bounds-checked per-pair push loop — the
/// dominant cost of `.adjb` decode on 10⁸-item traces. Other targets
/// keep the portable per-pair loop.
pub(crate) fn decode_pairs(pairs: &[u8]) -> Vec<StreamItem> {
    let n = pairs.len() / 8;
    debug_assert_eq!(pairs.len(), n * 8);
    #[cfg(target_endian = "little")]
    {
        let mut items = Vec::<StreamItem>::with_capacity(n);
        // SAFETY: `StreamItem` is `repr(C)` over two `repr(transparent)`
        // u32 newtypes (size 8, no padding, every bit pattern valid),
        // the source region holds exactly `n` such 8-byte records, and
        // the destination allocation holds `n` items. Byte-wise copy is
        // value-preserving because the encoding is little-endian.
        unsafe {
            std::ptr::copy_nonoverlapping(pairs.as_ptr(), items.as_mut_ptr().cast::<u8>(), n * 8);
            items.set_len(n);
        }
        items
    }
    #[cfg(not(target_endian = "little"))]
    {
        pairs
            .chunks_exact(8)
            .map(|pair| {
                let src = u32::from_le_bytes(pair[0..4].try_into().expect("4 bytes"));
                let dst = u32::from_le_bytes(pair[4..8].try_into().expect("4 bytes"));
                StreamItem::new(VertexId(src), VertexId(dst))
            })
            .collect()
    }
}

impl ItemTrace {
    /// Build from items, validating the promise in place
    /// ([`validate_slice`]).
    pub fn new(items: Vec<StreamItem>) -> Result<Self, StreamError> {
        let edges = validate_slice(&items)?;
        Ok(ItemTrace { items, edges })
    }

    /// Build from items **without** validating the promise.
    ///
    /// For deliberately malformed streams (fault-injection tests, untrusted
    /// inputs) that will be driven through a [`crate::guard::Guarded`]
    /// algorithm. [`edges`](Self::edges) reports `items / 2`, which is only
    /// an upper bound when the promise is broken.
    pub fn new_unchecked(items: Vec<StreamItem>) -> Self {
        let edges = items.len() / 2;
        ItemTrace { items, edges }
    }

    /// Load a trace in either format — sniffed from the first 8 bytes —
    /// and validate it. Binary (`.adjb`) inputs are decoded in one buffered
    /// read; anything else is parsed as whitespace `src dst` per line (`#`
    /// comments allowed). CRLF line endings are accepted; lines with extra
    /// tokens or vertex ids that do not fit in `u32` are rejected as
    /// [`TraceError::Malformed`].
    pub fn read<R: Read>(reader: R) -> Result<Self, TraceError> {
        let items = Self::parse_items(reader)?;
        Self::new(items).map_err(TraceError::Invalid)
    }

    /// Parse like [`ItemTrace::read`] (same format sniffing) but skip
    /// promise validation, for streams that are expected to be malformed.
    pub fn read_unchecked<R: Read>(reader: R) -> Result<Self, TraceError> {
        Ok(Self::new_unchecked(Self::parse_items(reader)?))
    }

    /// Decode a trace already resident in memory — same format sniffing as
    /// [`ItemTrace::read`], without the intermediate copy a generic reader
    /// pays to be drained. Binary payloads decode straight off the slice;
    /// this is the zero-copy path file-backed replay drivers should use
    /// after an exact-size `std::fs::read`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let items = Self::parse_items_bytes(bytes)?;
        Self::new(items).map_err(TraceError::Invalid)
    }

    /// [`ItemTrace::from_bytes`] without promise validation, for streams
    /// that are expected to be malformed.
    pub fn from_bytes_unchecked(bytes: &[u8]) -> Result<Self, TraceError> {
        Ok(Self::new_unchecked(Self::parse_items_bytes(bytes)?))
    }

    /// Slice twin of [`ItemTrace::parse_items`].
    fn parse_items_bytes(bytes: &[u8]) -> Result<Vec<StreamItem>, TraceError> {
        if bytes.starts_with(&ADJB_MAGIC) {
            Self::decode_adjb(bytes)
        } else {
            Self::parse_text(bytes)
        }
    }

    /// Sniff the format from the first 8 bytes and dispatch to the binary
    /// or text parser.
    fn parse_items<R: Read>(mut reader: R) -> Result<Vec<StreamItem>, TraceError> {
        let mut head = [0u8; 8];
        let mut got = 0usize;
        while got < head.len() {
            match reader.read(&mut head[got..]).map_err(TraceError::Io)? {
                0 => break,
                n => got += n,
            }
        }
        if got == head.len() && head == ADJB_MAGIC {
            // One buffered read of the whole container; all decoding below
            // is slicing, no further I/O.
            let mut bytes = head.to_vec();
            reader.read_to_end(&mut bytes).map_err(TraceError::Io)?;
            Self::decode_adjb(&bytes)
        } else {
            Self::parse_text((&head[..got]).chain(reader))
        }
    }

    /// Decode a whole `.adjb` container: verify the frame, then walk the
    /// payload layout.
    fn decode_adjb(bytes: &[u8]) -> Result<Vec<StreamItem>, TraceError> {
        let payload = Frame::open(bytes, &ADJB_MAGIC, ADJB_VERSION)?;
        Ok(decode_pairs(adjb_pairs(payload)?))
    }

    /// Parse the text form, reusing one line buffer across the whole file
    /// instead of allocating a `String` per line.
    fn parse_text<R: Read>(reader: R) -> Result<Vec<StreamItem>, TraceError> {
        let mut items = Vec::new();
        let mut buf = BufReader::new(reader);
        let mut line = String::new();
        let mut lineno = 0usize;
        loop {
            line.clear();
            if buf.read_line(&mut line).map_err(TraceError::Io)? == 0 {
                break;
            }
            lineno += 1;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let mut parts = t.split_whitespace();
            let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(TraceError::Malformed { line: lineno });
            };
            let (Ok(a), Ok(b)) = (a.parse::<u32>(), b.parse::<u32>()) else {
                return Err(TraceError::Malformed { line: lineno });
            };
            items.push(StreamItem::new(VertexId(a), VertexId(b)));
        }
        Ok(items)
    }

    /// Serialize the trace in the binary `.adjb` container (see the module
    /// docs for the layout). A trace written here and loaded back through
    /// [`ItemTrace::read`] compares equal item for item.
    pub fn write_adjb<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let run_lens = crate::runner::list_runs(&self.items)
            .map(|run| {
                u32::try_from(run.end - run.start).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "adjacency list run exceeds u32 items",
                    )
                })
            })
            .collect::<std::io::Result<Vec<u32>>>()?;
        let len = 8 + self.items.len() * 8 + 8 + run_lens.len() * 4;
        let mut fw = FrameWriter::new(w, &ADJB_MAGIC, ADJB_VERSION, len as u64)?;
        fw.write_all(&(self.items.len() as u64).to_le_bytes())?;
        // Encode through one reused chunk buffer rather than a payload-sized
        // copy of the trace.
        let mut buf = Vec::with_capacity(8 << 12);
        for chunk in self.items.chunks(1 << 12) {
            buf.clear();
            for it in chunk {
                buf.extend_from_slice(&it.src.0.to_le_bytes());
                buf.extend_from_slice(&it.dst.0.to_le_bytes());
            }
            fw.write_all(&buf)?;
        }
        fw.write_all(&(run_lens.len() as u64).to_le_bytes())?;
        buf.clear();
        for len in &run_lens {
            buf.extend_from_slice(&len.to_le_bytes());
        }
        fw.write_all(&buf)?;
        fw.finish().map(drop)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of undirected edges.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// The items.
    pub fn items(&self) -> &[StreamItem] {
        &self.items
    }

    /// Consume the trace, yielding the items without copying.
    pub fn into_items(self) -> Vec<StreamItem> {
        self.items
    }
}

/// Terminal outcome of a retried trace load.
#[derive(Debug)]
pub enum RetryError {
    /// A failure retrying cannot fix (malformed line, promise violation).
    Permanent(TraceError),
    /// The retry budget ran out; `last` is the final transient failure.
    GaveUp {
        /// Attempts made (`retries + 1`).
        attempts: usize,
        /// The error from the last attempt.
        last: TraceError,
    },
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Permanent(e) => write!(f, "permanent trace failure: {e}"),
            RetryError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for RetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetryError::Permanent(e) | RetryError::GaveUp { last: e, .. } => Some(e),
        }
    }
}

/// Load a trace file, retrying transient I/O failures up to `retries`
/// times after the first attempt (the CLI's `--retries N`). `validate`
/// selects promise validation on or off. On success returns the trace and
/// the number of attempts used (1 = no retries).
///
/// Each attempt re-reads the file from the start with one exact-size
/// `std::fs::read` and decodes it in place, as [`ItemTrace::from_bytes`]
/// does: binary `.adjb` files skip the generic reader drain that would
/// buffer the payload a second time, and the bytes are dropped before
/// validation, so they are never alive next to the validator's working
/// memory. [`TraceError::Io`] failures of the open or the read are retried
/// after a bounded, jittered backoff; failures a retry cannot fix
/// ([`TraceError::Malformed`], [`TraceError::Invalid`]) surface at once as
/// [`RetryError::Permanent`].
pub fn read_trace_file_with_retry(
    path: &std::path::Path,
    retries: usize,
    validate: bool,
) -> Result<(ItemTrace, usize), RetryError> {
    load_with_retry(
        retries,
        validate,
        || std::fs::read(path),
        std::thread::sleep,
    )
}

/// The attempt loop behind [`read_trace_file_with_retry`]: `open` yields
/// the source's complete bytes per attempt and `sleep` waits out each
/// backoff (tests pass a flaky opener and a recording sleeper).
fn load_with_retry(
    retries: usize,
    validate: bool,
    mut open: impl FnMut() -> std::io::Result<Vec<u8>>,
    mut sleep: impl FnMut(Duration),
) -> Result<(ItemTrace, usize), RetryError> {
    let attempts = retries.saturating_add(1);
    let mut rng = JITTER_SEED | 1;
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            sleep(backoff((attempt - 1) as u32, &mut rng));
        }
        let loaded = open().map_err(TraceError::Io).and_then(|bytes| {
            let items = ItemTrace::parse_items_bytes(&bytes)?;
            drop(bytes);
            if validate {
                ItemTrace::new(items).map_err(TraceError::Invalid)
            } else {
                Ok(ItemTrace::new_unchecked(items))
            }
        });
        match loaded {
            Ok(trace) => return Ok((trace, attempt + 1)),
            Err(TraceError::Io(e)) => last = Some(TraceError::Io(e)),
            Err(permanent) => return Err(RetryError::Permanent(permanent)),
        }
    }
    Err(RetryError::GaveUp {
        attempts,
        last: last.expect("every failed attempt records an error"),
    })
}

/// Seed of the backoff jitter stream.
const JITTER_SEED: u64 = 0x5EED;

/// Backoff before retry number `retry` (0-based): 10 ms doubling per
/// retry, clamped to 500 ms, scaled by a multiplicative jitter in `[½, 1]`
/// drawn from a xorshift stream. The stream starts from [`JITTER_SEED`],
/// so every load follows the same schedule and tests can pin it.
fn backoff(retry: u32, rng: &mut u64) -> Duration {
    const INITIAL: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_millis(500);
    let base = INITIAL.saturating_mul(1u32 << retry.min(20)).min(CAP);
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let frac = 0.5 + 0.5 * (*rng >> 11) as f64 / (1u64 << 53) as f64;
    base.mul_f64(frac)
}

/// The operator note for a trace load that took `attempts` attempts, once
/// the trace's promise verdict is in: `Some` only when a retry was needed
/// and the trace is `valid` (or was not held to the promise). A load that
/// validates while it reads ends an invalid trace on its permanent error,
/// before success is reported; a caller that decodes first and validates
/// later passes the verdict here so it reports the same.
pub fn retry_note(attempts: usize, valid: bool) -> Option<String> {
    (attempts > 1 && valid).then(|| format!("note: read succeeded after {attempts} attempts"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjlist::AdjListStream;
    use crate::order::StreamOrder;
    use adjstream_graph::gen;

    #[test]
    fn trace_roundtrips_generated_stream() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::gnm(25, 90, &mut rng);
        let s = AdjListStream::new(&g, StreamOrder::shuffled(25, 4));
        let trace = ItemTrace::new(s.collect_items()).unwrap();
        assert_eq!(trace.edges(), 90);
        assert_eq!(trace.len(), 180);
    }

    #[test]
    fn rejects_invalid_traces() {
        let items = vec![
            StreamItem::new(VertexId(0), VertexId(1)),
            StreamItem::new(VertexId(0), VertexId(2)),
        ];
        assert!(matches!(
            ItemTrace::new(items),
            Err(StreamError::MissingReverse { .. })
        ));
    }

    #[test]
    fn parses_text_form() {
        let text = "# comment\n0 1\n0 2\n1 0\n2 0\n";
        let trace = ItemTrace::read(text.as_bytes()).unwrap();
        assert_eq!(trace.edges(), 2);
        let bad = ItemTrace::read("0 x\n".as_bytes());
        assert!(matches!(bad, Err(TraceError::Malformed { line: 1 })));
    }

    #[test]
    fn parses_crlf_line_endings() {
        let text = "# comment\r\n0 1\r\n1 0\r\n";
        let trace = ItemTrace::read(text.as_bytes()).unwrap();
        assert_eq!(trace.edges(), 1);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn rejects_vertex_ids_overflowing_u32() {
        let text = "0 4294967296\n"; // u32::MAX + 1
        assert!(matches!(
            ItemTrace::read(text.as_bytes()),
            Err(TraceError::Malformed { line: 1 })
        ));
        // u32::MAX itself is in range (parse succeeds; the lone item then
        // fails stream validation, not parsing).
        let edge = "0 4294967295\n4294967295 0\n";
        assert_eq!(ItemTrace::read(edge.as_bytes()).unwrap().edges(), 1);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(matches!(
            ItemTrace::read("0 1 junk\n1 0\n".as_bytes()),
            Err(TraceError::Malformed { line: 1 })
        ));
        assert!(matches!(
            ItemTrace::read("0 1\n1 0 0\n".as_bytes()),
            Err(TraceError::Malformed { line: 2 })
        ));
    }

    #[test]
    fn unchecked_constructors_accept_malformed_streams() {
        let t = ItemTrace::read_unchecked("0 1\n0 1\n0 0\n".as_bytes()).unwrap();
        assert_eq!(t.len(), 3);
        let t2 = ItemTrace::new_unchecked(vec![StreamItem::new(VertexId(0), VertexId(0))]);
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn binary_roundtrip_preserves_items() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let g = gen::gnm(40, 120, &mut rng);
        let s = AdjListStream::new(&g, StreamOrder::shuffled(40, 11));
        let trace = ItemTrace::new(s.collect_items()).unwrap();
        let mut bytes = Vec::new();
        trace.write_adjb(&mut bytes).unwrap();
        assert_eq!(&bytes[..8], &ADJB_MAGIC);
        let back = ItemTrace::read(bytes.as_slice()).unwrap();
        assert_eq!(back.items(), trace.items());
        assert_eq!(back.edges(), trace.edges());
        // The zero-copy slice entry decodes identically, in both formats.
        let zero_copy = ItemTrace::from_bytes(&bytes).unwrap();
        assert_eq!(zero_copy.items(), trace.items());
        let text: String = trace
            .items()
            .iter()
            .map(|it| format!("{} {}\n", it.src.0, it.dst.0))
            .collect();
        let from_text = ItemTrace::from_bytes(text.as_bytes()).unwrap();
        assert_eq!(from_text.items(), trace.items());
    }

    #[test]
    fn binary_roundtrip_of_empty_trace() {
        let trace = ItemTrace::new(Vec::new()).unwrap();
        let mut bytes = Vec::new();
        trace.write_adjb(&mut bytes).unwrap();
        let back = ItemTrace::read(bytes.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn binary_rejects_inconsistent_run_lengths() {
        // Rebuild the container with a run-length table that does not sum
        // to the item count, keeping the checksum valid so only the run
        // check can fire.
        let items: u64 = 4;
        let mut payload = Vec::new();
        payload.extend_from_slice(&items.to_le_bytes());
        for (s, d) in [(0u32, 1u32), (0, 2), (1, 0), (2, 0)] {
            payload.extend_from_slice(&s.to_le_bytes());
            payload.extend_from_slice(&d.to_le_bytes());
        }
        payload.extend_from_slice(&2u64.to_le_bytes()); // two runs...
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes()); // ...summing to 5
        let mut bytes = Vec::new();
        crate::frame::write_frame(&mut bytes, &ADJB_MAGIC, ADJB_VERSION, &payload).unwrap();
        assert!(matches!(
            ItemTrace::read(bytes.as_slice()),
            Err(TraceError::InconsistentRuns {
                items: 4,
                run_total: 5
            })
        ));
    }

    #[test]
    fn sniffing_still_accepts_short_text_inputs() {
        // Shorter than the 8-byte magic probe.
        let trace = ItemTrace::read("0 1\n1 0".as_bytes()).unwrap();
        assert_eq!(trace.edges(), 1);
        assert!(ItemTrace::read("".as_bytes()).unwrap().is_empty());
    }

    /// An opener over `data` whose first `failures` calls fail with `kind`,
    /// counting every call in `opens`.
    fn flaky<'a>(
        data: &'a [u8],
        failures: usize,
        kind: std::io::ErrorKind,
        opens: &'a std::cell::Cell<usize>,
    ) -> impl FnMut() -> std::io::Result<Vec<u8>> + 'a {
        move || {
            opens.set(opens.get() + 1);
            if opens.get() <= failures {
                Err(std::io::Error::new(kind, "injected transient fault"))
            } else {
                Ok(data.to_vec())
            }
        }
    }

    /// A sleeper that records the requested durations instead of sleeping.
    fn recording_sleeper(log: &std::cell::RefCell<Vec<Duration>>) -> impl FnMut(Duration) + '_ {
        move |d| log.borrow_mut().push(d)
    }

    #[test]
    fn retrying_load_survives_transient_faults() {
        let (opens, sleeps) = Default::default();
        let (trace, attempts) = load_with_retry(
            3,
            true,
            flaky(
                b"0 1\n1 0\n",
                2,
                std::io::ErrorKind::ConnectionReset,
                &opens,
            ),
            recording_sleeper(&sleeps),
        )
        .expect("2 faults fit in a 4-attempt budget");
        assert_eq!(trace.edges(), 1);
        assert_eq!(attempts, 3, "two failed attempts, then success");
        assert_eq!(opens.get(), 3);
        assert_eq!(sleeps.borrow().len(), 2, "one backoff per failed attempt");
    }

    #[test]
    fn retrying_load_gives_up_with_a_typed_error() {
        let (opens, sleeps) = Default::default();
        let err = load_with_retry(
            2,
            true,
            flaky(b"0 1\n1 0\n", 10, std::io::ErrorKind::TimedOut, &opens),
            recording_sleeper(&sleeps),
        )
        .expect_err("10 faults exhaust a 3-attempt budget");
        match err {
            RetryError::GaveUp { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(last, TraceError::Io(_)));
            }
            other => panic!("expected GaveUp, got {other}"),
        }
        assert_eq!(opens.get(), 3, "only 3 attempts were made");
        assert_eq!(sleeps.borrow().len(), 2);
    }

    #[test]
    fn retries_count_attempts_after_the_first() {
        for (retries, failures, want) in [(0, 0, 1), (3, 3, 4), (usize::MAX, 5, 6)] {
            let (opens, sleeps) = Default::default();
            let (_, attempts) = load_with_retry(
                retries,
                true,
                flaky(
                    b"0 1\n1 0\n",
                    failures,
                    std::io::ErrorKind::Interrupted,
                    &opens,
                ),
                recording_sleeper(&sleeps),
            )
            .expect("the faults fit in the budget");
            assert_eq!(attempts, want);
        }
        let (opens, sleeps) = Default::default();
        let err = load_with_retry(
            0,
            true,
            flaky(b"0 1\n1 0\n", 1, std::io::ErrorKind::Interrupted, &opens),
            recording_sleeper(&sleeps),
        )
        .expect_err("no retries");
        assert!(matches!(err, RetryError::GaveUp { attempts: 1, .. }));
        assert!(sleeps.borrow().is_empty(), "a single attempt never sleeps");
    }

    #[test]
    fn retry_schedule_is_the_seeded_backoff_stream() {
        let run = || {
            let (opens, sleeps) = Default::default();
            load_with_retry(
                3,
                true,
                flaky(
                    b"0 1\n1 0\n",
                    3,
                    std::io::ErrorKind::ConnectionReset,
                    &opens,
                ),
                recording_sleeper(&sleeps),
            )
            .expect("3 faults fit in a 4-attempt budget");
            sleeps.into_inner()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same recorded schedule");
        let mut rng = JITTER_SEED | 1;
        let want: Vec<Duration> = (0..3).map(|r| backoff(r, &mut rng)).collect();
        assert_eq!(a, want);
    }

    #[test]
    fn malformed_input_is_permanent_and_never_retried() {
        let (opens, sleeps) = Default::default();
        let err = load_with_retry(
            4,
            true,
            flaky(b"0 junk\n", 0, std::io::ErrorKind::TimedOut, &opens),
            recording_sleeper(&sleeps),
        )
        .expect_err("malformed line");
        assert!(matches!(
            err,
            RetryError::Permanent(TraceError::Malformed { line: 1 })
        ));
        assert_eq!(opens.get(), 1);
        // Promise violations are permanent too.
        let opens = Default::default();
        let err = load_with_retry(
            4,
            true,
            flaky(b"0 1\n0 2\n", 0, std::io::ErrorKind::TimedOut, &opens),
            recording_sleeper(&sleeps),
        )
        .expect_err("invalid stream");
        assert!(matches!(err, RetryError::Permanent(TraceError::Invalid(_))));
        assert_eq!(opens.get(), 1);
        assert!(sleeps.borrow().is_empty(), "nothing was retried");
        // ... unless validation is skipped, in which case the load succeeds.
        let opens = Default::default();
        let (trace, attempts) = load_with_retry(
            4,
            false,
            flaky(b"0 1\n0 2\n", 1, std::io::ErrorKind::TimedOut, &opens),
            recording_sleeper(&sleeps),
        )
        .expect("unchecked read tolerates promise violations");
        assert_eq!(trace.len(), 2);
        assert_eq!(attempts, 2);
    }

    #[test]
    fn failed_opens_are_retried_like_failed_reads() {
        // The file appears during the first backoff, so the first
        // `fs::read` fails to open it and the second reads it.
        let dir = std::env::temp_dir().join(format!("adjstream-late-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.txt");
        let mut slept = 0;
        let (trace, attempts) = load_with_retry(
            1,
            true,
            || std::fs::read(&path),
            |_| {
                slept += 1;
                std::fs::write(&path, "0 1\n1 0\n").unwrap();
            },
        )
        .expect("second open succeeds");
        assert_eq!(trace.edges(), 1);
        assert_eq!(attempts, 2);
        assert_eq!(slept, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_doubles_clamps_and_jitters_deterministically() {
        let mut rng_a = JITTER_SEED | 1;
        let mut rng_b = JITTER_SEED | 1;
        for retry in 0..12 {
            let a = backoff(retry, &mut rng_a);
            let b = backoff(retry, &mut rng_b);
            assert_eq!(a, b, "same seed, same schedule");
            let base = Duration::from_millis(10)
                .saturating_mul(1 << retry)
                .min(Duration::from_millis(500));
            assert!(a <= base, "jitter never exceeds the clamped base");
            assert!(a >= base / 2, "jitter keeps at least half the base");
        }
        // Huge retry indices must not overflow the shift.
        let _ = backoff(1000, &mut rng_a);
    }

    #[test]
    fn default_backoff_schedule_is_pinned() {
        let mut rng = 0x5EED | 1;
        let got: Vec<u128> = (0..8).map(|r| backoff(r, &mut rng).as_nanos()).collect();
        assert_eq!(
            got,
            [
                5_000_007,
                17_801_871,
                31_160_865,
                72_849_777,
                158_586_006,
                220_237_745,
                415_309_335,
                494_067_338
            ]
        );
    }

    #[test]
    fn file_backed_retry_helper_reads_real_files() {
        let dir = std::env::temp_dir().join(format!("adjstream-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        std::fs::write(&path, "0 1\n1 0\n").unwrap();
        let (trace, attempts) = read_trace_file_with_retry(&path, 0, true).expect("file exists");
        assert_eq!(trace.edges(), 1);
        assert_eq!(attempts, 1);
        let missing = dir.join("nope.txt");
        let err = read_trace_file_with_retry(&missing, 1, true).expect_err("missing file");
        assert!(matches!(err, RetryError::GaveUp { attempts: 2, .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_algorithms_identically_to_the_runner() {
        use crate::runner::{run_slice_passes, MultiPassAlgorithm, PassOrders, Runner};
        use crate::SpaceUsage;
        struct ListCounter {
            lists: usize,
            items: usize,
        }
        impl SpaceUsage for ListCounter {
            fn space_bytes(&self) -> usize {
                16
            }
        }
        impl MultiPassAlgorithm for ListCounter {
            type Output = (usize, usize);
            fn passes(&self) -> usize {
                2
            }
            fn begin_pass(&mut self, _p: usize) {}
            fn begin_list(&mut self, _o: VertexId) {
                self.lists += 1;
            }
            fn item(&mut self, _s: VertexId, _d: VertexId) {
                self.items += 1;
            }
            fn finish(self) -> (usize, usize) {
                (self.lists, self.items)
            }
        }
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::gnm(20, 60, &mut rng);
        let order = StreamOrder::shuffled(20, 7);
        let s = AdjListStream::new(&g, order.clone());
        let trace = ItemTrace::new(s.collect_items()).unwrap();
        let (from_trace, rep_t) =
            run_slice_passes(ListCounter { lists: 0, items: 0 }, |_| trace.items()).unwrap();
        let (from_runner, rep_r) = Runner::run(
            &g,
            ListCounter { lists: 0, items: 0 },
            &PassOrders::Same(order),
        );
        assert_eq!(from_trace, from_runner);
        assert_eq!(rep_t.items_processed, rep_r.items_processed);
        assert_eq!(rep_t.peak_state_bytes, rep_r.peak_state_bytes);
    }
}
