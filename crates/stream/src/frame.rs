//! The one framed container behind every binary format in the workspace.
//!
//! `.adjb` item traces ([`crate::trace`]), `.adjbu` update traces
//! ([`crate::update_trace`]), pass-boundary checkpoints
//! ([`crate::checkpoint`]) and the shard-worker payloads that ride inside
//! checkpoints ([`crate::shard`]) all share this frame:
//!
//! ```text
//! magic    8 bytes  per format: b"ADJBTRAC", b"ADJBUPDT", b"ADJSCKPT"
//! version  u32 LE   per format
//! length   u64 LE   payload byte count
//! payload  length bytes
//! check    u64 LE   checksum64(payload)
//! ```
//!
//! [`FrameWriter`] streams a payload whose length is declared up front,
//! hashing it through [`Checksum64`] as it goes. [`Frame::parse`] locates
//! the payload and the recorded checksum with checked arithmetic — a
//! length field larger than the input is [`FrameError::Truncated`], never
//! an allocation or a panic — and [`Frame::verify`] compares the checksum.
//! Readers that verify incrementally (mmap replay) parse without verifying
//! and fold the payload through their own windowed [`Checksum64`].
//!
//! Bytes after the trailer are ignored. A reader accepts exactly its
//! format's current version: there are no readers for older versions.

use std::fmt;
use std::io::{self, Write};

use crate::hashing::{checksum64, Checksum64};

/// Bytes before the payload: magic, version, length.
pub const HEADER_LEN: usize = 8 + 4 + 8;

/// Bytes after the payload: the checksum trailer.
pub const TRAILER_LEN: usize = 8;

/// Why a framed container was rejected.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying I/O operation failed.
    Io(io::Error),
    /// The input does not start with the expected magic.
    BadMagic,
    /// The container's version is not the one this build reads.
    UnsupportedVersion {
        /// Version recorded in the container.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The input ends before the declared payload and trailer, or the
    /// payload's own counts do not fill the declared length exactly.
    Truncated,
    /// The payload bytes do not hash to the recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum of the payload actually present.
        actual: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads {supported})"
            ),
            FrameError::Truncated => write!(f, "truncated"),
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload corrupt: checksum {actual:#018x} != recorded {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Streaming frame writer: the header goes out at construction, payload
/// bytes are hashed as they are written, and [`finish`](Self::finish)
/// appends the trailer. Writing more or fewer bytes than the declared
/// length is an [`io::ErrorKind::InvalidInput`] error.
pub struct FrameWriter<W: Write> {
    inner: W,
    hasher: Checksum64,
    remaining: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Write the header of a `len`-byte payload to `inner`.
    pub fn new(mut inner: W, magic: &[u8; 8], version: u32, len: u64) -> io::Result<Self> {
        inner.write_all(magic)?;
        inner.write_all(&version.to_le_bytes())?;
        inner.write_all(&len.to_le_bytes())?;
        Ok(FrameWriter {
            inner,
            hasher: Checksum64::new(),
            remaining: len,
        })
    }

    /// Write the trailer once exactly the declared length has been
    /// written; returns the payload checksum and the inner writer.
    pub fn finish(mut self) -> io::Result<(u64, W)> {
        if self.remaining != 0 {
            return Err(length_error(self.remaining, "few"));
        }
        let checksum = self.hasher.finalize();
        self.inner.write_all(&checksum.to_le_bytes())?;
        Ok((checksum, self.inner))
    }
}

impl<W: Write> Write for FrameWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.len() as u64 > self.remaining {
            return Err(length_error(buf.len() as u64 - self.remaining, "many"));
        }
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        self.remaining -= n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn length_error(by: u64, which: &str) -> io::Error {
    let msg = format!("framed payload {by} bytes too {which} for its declared length");
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Frame `payload` into `w` in one call.
pub(crate) fn write_frame(
    w: impl Write,
    magic: &[u8; 8],
    version: u32,
    payload: &[u8],
) -> io::Result<()> {
    let mut fw = FrameWriter::new(w, magic, version, payload.len() as u64)?;
    fw.write_all(payload)?;
    fw.finish().map(drop)
}

/// A parsed (not yet verified) container: the payload slice and the
/// checksum recorded after it.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The payload bytes.
    pub payload: &'a [u8],
    /// The checksum recorded in the trailer.
    pub checksum: u64,
}

impl<'a> Frame<'a> {
    /// Check magic and version and locate the payload and trailer in
    /// `bytes`. Input cut anywhere — inside the magic included — is
    /// [`FrameError::Truncated`].
    pub fn parse(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<Self, FrameError> {
        let head = &bytes[..bytes.len().min(magic.len())];
        if head != &magic[..head.len()] {
            return Err(FrameError::BadMagic);
        }
        let field = |at: usize, n: usize| bytes.get(at..at + n).ok_or(FrameError::Truncated);
        let found = u32::from_le_bytes(field(8, 4)?.try_into().expect("4 bytes"));
        if found != version {
            return Err(FrameError::UnsupportedVersion {
                found,
                supported: version,
            });
        }
        let len = u64::from_le_bytes(field(12, 8)?.try_into().expect("8 bytes"));
        let (payload, rest) = usize::try_from(len)
            .ok()
            .and_then(|len| bytes[HEADER_LEN..].split_at_checked(len))
            .ok_or(FrameError::Truncated)?;
        let trailer = rest.get(..TRAILER_LEN).ok_or(FrameError::Truncated)?;
        Ok(Frame {
            payload,
            checksum: u64::from_le_bytes(trailer.try_into().expect("8 bytes")),
        })
    }

    /// Compare the payload's checksum with the recorded one.
    pub fn verify(&self) -> Result<(), FrameError> {
        check(self.checksum, checksum64(self.payload))
    }

    /// [`parse`](Self::parse) then [`verify`](Self::verify): the payload
    /// of an intact container.
    pub fn open(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<&'a [u8], FrameError> {
        let frame = Self::parse(bytes, magic, version)?;
        frame.verify()?;
        Ok(frame.payload)
    }
}

/// The one checksum comparison: `actual` must equal the recorded
/// `expected`.
pub(crate) fn check(expected: u64, actual: u64) -> Result<(), FrameError> {
    if expected == actual {
        Ok(())
    } else {
        Err(FrameError::ChecksumMismatch { expected, actual })
    }
}

/// Split a little-endian `u64` count and that many `width`-byte records
/// off the front of `payload` — the one counted-region walk of the
/// `.adjb` and `.adjbu` payload layouts. A count the remaining payload
/// cannot hold is [`FrameError::Truncated`], checked before any slicing.
pub(crate) fn take_counted<'a>(
    payload: &mut &'a [u8],
    width: usize,
) -> Result<(u64, &'a [u8]), FrameError> {
    let (count, rest) = payload.split_at_checked(8).ok_or(FrameError::Truncated)?;
    let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
    let (records, tail) = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(width))
        .and_then(|len| rest.split_at_checked(len))
        .ok_or(FrameError::Truncated)?;
    *payload = tail;
    Ok((count, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"TESTFRAM";

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, &MAGIC, 3, payload).unwrap();
        out
    }

    #[test]
    fn round_trips_and_lays_out_the_header() {
        let bytes = framed(b"payload bytes");
        assert_eq!(bytes.len(), HEADER_LEN + 13 + TRAILER_LEN);
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes());
        assert_eq!(&bytes[12..20], &13u64.to_le_bytes());
        assert_eq!(Frame::open(&bytes, &MAGIC, 3).unwrap(), b"payload bytes");
        assert_eq!(Frame::open(&framed(b""), &MAGIC, 3).unwrap(), b"");
    }

    #[test]
    fn writer_enforces_the_declared_length() {
        let mut fw = FrameWriter::new(Vec::new(), &MAGIC, 3, 4).unwrap();
        assert!(fw.write_all(b"12345").is_err(), "too long");
        fw.write_all(b"123").unwrap();
        assert!(fw.finish().is_err(), "too short");
        let mut fw = FrameWriter::new(Vec::new(), &MAGIC, 3, 4).unwrap();
        fw.write_all(b"12").unwrap();
        fw.write_all(b"34").unwrap();
        let (checksum, out) = fw.finish().unwrap();
        assert_eq!(checksum, checksum64(b"1234"));
        assert_eq!(out, framed(b"1234"));
    }

    #[test]
    fn foreign_magic_is_bad_magic_and_a_magic_prefix_is_truncated() {
        let bytes = framed(b"x");
        assert!(matches!(
            Frame::parse(&bytes, b"OTHERFMT", 3),
            Err(FrameError::BadMagic)
        ));
        assert!(matches!(
            Frame::parse(b"TEST", &MAGIC, 3),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(
            Frame::parse(b"TESX", &MAGIC, 3),
            Err(FrameError::BadMagic)
        ));
    }

    #[test]
    fn counted_regions_are_bounds_checked() {
        let payload = [1u8, 0, 0, 0, 0, 0, 0, 0, 7, 7, 9];
        let mut rest = &payload[..];
        assert_eq!(take_counted(&mut rest, 2).unwrap(), (1, &[7u8, 7][..]));
        assert_eq!(rest, &[9]);
        let mut rest = &payload[..];
        assert!(matches!(
            take_counted(&mut rest, 4),
            Err(FrameError::Truncated)
        ));
        let huge = u64::MAX.to_le_bytes();
        assert!(matches!(
            take_counted(&mut &huge[..], 8),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(
            take_counted(&mut &payload[..7], 1),
            Err(FrameError::Truncated)
        ));
    }
}
