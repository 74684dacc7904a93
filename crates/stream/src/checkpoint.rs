//! Pass-boundary checkpointing: a serialization trait and a small,
//! versioned, checksummed on-disk container.
//!
//! Multi-pass algorithms only need persistence at *pass boundaries*: no
//! adjacency list is open, per-pass scratch state has been folded into the
//! cross-pass summaries, and the driver is about to start the next pass from
//! item 0. The [`Checkpoint`] trait therefore captures exactly that state —
//! implementors document which fields are reconstructed rather than stored
//! (per-pass counters reset by `begin_pass`, hash functions re-derived from
//! seeds, heap layouts rebuilt from their member sets).
//!
//! The resume contract is **bit-for-bit determinism of the estimates**: a
//! run restored from a pass boundary and driven over the remaining passes
//! must produce exactly the per-instance outputs of the uninterrupted run.
//! Space-metering byte counts are explicitly *not* part of the contract —
//! container capacities after deserialization may differ from the organic
//! growth pattern of the original run.
//!
//! # On-disk container
//!
//! [`write_checkpoint_file`] wraps an opaque payload in the workspace's one
//! framed container ([`crate::frame`], magic [`MAGIC`]). Files are written
//! atomically — the frame goes to a sibling temp file which is fsynced and
//! then renamed over the destination — so a crash mid-write leaves either
//! the previous complete checkpoint or none, never a torn one.
//! [`read_checkpoint_file`] verifies the frame before releasing the
//! payload; every rejection is a typed [`FrameError`].

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::frame::{write_frame, Frame, FrameError};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"ADJSCKPT";

/// Current checkpoint container format version. Bumped on any incompatible
/// layout change; readers reject other versions with
/// [`FrameError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// State that can be persisted at a pass boundary and later restored.
///
/// `restore` must be the exact inverse of `save`: for any value `x` at a
/// pass boundary, `restore(save(x))` drives the remaining passes to
/// bit-for-bit identical outputs. Implementations should reject
/// structurally invalid input with [`io::ErrorKind::InvalidData`] rather
/// than panic — checkpoint bytes cross a trust boundary (the filesystem).
pub trait Checkpoint: Sized {
    /// Serialize the pass-boundary state into `w`.
    fn save(&self, w: &mut dyn Write) -> io::Result<()>;

    /// Reconstruct the state serialized by [`Checkpoint::save`].
    fn restore(r: &mut dyn Read) -> io::Result<Self>;
}

/// Frame `payload` and write it atomically to `path`: the container goes to
/// a sibling `<name>.tmp` file which is fsynced and renamed into place.
pub fn write_checkpoint_file(path: &Path, payload: &[u8]) -> Result<(), FrameError> {
    let mut name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint path has no file name",
            )
        })?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = fs::File::create(&tmp)?;
        write_frame(&mut f, &MAGIC, FORMAT_VERSION, payload)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and verify a checkpoint container, returning its payload.
pub fn read_checkpoint_file(path: &Path) -> Result<Vec<u8>, FrameError> {
    let bytes = fs::read(path)?;
    Ok(Frame::open(&bytes, &MAGIC, FORMAT_VERSION)?.to_vec())
}

/// Garbage-collect stale checkpoint files from `dir`.
///
/// A file is deleted when `is_candidate(path)` returns `true` *and* its
/// modification time is older than `retention`. The candidate predicate is
/// the caller's liveness policy — the CLI keeps any checkpoint a current
/// invocation might resume, the daemon keeps any checkpoint whose job
/// manifest is still non-terminal. Files whose metadata cannot be read
/// (or whose clock skew puts them in the future) are left alone: GC must
/// never turn a recoverable run into an unrecoverable one over an mtime
/// oddity. Returns the number of files removed.
pub fn gc_stale_checkpoints<F>(dir: &Path, retention: std::time::Duration, is_candidate: F) -> usize
where
    F: Fn(&Path) -> bool,
{
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let now = std::time::SystemTime::now();
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() || !is_candidate(&path) {
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        let Ok(mtime) = meta.modified() else { continue };
        let Ok(age) = now.duration_since(mtime) else {
            continue;
        };
        if age > retention && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Build an [`io::ErrorKind::InvalidData`] error for structurally bad
/// checkpoint payloads.
pub fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

macro_rules! le_rw {
    ($write:ident, $read:ident, $ty:ty) => {
        /// Write one little-endian value.
        pub fn $write(w: &mut dyn Write, v: $ty) -> io::Result<()> {
            w.write_all(&v.to_le_bytes())
        }

        /// Read one little-endian value.
        pub fn $read(r: &mut dyn Read) -> io::Result<$ty> {
            let mut buf = [0u8; std::mem::size_of::<$ty>()];
            r.read_exact(&mut buf)?;
            Ok(<$ty>::from_le_bytes(buf))
        }
    };
}

le_rw!(write_u32, read_u32, u32);
le_rw!(write_u64, read_u64, u64);

/// Write one byte.
pub fn write_u8(w: &mut dyn Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

/// Read one byte.
pub fn read_u8(r: &mut dyn Read) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

/// Write a `usize` as a u64 (portable across word sizes).
pub fn write_usize(w: &mut dyn Write, v: usize) -> io::Result<()> {
    write_u64(w, v as u64)
}

/// Read a `usize` written by [`write_usize`].
pub fn read_usize(r: &mut dyn Read) -> io::Result<usize> {
    let v = read_u64(r)?;
    usize::try_from(v).map_err(|_| corrupt(format!("length {v} exceeds this platform's usize")))
}

/// Write an `f64` by bit pattern (exact round-trip, NaN included).
pub fn write_f64(w: &mut dyn Write, v: f64) -> io::Result<()> {
    write_u64(w, v.to_bits())
}

/// Read an `f64` written by [`write_f64`].
pub fn read_f64(r: &mut dyn Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

/// Write a length-prefixed byte string.
pub fn write_bytes(w: &mut dyn Write, v: &[u8]) -> io::Result<()> {
    write_usize(w, v.len())?;
    w.write_all(v)
}

/// Read a byte string written by [`write_bytes`].
pub fn read_bytes(r: &mut dyn Read) -> io::Result<Vec<u8>> {
    let len = read_usize(r)?;
    // Cap the eager allocation; corrupt lengths otherwise request huge
    // buffers before read_exact can fail.
    let mut buf = Vec::with_capacity(len.min(1 << 20));
    let took = r.take(len as u64).read_to_end(&mut buf)?;
    if took != len {
        return Err(corrupt(format!("expected {len} bytes, found {took}")));
    }
    Ok(buf)
}

/// Write a length-prefixed UTF-8 string.
pub fn write_str(w: &mut dyn Write, v: &str) -> io::Result<()> {
    write_bytes(w, v.as_bytes())
}

/// Read a string written by [`write_str`].
pub fn read_str(r: &mut dyn Read) -> io::Result<String> {
    String::from_utf8(read_bytes(r)?).map_err(|_| corrupt("invalid UTF-8 in checkpoint string"))
}

// ---------------------------------------------------------------------------
// Checkpoint impls for the typed errors: a quarantined instance's outcome
// (which may embed a RunError) is part of a batch checkpoint, so it must
// survive the round-trip too.
// ---------------------------------------------------------------------------

impl Checkpoint for crate::validate::StreamError {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        use crate::validate::StreamError as E;
        match self {
            E::SelfLoop { vertex, position } => {
                write_u8(w, 0)?;
                write_u32(w, vertex.0)?;
                write_usize(w, *position)
            }
            E::ListNotContiguous { vertex, position } => {
                write_u8(w, 1)?;
                write_u32(w, vertex.0)?;
                write_usize(w, *position)
            }
            E::DuplicateNeighbor { src, dst, position } => {
                write_u8(w, 2)?;
                write_u32(w, src.0)?;
                write_u32(w, dst.0)?;
                write_usize(w, *position)
            }
            E::MissingReverse { src, dst } => {
                write_u8(w, 3)?;
                write_u32(w, src.0)?;
                write_u32(w, dst.0)
            }
            E::UnbalancedEdges { parity } => {
                write_u8(w, 4)?;
                write_u64(w, *parity)
            }
            E::PassOrderChanged { pass, list_index } => {
                write_u8(w, 5)?;
                write_usize(w, *pass)?;
                write_usize(w, *list_index)
            }
        }
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        use adjstream_graph::VertexId;

        use crate::validate::StreamError as E;
        Ok(match read_u8(r)? {
            0 => E::SelfLoop {
                vertex: VertexId(read_u32(r)?),
                position: read_usize(r)?,
            },
            1 => E::ListNotContiguous {
                vertex: VertexId(read_u32(r)?),
                position: read_usize(r)?,
            },
            2 => E::DuplicateNeighbor {
                src: VertexId(read_u32(r)?),
                dst: VertexId(read_u32(r)?),
                position: read_usize(r)?,
            },
            3 => E::MissingReverse {
                src: VertexId(read_u32(r)?),
                dst: VertexId(read_u32(r)?),
            },
            4 => E::UnbalancedEdges {
                parity: read_u64(r)?,
            },
            5 => E::PassOrderChanged {
                pass: read_usize(r)?,
                list_index: read_usize(r)?,
            },
            t => return Err(corrupt(format!("bad stream error tag {t}"))),
        })
    }
}

impl Checkpoint for crate::runner::RunError {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        use crate::runner::RunError as E;
        match self {
            E::OrderMismatch => write_u8(w, 0),
            E::WrongOrderCount { expected, got } => {
                write_u8(w, 1)?;
                write_usize(w, *expected)?;
                write_usize(w, *got)
            }
            E::Invalid { pass, error } => {
                write_u8(w, 2)?;
                write_usize(w, *pass)?;
                error.save(w)
            }
            E::EmptyBatch => write_u8(w, 3),
            E::MixedPassContracts => write_u8(w, 4),
            E::DeadlineExceeded { limit_ms } => {
                write_u8(w, 5)?;
                write_u64(w, *limit_ms)
            }
            E::SpaceBudgetExceeded { used, limit } => {
                write_u8(w, 6)?;
                write_usize(w, *used)?;
                write_usize(w, *limit)
            }
            E::Checkpoint { message } => {
                write_u8(w, 7)?;
                write_str(w, message)
            }
        }
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        use crate::runner::RunError as E;
        Ok(match read_u8(r)? {
            0 => E::OrderMismatch,
            1 => E::WrongOrderCount {
                expected: read_usize(r)?,
                got: read_usize(r)?,
            },
            2 => E::Invalid {
                pass: read_usize(r)?,
                error: crate::validate::StreamError::restore(r)?,
            },
            3 => E::EmptyBatch,
            4 => E::MixedPassContracts,
            5 => E::DeadlineExceeded {
                limit_ms: read_u64(r)?,
            },
            6 => E::SpaceBudgetExceeded {
                used: read_usize(r)?,
                limit: read_usize(r)?,
            },
            7 => E::Checkpoint {
                message: read_str(r)?,
            },
            t => return Err(corrupt(format!("bad run error tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("adjstream-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn container_round_trips() {
        let path = tmp_path("roundtrip");
        let payload = b"some pass-boundary state".to_vec();
        write_checkpoint_file(&path, &payload).unwrap();
        assert_eq!(read_checkpoint_file(&path).unwrap(), payload);
        // Overwrite with different payload: rename replaces atomically.
        write_checkpoint_file(&path, b"v2").unwrap();
        assert_eq!(read_checkpoint_file(&path).unwrap(), b"v2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gc_removes_only_stale_candidates() {
        let dir = tmp_path("gc-dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("old.ckpt");
        let fresh = dir.join("new.ckpt");
        let protected = dir.join("live.ckpt");
        for p in [&stale, &fresh, &protected] {
            std::fs::write(p, b"x").unwrap();
        }
        // Let the files age past the mtime clock's granularity.
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Zero retention makes every candidate "stale"; the predicate is
        // what protects `live.ckpt`. `fresh` is excluded by the predicate
        // too, standing in for a file the caller still owns.
        let removed = gc_stale_checkpoints(&dir, std::time::Duration::ZERO, |p| {
            p.file_name().is_some_and(|n| n == "old.ckpt")
        });
        assert_eq!(removed, 1);
        assert!(!stale.exists());
        assert!(fresh.exists() && protected.exists());
        // A retention window longer than the files' age removes nothing.
        let removed = gc_stale_checkpoints(&dir, std::time::Duration::from_secs(3600), |_| true);
        assert_eq!(removed, 0);
        assert!(fresh.exists() && protected.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A 28-byte container whose length field claims `u64::MAX` bytes
    /// (and one claiming far more than the file holds) is `Truncated`:
    /// the length is checked against the input, never cast and sliced or
    /// used to size an allocation.
    #[test]
    fn crafted_length_field_is_truncated_not_a_panic() {
        let path = tmp_path("crafted-length");
        for len in [u64::MAX, 1 << 62, 9] {
            let mut raw = MAGIC.to_vec();
            raw.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            raw.extend_from_slice(&len.to_le_bytes());
            raw.extend_from_slice(&[0u8; 8]);
            assert_eq!(raw.len(), 28);
            std::fs::write(&path, &raw).unwrap();
            assert!(
                matches!(read_checkpoint_file(&path), Err(FrameError::Truncated)),
                "length {len}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn primitive_helpers_round_trip() {
        let mut buf = Vec::new();
        write_u8(&mut buf, 7).unwrap();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_usize(&mut buf, 123_456).unwrap();
        write_f64(&mut buf, f64::NAN).unwrap();
        write_str(&mut buf, "pass boundary").unwrap();
        let mut r: &[u8] = &buf;
        assert_eq!(read_u8(&mut r).unwrap(), 7);
        assert_eq!(read_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u64(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(read_usize(&mut r).unwrap(), 123_456);
        assert!(read_f64(&mut r).unwrap().is_nan());
        assert_eq!(read_str(&mut r).unwrap(), "pass boundary");
        assert!(read_u8(&mut r).is_err(), "stream fully consumed");
    }
}
