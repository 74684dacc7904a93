//! Memory-mapped zero-copy `.adjb` replay.
//!
//! [`crate::trace::ItemTrace`] slurps a trace file into an owned byte
//! buffer and decodes it into an owned item vector — two transient
//! allocations the size of the file, paid before the first item is served.
//! A [`MappedTrace`] maps the file instead and, on little-endian targets,
//! serves the pair region *in place*: `StreamItem` is `repr(C)` over two
//! `repr(transparent)` `u32`s, which is byte-for-byte the on-disk pair
//! encoding, so the mapped region **is** the `&[StreamItem]` — no decode
//! pass, no heap copy, and the pages are shared, evictable file cache
//! rather than private anonymous memory.
//!
//! # Windowed checksum verification
//!
//! The container ([`crate::frame`]) closes with a checksum over the whole
//! payload. Verifying it eagerly would fault in every page before the first
//! item is served, recreating slurp latency. [`MappedTrace::open`] therefore
//! parses the frame without [`Frame::verify`] and checks only *structure*
//! (magic, version, length, the `.adjb` payload layout shared with
//! [`crate::trace::ItemTrace`] — a few dozen bytes plus the run-length
//! region) and exposes verification
//! as an incremental cursor: [`verify_step`](MappedTrace::verify_step)
//! absorbs one bounded window of payload into a streaming
//! [`Checksum64`] per call, and [`verify_all`](MappedTrace::verify_all)
//! drives it to completion. A [`VerifyCursor`] does the same over a shared
//! borrow, so another thread can finish the checksum while the items are
//! being replayed.
//!
//! # Safety argument (why serving unverified items is sound)
//!
//! Items read before verification completes are untrusted in *value* only:
//! every 8-byte pattern is a valid `StreamItem`, so no memory safety rests
//! on the checksum, exactly as with [`ItemTrace::from_bytes_unchecked`].
//! Replay drivers complete verification before any estimate is emitted
//! (`estimate-stream` finishes the checksum on a second thread while its
//! passes run and waits for it before printing), so a corrupt container
//! is always rejected with [`FrameError::ChecksumMismatch`] and never
//! silently shapes a published number. The file must not be mutated concurrently;
//! the mapping is `MAP_PRIVATE` read-only, so external truncation is the
//! only hazard (as with any mmap consumer), and traces are written
//! atomically by this workspace's own tooling.
//!
//! [`ItemTrace::from_bytes_unchecked`]: crate::trace::ItemTrace::from_bytes_unchecked

use std::fs::File;
use std::path::Path;

use crate::frame::{self, Frame, FrameError, HEADER_LEN};
use crate::hashing::Checksum64;
use crate::item::StreamItem;
use crate::trace::{adjb_pairs, TraceError, ADJB_MAGIC, ADJB_VERSION};

/// Byte offset of the pair region: the frame header plus the payload's
/// 8-byte item count. Divisible by [`StreamItem`]'s alignment (4), so a
/// page-aligned mapping keeps the pair region aligned for the zero-copy
/// cast.
const PAIRS_START: usize = HEADER_LEN + 8;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    // Declared directly: the workspace vendors no libc crate, but these
    // symbols are part of every unix C runtime this builds against.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// The bytes backing a [`MappedTrace`]: a real mapping on unix, an owned
/// slurp elsewhere (same API, no zero-copy win).
enum Backing {
    #[cfg(unix)]
    Mapped(MmapRegion),
    #[allow(dead_code)]
    Owned(Vec<u8>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Owned(v) => v,
        }
    }
}

/// A read-only `mmap` of a whole file, unmapped on drop.
#[cfg(unix)]
struct MmapRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the region is immutable after construction and unmapped only at
// drop; sharing `&self` reads across threads is exactly shared `&[u8]`.
#[cfg(unix)]
unsafe impl Send for MmapRegion {}
#[cfg(unix)]
unsafe impl Sync for MmapRegion {}

#[cfg(unix)]
impl MmapRegion {
    fn map(file: &File, len: usize) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            // mmap rejects zero-length mappings; an empty file needs none.
            return Ok(MmapRegion {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: requests a fresh read-only private mapping of `len` bytes
        // of an open fd at offset 0; the result is checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MmapRegion {
            ptr: ptr.cast(),
            len,
        })
    }

    fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` is a live `len`-byte read-only mapping owned by
        // `self`; the borrow cannot outlive the mapping.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: unmapping exactly what `map` mapped, once.
            unsafe {
                sys::munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

/// A `.adjb` trace served zero-copy from a file mapping. See module docs.
pub struct MappedTrace {
    backing: Backing,
    /// Item count declared by the container.
    len: usize,
    /// End of the checksummed payload (exclusive) in `backing` bytes.
    payload_end: usize,
    /// Checksum recorded in the container trailer.
    expected: u64,
    /// The owned verification state behind [`Self::verify_step`].
    verify: VerifyState,
    /// Owned decode, used only where the in-place cast is unavailable.
    #[cfg(not(target_endian = "little"))]
    decoded: Vec<StreamItem>,
}

impl MappedTrace {
    /// Map `path` and check the container's *structure*: magic, version,
    /// declared offsets against the file length, and that the run lengths
    /// sum to the item count. The payload checksum is **not** verified here
    /// — drive [`verify_step`](Self::verify_step) /
    /// [`verify_all`](Self::verify_all) before trusting an estimate.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(TraceError::Io)?;
        let file_len = file.metadata().map_err(TraceError::Io)?.len();
        let file_len = usize::try_from(file_len).map_err(|_| FrameError::Truncated)?;
        #[cfg(unix)]
        let backing = Backing::Mapped(MmapRegion::map(&file, file_len).map_err(TraceError::Io)?);
        #[cfg(not(unix))]
        let backing = Backing::Owned(std::fs::read(path).map_err(TraceError::Io)?);
        Self::from_backing(backing)
    }

    fn from_backing(backing: Backing) -> Result<Self, TraceError> {
        let frame = Frame::parse(backing.bytes(), &ADJB_MAGIC, ADJB_VERSION)?;
        let pairs = adjb_pairs(frame.payload)?;
        let len = pairs.len() / 8;
        let payload_end = HEADER_LEN + frame.payload.len();
        let expected = frame.checksum;
        #[cfg(not(target_endian = "little"))]
        let decoded = crate::trace::decode_pairs(pairs);
        Ok(MappedTrace {
            backing,
            len,
            payload_end,
            expected,
            verify: VerifyState::new(),
            #[cfg(not(target_endian = "little"))]
            decoded,
        })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Undirected edge count implied by the container (`items / 2`; exact
    /// on promise-valid traces, an upper bound otherwise — the same
    /// contract as [`crate::trace::ItemTrace::new_unchecked`]).
    pub fn edges(&self) -> usize {
        self.len / 2
    }

    /// The items, borrowed straight from the mapping on little-endian
    /// targets (no copy, no decode).
    #[cfg(target_endian = "little")]
    pub fn items(&self) -> &[StreamItem] {
        let bytes = &self.backing.bytes()[PAIRS_START..PAIRS_START + self.len * 8];
        assert_eq!(
            bytes.as_ptr() as usize % std::mem::align_of::<StreamItem>(),
            0,
            "pair region must be 4-byte aligned (page-aligned mapping + offset 28)"
        );
        // SAFETY: `StreamItem` is `repr(C)` `{ u32, u32 }` with no padding
        // and no invalid bit patterns; the region holds exactly `len`
        // little-endian records (structurally validated in `open`), is
        // aligned (asserted), and lives as long as `self.backing`.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<StreamItem>(), self.len) }
    }

    /// The items (owned decode on targets without the in-place cast).
    #[cfg(not(target_endian = "little"))]
    pub fn items(&self) -> &[StreamItem] {
        &self.decoded
    }

    /// Whether the payload checksum has been fully verified.
    pub fn is_verified(&self) -> bool {
        self.verify.done
    }

    /// Absorb up to `window` further payload bytes into the checksum.
    /// Returns `Ok(true)` once the whole payload is absorbed and matches
    /// the recorded checksum (idempotent afterwards), `Ok(false)` if more
    /// windows remain, and [`FrameError::ChecksumMismatch`] on corruption.
    pub fn verify_step(&mut self, window: usize) -> Result<bool, TraceError> {
        let payload = &self.backing.bytes()[..self.payload_end];
        self.verify.step(payload, self.expected, window)
    }

    /// Drive [`verify_step`](Self::verify_step) to completion in
    /// `window`-byte windows.
    pub fn verify_all(&mut self, window: usize) -> Result<(), TraceError> {
        while !self.verify_step(window)? {}
        Ok(())
    }

    /// A verification cursor that borrows the mapping *immutably*, so
    /// checksum windows can be absorbed while replay slices from
    /// [`items`](Self::items) are still outstanding, on another thread if
    /// need be. Completion is tracked by the cursor, not mirrored into
    /// [`is_verified`](Self::is_verified).
    pub fn verify_cursor(&self) -> VerifyCursor<'_> {
        VerifyCursor {
            payload: &self.backing.bytes()[..self.payload_end],
            expected: self.expected,
            state: VerifyState::new(),
        }
    }
}

/// How far a windowed checksum has absorbed a `.adjb` payload — the one
/// verification body behind both [`MappedTrace::verify_step`] and
/// [`VerifyCursor::step`].
struct VerifyState {
    /// Payload bytes already absorbed by `hasher`.
    cursor: usize,
    hasher: Checksum64,
    done: bool,
}

impl VerifyState {
    fn new() -> Self {
        VerifyState {
            cursor: HEADER_LEN,
            hasher: Checksum64::new(),
            done: false,
        }
    }

    /// Absorb up to `window` further bytes of `payload` (the file bytes
    /// up to the checksum trailer); see [`MappedTrace::verify_step`].
    fn step(&mut self, payload: &[u8], expected: u64, window: usize) -> Result<bool, TraceError> {
        if self.done {
            return Ok(true);
        }
        let end = payload.len().min(self.cursor + window.max(1));
        self.hasher.update(&payload[self.cursor..end]);
        self.cursor = end;
        if self.cursor < payload.len() {
            return Ok(false);
        }
        frame::check(expected, self.hasher.clone().finalize())?;
        self.done = true;
        Ok(true)
    }
}

/// Incremental payload-checksum verification over a shared borrow of a
/// [`MappedTrace`]. See [`MappedTrace::verify_cursor`].
pub struct VerifyCursor<'a> {
    /// The file bytes up to the checksum trailer.
    payload: &'a [u8],
    expected: u64,
    state: VerifyState,
}

impl VerifyCursor<'_> {
    /// Absorb up to `window` further payload bytes; same contract as
    /// [`MappedTrace::verify_step`].
    pub fn step(&mut self, window: usize) -> Result<bool, TraceError> {
        self.state.step(self.payload, self.expected, window)
    }

    /// Drive [`step`](Self::step) to completion in `window`-byte windows.
    pub fn finish(mut self, window: usize) -> Result<(), TraceError> {
        while !self.step(window)? {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ItemTrace;
    use adjstream_graph::VertexId;

    fn sample_trace() -> ItemTrace {
        let v = |x: u32| VertexId(x);
        let mut items = Vec::new();
        // Triangle 0-1-2 plus a pendant edge 2-3: valid promise layout.
        for (s, ds) in [
            (0u32, vec![1u32, 2]),
            (1, vec![0, 2]),
            (2, vec![0, 1, 3]),
            (3, vec![2]),
        ] {
            for d in ds {
                items.push(StreamItem::new(v(s), v(d)));
            }
        }
        ItemTrace::new(items).expect("valid")
    }

    fn write_tmp(trace: &ItemTrace, name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("adjstream-mmap-{}-{name}.adjb", std::process::id()));
        let mut buf = Vec::new();
        trace.write_adjb(&mut buf).expect("encode");
        std::fs::write(&path, &buf).expect("write");
        path
    }

    #[test]
    fn mapped_items_match_slurped_decode() {
        let trace = sample_trace();
        let path = write_tmp(&trace, "roundtrip");
        let mut mapped = MappedTrace::open(&path).expect("open");
        assert_eq!(mapped.len(), trace.len());
        assert_eq!(mapped.items(), trace.items());
        assert!(!mapped.is_verified());
        mapped.verify_all(16).expect("clean file verifies");
        assert!(mapped.is_verified());
        // Idempotent after completion.
        assert!(mapped.verify_step(16).expect("still ok"));
        std::fs::remove_file(&path).ok();
    }

    /// The shared-borrow cursor verifies while item slices are live — the
    /// borrow pattern the deferred pass-boundary verification relies on.
    #[test]
    fn verify_cursor_runs_with_items_outstanding() {
        let trace = sample_trace();
        let path = write_tmp(&trace, "cursor");
        let mapped = MappedTrace::open(&path).expect("open");
        let items = mapped.items();
        let mut cursor = mapped.verify_cursor();
        while !cursor.step(7).expect("clean file verifies") {
            // Items stay readable mid-verification.
            assert_eq!(items.len(), trace.len());
        }
        assert_eq!(items, trace.items());

        // And the consuming driver agrees.
        mapped.verify_cursor().finish(16).expect("clean");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn windowed_verification_detects_pair_corruption() {
        let trace = sample_trace();
        let path = write_tmp(&trace, "corrupt");
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[PAIRS_START + 3] ^= 0x40; // flip a bit inside the first pair
        std::fs::write(&path, &bytes).expect("rewrite");
        let mut mapped = MappedTrace::open(&path).expect("structure still valid");
        // Items are served before verification — value-corrupt, memory-safe.
        assert_eq!(mapped.len(), trace.len());
        let err = mapped.verify_all(8).expect_err("checksum must fail");
        assert!(
            matches!(err, TraceError::Frame(FrameError::ChecksumMismatch { .. })),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn structural_faults_are_rejected_at_open() {
        let trace = sample_trace();
        let path = write_tmp(&trace, "structural");
        let good = std::fs::read(&path).expect("read back");

        // Truncated inside the pair region.
        std::fs::write(&path, &good[..PAIRS_START + 5]).expect("truncate");
        assert!(matches!(
            MappedTrace::open(&path),
            Err(TraceError::Frame(FrameError::Truncated))
        ));

        // Not a binary trace at all: mmap replay is binary-only.
        std::fs::write(&path, b"0 1\n1 0\n").expect("rewrite");
        assert!(matches!(
            MappedTrace::open(&path),
            Err(TraceError::Frame(FrameError::BadMagic))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_maps_and_verifies() {
        let trace = ItemTrace::new(Vec::new()).expect("empty is valid");
        let path = write_tmp(&trace, "empty");
        let mut mapped = MappedTrace::open(&path).expect("open");
        assert!(mapped.is_empty());
        assert_eq!(mapped.items(), &[] as &[StreamItem]);
        mapped.verify_all(4).expect("verifies");
        std::fs::remove_file(&path).ok();
    }
}
