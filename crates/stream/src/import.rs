//! Edge-list → `.adjb` import: streaming container assembly.
//!
//! [`adjstream_graph::import`] turns a SNAP-style edge list into grouped
//! adjacency lists in bounded memory; this module is the other half — it
//! writes those lists straight into the checksummed `.adjb` container
//! ([`crate::trace`], framed by [`crate::frame`]) without ever
//! materializing the item vector. The pair region is spooled to a temp
//! file while the lists stream through (the item count and the payload
//! length, which the frame header declares, are only known at the end);
//! finalization then opens a [`FrameWriter`], copies the spool through it,
//! appends the run-length region, and seals the payload checksum. Peak
//! memory is the importer's own bound plus `O(lists)` for the run lengths.
//!
//! The output is written atomically (temp file + rename), and its bytes
//! are a pure function of the input text and [`ImportConfig::seed`]: the
//! importer's list order is seed-keyed and bucket-count-independent, and
//! the container encodes nothing else.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use adjstream_graph::import::{import_edge_list, ImportConfig, ImportError, ImportStats};

use crate::frame::{FrameWriter, HEADER_LEN, TRAILER_LEN};
use crate::trace::{ADJB_MAGIC, ADJB_VERSION};

/// Why an edge-list → `.adjb` import failed.
#[derive(Debug)]
pub enum AdjbImportError {
    /// The parse/grouping phase rejected the input.
    Import(ImportError),
    /// Container assembly I/O failed.
    Io(io::Error),
}

impl std::fmt::Display for AdjbImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdjbImportError::Import(e) => e.fmt(f),
            AdjbImportError::Io(e) => write!(f, "adjb assembly I/O error: {e}"),
        }
    }
}

impl std::error::Error for AdjbImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdjbImportError::Import(e) => Some(e),
            AdjbImportError::Io(e) => Some(e),
        }
    }
}

impl From<ImportError> for AdjbImportError {
    fn from(e: ImportError) -> Self {
        AdjbImportError::Import(e)
    }
}

impl From<io::Error> for AdjbImportError {
    fn from(e: io::Error) -> Self {
        AdjbImportError::Io(e)
    }
}

/// What an import produced.
#[derive(Debug, Clone)]
pub struct ImportReport {
    /// Parse/grouping counters from the importer.
    pub stats: ImportStats,
    /// `original_ids[dense] = raw`: the id densification map.
    pub original_ids: Vec<u64>,
    /// The sealed payload checksum — also the last 8 bytes of the file.
    /// Two imports of the same input with the same seed produce the same
    /// checksum (and the same bytes).
    pub checksum: u64,
    /// Total bytes written to the output file.
    pub bytes_written: u64,
}

/// Import a SNAP-style edge list into a `.adjb` trace at `out`, streaming:
/// the edge set is never held in memory. See the module docs for the
/// assembly pipeline and the determinism contract.
pub fn import_edge_list_to_adjb<R: BufRead>(
    input: R,
    out: &Path,
    cfg: &ImportConfig,
) -> Result<ImportReport, AdjbImportError> {
    // Spool the pair region next to the output so the final copy and the
    // rename stay on one filesystem.
    let spool_path = sibling(out, ".pairs.tmp");
    let tmp_out_path = sibling(out, ".tmp");
    let result = assemble(input, cfg, &spool_path, &tmp_out_path, out);
    let _ = std::fs::remove_file(&spool_path);
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_out_path);
    }
    result
}

fn sibling(out: &Path, suffix: &str) -> PathBuf {
    let mut name = out
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "adjb-import".into());
    name.push(suffix);
    out.with_file_name(name)
}

fn assemble<R: BufRead>(
    input: R,
    cfg: &ImportConfig,
    spool_path: &Path,
    tmp_out_path: &Path,
    out: &Path,
) -> Result<ImportReport, AdjbImportError> {
    let spool_file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(spool_path)?;
    let mut spool = BufWriter::new(spool_file);
    let mut run_lens: Vec<u32> = Vec::new();
    let (stats, original_ids) = import_edge_list(input, cfg, |owner, neighbors| {
        let mut rec = [0u8; 8];
        for nb in neighbors {
            rec[..4].copy_from_slice(&owner.0.to_le_bytes());
            rec[4..].copy_from_slice(&nb.0.to_le_bytes());
            spool.write_all(&rec).map_err(ImportError::Io)?;
        }
        // The importer emits each owner exactly once with a non-empty
        // list, so every list is one same-source run.
        run_lens.push(neighbors.len() as u32);
        Ok(())
    })?;

    let mut spool = spool
        .into_inner()
        .map_err(|e| io::Error::from(e.error().kind()))?;
    spool.flush()?;
    spool.seek(SeekFrom::Start(0))?;
    // Copy the spool in 64 KiB chunks: each one passes straight through the
    // output buffer and the hasher instead of being split into 8 KiB ones.
    let mut spool = BufReader::with_capacity(1 << 16, spool);

    // Payload = items u64 · pairs · runs u64 · run lengths, hashed by the
    // frame writer while it is written.
    let len = 8 + stats.items * 8 + 8 + run_lens.len() as u64 * 4;
    let out_file = BufWriter::new(File::create(tmp_out_path)?);
    let mut w = FrameWriter::new(out_file, &ADJB_MAGIC, ADJB_VERSION, len)?;
    w.write_all(&stats.items.to_le_bytes())?;
    io::copy(&mut spool, &mut w)?;
    w.write_all(&(run_lens.len() as u64).to_le_bytes())?;
    for len in &run_lens {
        w.write_all(&len.to_le_bytes())?;
    }
    let (checksum, out_file) = w.finish()?;
    out_file
        .into_inner()
        .map_err(|e| io::Error::from(e.error().kind()))?
        .sync_all()?;
    std::fs::rename(tmp_out_path, out)?;

    Ok(ImportReport {
        stats,
        original_ids,
        checksum,
        bytes_written: (HEADER_LEN + TRAILER_LEN) as u64 + len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ItemTrace;
    use crate::validate::validate_stream;
    use adjstream_graph::import::{DupPolicy, SelfLoopPolicy};
    use std::io::Cursor;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adjb-import-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn import_round_trips_through_the_trace_reader() {
        let text = "# snap header\n10 20\n20 30\n30 10\n40 10\n";
        let out = tmp("roundtrip.adjb");
        let report =
            import_edge_list_to_adjb(Cursor::new(text), &out, &ImportConfig::default()).unwrap();
        assert_eq!(report.stats.items, 8);
        assert_eq!(report.original_ids, vec![10, 20, 30, 40]);
        let trace = ItemTrace::read(File::open(&out).unwrap()).unwrap();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.edges(), 4);
        assert!(validate_stream(trace.items().iter().copied()).is_ok());
        assert_eq!(std::fs::metadata(&out).unwrap().len(), report.bytes_written);
    }

    #[test]
    fn same_input_and_seed_produce_identical_bytes() {
        let text = "1 2\n2 3\n3 4\n4 1\n1 3\n";
        let (a, b, c) = (tmp("det-a.adjb"), tmp("det-b.adjb"), tmp("det-c.adjb"));
        let cfg = ImportConfig {
            buckets: 4,
            ..Default::default()
        };
        let ra = import_edge_list_to_adjb(Cursor::new(text), &a, &cfg).unwrap();
        let rb = import_edge_list_to_adjb(Cursor::new(text), &b, &cfg).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert_eq!(ra.checksum, rb.checksum);
        // A different bucket count must not change a single byte.
        let cfg1 = ImportConfig {
            buckets: 1,
            ..cfg.clone()
        };
        import_edge_list_to_adjb(Cursor::new(text), &c, &cfg1).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&c).unwrap());
        // A different seed permutes the list order (and thus the bytes).
        let cfg2 = ImportConfig { seed: 7, ..cfg };
        import_edge_list_to_adjb(Cursor::new(text), &c, &cfg2).unwrap();
        assert_ne!(std::fs::read(&a).unwrap(), std::fs::read(&c).unwrap());
    }

    #[test]
    fn kept_violations_survive_the_container_round_trip() {
        let text = "1 1\n1 2\n1 2\n";
        let cfg = ImportConfig {
            dups: DupPolicy::Keep,
            self_loops: SelfLoopPolicy::Keep,
            ..Default::default()
        };
        let out = tmp("violations.adjb");
        let report = import_edge_list_to_adjb(Cursor::new(text), &out, &cfg).unwrap();
        assert_eq!(report.stats.items, 5); // loop + 2×(1→2) + 2×(2→1)
        let trace = ItemTrace::read_unchecked(File::open(&out).unwrap()).unwrap();
        assert_eq!(trace.len(), 5);
        assert!(validate_stream(trace.items().iter().copied()).is_err());
    }

    #[test]
    fn failed_imports_leave_no_output_file() {
        let out = tmp("failed.adjb");
        let err = import_edge_list_to_adjb(
            Cursor::new("1 2\nbroken line\n"),
            &out,
            &ImportConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AdjbImportError::Import(_)));
        assert!(!out.exists());
    }
}
