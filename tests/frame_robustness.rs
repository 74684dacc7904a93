//! One robustness property for the one framed container, run against the
//! real decoder of every format that uses it: `.adjb` item traces,
//! `.adjbu` update traces, checkpoint files, and shard-worker payloads
//! (which travel inside checkpoint files). For each, built from seeded
//! random content:
//!
//! * a cut at every offset is `Truncated`;
//! * a single bit flip in the payload or the trailer is `ChecksumMismatch`;
//! * any other version is `UnsupportedVersion`;
//! * a length field larger than the real payload is `Truncated`;
//!
//! and no mutation makes a decoder panic. The mmap reader, which defers
//! checksum verification to an incremental cursor, gets the same
//! mutations: each is rejected at `open` or at `verify_all`.

use adjstream::algo::common::EdgeSampling;
use adjstream::algo::triangle::{ShardedTriangle, ShardedTriangleConfig};
use adjstream::graph::gen;
use adjstream::stream::checkpoint::{read_checkpoint_file, write_checkpoint_file, FORMAT_VERSION};
use adjstream::stream::frame::HEADER_LEN;
use adjstream::stream::mmapfile::MappedTrace;
use adjstream::stream::shard::{decode_shard_payload, run_shard_pass_blob, ShardError, ShardPlan};
use adjstream::stream::update::{churn, ChurnConfig};
use adjstream::stream::{
    parse_update_bytes, write_adjbu, AdjListStream, Checkpoint, FrameError, ItemTrace, StreamItem,
    StreamOrder, TraceError, UpdateTraceError, ADJBU_VERSION, ADJB_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// What a format's decoder made of some bytes: decoded, rejected by the
/// frame (with its error), or rejected by a format-specific check.
#[derive(Debug)]
enum Verdict {
    Decoded,
    Frame(FrameError),
    Format,
}

/// A format's decoder, reporting what it made of some bytes.
type Decoder = Box<dyn Fn(&[u8]) -> Verdict>;

/// One framed format under test: an intact container, the version its
/// reader accepts, and its decoder.
struct Case {
    name: &'static str,
    bytes: Vec<u8>,
    version: u32,
    /// Inputs cut inside the magic are sniffed as text by the trace
    /// readers, so their truncation sweep starts after the magic.
    first_cut: usize,
    decode: Decoder,
}

/// A scratch file, removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        TempFile(
            std::env::temp_dir().join(format!("adjstream-frame-{}-{name}", std::process::id())),
        )
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn items(seed: u64) -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnm(14, 30, &mut rng);
    AdjListStream::new(&g, StreamOrder::shuffled(14, seed)).collect_items()
}

fn adjb_case(seed: u64) -> Case {
    let mut bytes = Vec::new();
    ItemTrace::new_unchecked(items(seed))
        .write_adjb(&mut bytes)
        .unwrap();
    Case {
        name: ".adjb",
        bytes,
        version: ADJB_VERSION,
        first_cut: 8,
        decode: Box::new(|b| match ItemTrace::from_bytes_unchecked(b) {
            Ok(_) => Verdict::Decoded,
            Err(TraceError::Frame(e)) => Verdict::Frame(e),
            Err(_) => Verdict::Format,
        }),
    }
}

fn adjbu_case(seed: u64) -> Case {
    let stream = churn(
        &gen::disjoint_cliques(2, 5),
        &ChurnConfig {
            churn_events: 12,
            delete_fraction: 0.5,
            seed,
        },
    );
    let mut bytes = Vec::new();
    write_adjbu(&stream, &mut bytes).unwrap();
    Case {
        name: ".adjbu",
        bytes,
        version: ADJBU_VERSION,
        first_cut: 8,
        decode: Box::new(|b| match parse_update_bytes(b) {
            Ok(_) => Verdict::Decoded,
            Err(UpdateTraceError::Frame(e)) => Verdict::Frame(e),
            Err(_) => Verdict::Format,
        }),
    }
}

/// Write `bytes` to `path` and read them back as a checkpoint file.
fn read_back(path: &Path, bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    std::fs::write(path, bytes).unwrap();
    read_checkpoint_file(path)
}

fn checkpoint_bytes(path: &Path, payload: &[u8]) -> Vec<u8> {
    write_checkpoint_file(path, payload).unwrap();
    std::fs::read(path).unwrap()
}

fn checkpoint_case(seed: u64) -> Case {
    let file = TempFile::new(&format!("ckpt-{seed}"));
    let payload: Vec<u8> = (0..40 + seed % 50).map(|i| (i * 31 + seed) as u8).collect();
    let bytes = checkpoint_bytes(&file.0, &payload);
    Case {
        name: "checkpoint",
        bytes,
        version: FORMAT_VERSION,
        first_cut: 0,
        decode: Box::new(move |b| match read_back(&file.0, b) {
            Ok(_) => Verdict::Decoded,
            Err(e) => Verdict::Frame(e),
        }),
    }
}

fn sharded_config() -> ShardedTriangleConfig {
    ShardedTriangleConfig {
        seed: 3,
        edge_sampling: EdgeSampling::BottomK { k: 16 },
        pair_capacity: 24,
    }
}

/// A real shard-worker payload: pass 0 of one shard of two.
fn shard_payload(seed: u64) -> Vec<u8> {
    let items = items(seed);
    let plan = ShardPlan::build(&items, 2);
    let mut base = Vec::new();
    ShardedTriangle::new(sharded_config())
        .save(&mut base)
        .unwrap();
    run_shard_pass_blob::<ShardedTriangle>(&base, 0, &items, plan.runs_for(0)).unwrap()
}

fn shard_worker_case(seed: u64) -> Case {
    let file = TempFile::new(&format!("shard-{seed}"));
    let bytes = checkpoint_bytes(&file.0, &shard_payload(seed));
    Case {
        name: "shard-worker payload",
        bytes,
        version: FORMAT_VERSION,
        first_cut: 0,
        decode: Box::new(move |b| match read_back(&file.0, b) {
            Ok(payload) => match decode_shard_payload::<ShardedTriangle>(&payload) {
                Ok(_) => Verdict::Decoded,
                Err(_) => Verdict::Format,
            },
            Err(e) => Verdict::Frame(e),
        }),
    }
}

fn cases(seed: u64) -> Vec<Case> {
    vec![
        adjb_case(seed),
        adjbu_case(seed),
        checkpoint_case(seed),
        shard_worker_case(seed),
    ]
}

fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[8..12].copy_from_slice(&version.to_le_bytes());
    b
}

fn with_length(bytes: &[u8], len: u64) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[12..20].copy_from_slice(&len.to_le_bytes());
    b
}

fn declared_length(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[12..20].try_into().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_framed_format_rejects_every_mutation_with_a_typed_error(
        seed in any::<u64>(),
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 24..25),
        version in any::<u32>(),
        extra in 1u64..1 << 40,
    ) {
        for case in cases(seed % 1000) {
            let Case { name, bytes, version: current, first_cut, decode } = case;
            prop_assert!(matches!(decode(&bytes), Verdict::Decoded), "{name}: intact");

            for cut in first_cut..bytes.len() {
                let v = decode(&bytes[..cut]);
                prop_assert!(
                    matches!(v, Verdict::Frame(FrameError::Truncated)),
                    "{name}: cut at {cut} gave {v:?}"
                );
            }

            for &(at, bit) in &flips {
                let pos = HEADER_LEN + at as usize % (bytes.len() - HEADER_LEN);
                let mut b = bytes.clone();
                b[pos] ^= 1 << bit;
                let v = decode(&b);
                prop_assert!(
                    matches!(v, Verdict::Frame(FrameError::ChecksumMismatch { .. })),
                    "{name}: flip at {pos} bit {bit} gave {v:?}"
                );
            }

            for other in [version, current + 1, current - 1, u32::MAX] {
                if other == current {
                    continue;
                }
                let v = decode(&with_version(&bytes, other));
                prop_assert!(
                    matches!(
                        v,
                        Verdict::Frame(FrameError::UnsupportedVersion { found, supported })
                            if found == other && supported == current
                    ),
                    "{name}: version {other} gave {v:?}"
                );
            }

            let len = declared_length(&bytes);
            for inflated in [len + 1, len + extra, u64::MAX - extra, u64::MAX] {
                let v = decode(&with_length(&bytes, inflated));
                prop_assert!(
                    matches!(v, Verdict::Frame(FrameError::Truncated)),
                    "{name}: length {inflated} gave {v:?}"
                );
            }
        }
    }

    /// The worker payload itself (stats, then state) decodes only whole:
    /// a payload cut anywhere is a typed `ShardError::State`.
    #[test]
    fn shard_worker_payload_cut_anywhere_is_a_typed_error(seed in any::<u64>()) {
        let payload = shard_payload(seed % 1000);
        prop_assert!(decode_shard_payload::<ShardedTriangle>(&payload).is_ok());
        for cut in 0..payload.len() {
            let res = decode_shard_payload::<ShardedTriangle>(&payload[..cut]);
            prop_assert!(
                matches!(res, Err(ShardError::State(_))),
                "cut at {cut} gave {:?}",
                res.map(|_| ())
            );
        }
    }

    /// Mmap replay parses the frame without verifying it and checks the
    /// checksum in windows later: every mutation is still rejected,
    /// either structurally at `open` or by the windowed verification.
    #[test]
    fn mmap_replay_rejects_every_mutation(
        seed in any::<u64>(),
        flips in prop::collection::vec((any::<u64>(), 0u8..8), 24..25),
    ) {
        let bytes = adjb_case(seed % 1000).bytes;
        let file = TempFile::new(&format!("mmap-{seed}.adjb"));
        let replay = |b: &[u8]| -> Result<(), TraceError> {
            std::fs::write(&file.0, b).unwrap();
            MappedTrace::open(&file.0)?.verify_all(7)
        };
        prop_assert!(replay(&bytes).is_ok());
        for cut in 0..bytes.len() {
            let r = replay(&bytes[..cut]);
            prop_assert!(
                matches!(r, Err(TraceError::Frame(FrameError::Truncated))),
                "cut at {cut} gave {r:?}"
            );
        }
        for &(at, bit) in &flips {
            let pos = HEADER_LEN + at as usize % (bytes.len() - HEADER_LEN);
            let mut b = bytes.clone();
            b[pos] ^= 1 << bit;
            prop_assert!(replay(&b).is_err(), "flip at {pos} bit {bit} was accepted");
        }
        let r = replay(&with_version(&bytes, ADJB_VERSION + 1));
        prop_assert!(matches!(r, Err(TraceError::Frame(FrameError::UnsupportedVersion { .. }))));
        let r = replay(&with_length(&bytes, u64::MAX));
        prop_assert!(matches!(r, Err(TraceError::Frame(FrameError::Truncated))));
    }
}
