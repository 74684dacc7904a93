//! Two-pass checkpoints written by earlier builds still resume.
//!
//! The fixtures are the pass-0 boundary payloads of `golden_bits.rs`'s
//! workload for the two `two-pass` rows, exactly as earlier builds saved
//! them. The oldest pair was saved before the pass state was cut down to
//! the live sample: it still carries the `monitors` and `activations`
//! references of records that had already left `Q`. The `_lists` pair was
//! saved by the build that kept both reference lists in `Vec` order and
//! wrote them out in full; this build saves them empty and rebuilds them
//! on restore. All four were saved by builds whose records watched their
//! edges from pass 1 on, so their watchers hold the records' edges beside
//! `S`; this build's pass-1 watcher holds `S` alone, and restore unwatches
//! the rest. A daemon restarted on a newer build resumes from such a
//! file, so restoring one must read past its saved lists and finish with
//! the pinned estimate bits and counters.
//!
//! CI runs this file with `--release` beside the golden bits.

use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream_graph::gen;
use adjstream_stream::checkpoint::{read_u32, read_u8, read_usize, Checkpoint};
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::obs::ObsCounters;
use adjstream_stream::runner::{drive_pass_slice, MultiPassAlgorithm};
use adjstream_stream::{AdjListStream, StreamItem, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `golden_bits.rs`'s workload, byte for byte.
fn workload() -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(2019);
    let g = gen::gnm(150, 1200, &mut rng)
        .disjoint_union(&gen::disjoint_cliques(5, 6))
        .disjoint_union(&gen::book(30));
    let order = StreamOrder::shuffled(g.vertex_count(), 11);
    AdjListStream::new(&g, order).collect_items()
}

fn flat(c: ObsCounters) -> [u64; 9] {
    [
        c.admissions,
        c.evictions,
        c.rejections,
        c.freezes,
        c.pairs_stored,
        c.pairs_replaced,
        c.pairs_rejected,
        c.watches_started,
        c.watches_retired,
    ]
}

/// FNV-1a, as in `golden_bits.rs`.
fn digest(blob: &[u8]) -> u64 {
    blob.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One saved pass-0 boundary and the `golden_bits.rs` row it must reach.
struct Fixture {
    name: &'static str,
    sampling: EdgeSampling,
    payload: &'static [u8],
    /// `golden_bits.rs`'s boundary digest in the build that saved the
    /// fixture, which proves the fixture is that build's payload.
    old_digest: u64,
    estimate_bits: u64,
    counters: [u64; 9],
}

// `golden_bits.rs`'s estimates and counters, but for the watch counters:
// the fixtures carry the pass-1 record watches their builds counted, and
// resuming adds one unwatch at restore and one watch in pass 2 for each
// edge of the 150 records in `Q`.
const THRESHOLD_BITS: u64 = 0x4088C73333333333;
const THRESHOLD_COUNTERS: [u64; 9] = [535, 0, 1572, 1, 402, 252, 479, 2191, 1206];
const BOTTOM_K_BITS: u64 = 0x4087648888888888;
const BOTTOM_K_COUNTERS: [u64; 9] = [744, 444, 1513, 2, 480, 205, 172, 2634, 1884];

fn fixtures() -> [Fixture; 4] {
    [
        Fixture {
            name: "two-pass/threshold",
            sampling: EdgeSampling::Threshold { p: 0.4 },
            payload: include_bytes!("fixtures/two_pass_threshold_pass0.ckpt"),
            old_digest: 0xEA0B3FF021CB5C02,
            estimate_bits: THRESHOLD_BITS,
            counters: THRESHOLD_COUNTERS,
        },
        Fixture {
            name: "two-pass/bottom-k",
            sampling: EdgeSampling::BottomK { k: 300 },
            payload: include_bytes!("fixtures/two_pass_bottom_k_pass0.ckpt"),
            old_digest: 0x444B68C36B9E9454,
            estimate_bits: BOTTOM_K_BITS,
            counters: BOTTOM_K_COUNTERS,
        },
        Fixture {
            name: "two-pass/threshold, saved lists",
            sampling: EdgeSampling::Threshold { p: 0.4 },
            payload: include_bytes!("fixtures/two_pass_threshold_pass0_lists.ckpt"),
            old_digest: 0xBB04601609BEAB54,
            estimate_bits: THRESHOLD_BITS,
            counters: THRESHOLD_COUNTERS,
        },
        Fixture {
            name: "two-pass/bottom-k, saved lists",
            sampling: EdgeSampling::BottomK { k: 300 },
            payload: include_bytes!("fixtures/two_pass_bottom_k_pass0_lists.ckpt"),
            old_digest: 0x95D308FDF00499E4,
            estimate_bits: BOTTOM_K_BITS,
            counters: BOTTOM_K_COUNTERS,
        },
    ]
}

/// A saved payload's non-zero generation words (one per record and one
/// per `Q` entry) and the length of its `free_gens` section, read along
/// the two-pass checkpoint layout: the configuration (25 bytes), the
/// pass, the item count and `T′`, then `S`, `Q`, the slab and the free
/// list.
fn generation_words(payload: &[u8]) -> (usize, usize) {
    fn skip(r: &mut &[u8], n: usize) {
        *r = &r[n..];
    }
    let r = &mut &payload[..];
    skip(r, 25 + 3 * 8);
    let s_len = read_usize(r).expect("|S|");
    skip(r, s_len * (8 + 4 + 8));
    skip(r, 3 * 8);
    let mut nonzero = 0;
    for _ in 0..read_usize(r).expect("|Q|") {
        read_u32(r).expect("Q slab index");
        nonzero += usize::from(read_u32(r).expect("Q generation") != 0);
    }
    for _ in 0..read_usize(r).expect("slab length") {
        if read_u8(r).expect("slab tag") == 1 {
            nonzero += usize::from(read_u32(r).expect("record generation") != 0);
            skip(r, 3 * 4 + 3 * 8 + 3);
        }
    }
    let free = read_usize(r).expect("free list length");
    skip(r, free * 4);
    (nonzero, read_usize(r).expect("free_gens length"))
}

/// The fixtures carry what earlier builds saved beside each record: some
/// generation word is non-zero and some `free_gens` section is not empty,
/// so resuming them reads past both.
#[test]
fn fixtures_carry_generation_words() {
    assert!(fixtures().iter().any(|fx| {
        let (nonzero, free_gens) = generation_words(fx.payload);
        nonzero > 0 && free_gens > 0
    }));
}

#[test]
fn pass_zero_fixtures_resume_to_the_pinned_bits() {
    let items = workload();
    for fx in fixtures() {
        assert_eq!(digest(fx.payload), fx.old_digest, "{}", fx.name);
        let mut algo = TwoPassTriangle::restore(&mut &fx.payload[..])
            .unwrap_or_else(|e| panic!("{}: restore failed: {e}", fx.name));
        // The saved references are not restored: the restored state saves
        // exactly as many bytes as this build's own pass-0 boundary, fewer
        // than the fixture holds.
        let mut resaved = Vec::new();
        algo.save(&mut resaved).expect("save");
        let mut fresh = TwoPassTriangle::new(TwoPassTriangleConfig {
            seed: 9,
            edge_sampling: fx.sampling,
            pair_capacity: 150,
        });
        let mut peak = PeakTracker::new();
        let mut processed = 0usize;
        drive_pass_slice(&mut fresh, 0, &items, &mut peak, &mut processed).expect("pass 0");
        let mut live = Vec::new();
        fresh.save(&mut live).expect("save");
        assert_eq!(resaved.len(), live.len(), "{}", fx.name);
        assert!(resaved.len() < fx.payload.len(), "{}", fx.name);

        drive_pass_slice(&mut algo, 1, &items, &mut peak, &mut processed).expect("pass 1");
        let counters = algo.obs_counters().map(flat);
        let est = algo.finish();
        assert_eq!(est.estimate.to_bits(), fx.estimate_bits, "{}", fx.name);
        assert_eq!(counters, Some(fx.counters), "{}", fx.name);
    }
}
