//! Golden bits for every Section 3 triangle estimator.
//!
//! Each case runs one estimator on a fixed seeded workload and pins the
//! estimate's `f64` bit pattern, the metered `peak_state_bytes`, the
//! published `obs_counters()` (or their absence), and — for the
//! checkpointable variants — an FNV-1a digest of the pass-boundary
//! checkpoint payload (and, for `two-pass`, of the payload saved after the
//! last pass). A refactor of the shared estimator core must leave
//! every row unchanged; an intentional change to what an estimator
//! computes must update the table here and say so.
//!
//! The release binaries are what ship, so CI also runs this file with
//! `--release`: `cargo test --release -p adjstream-core --test golden_bits`.

use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{
    OnePassTriangle, ShardedTriangle, ShardedTriangleConfig, ThreePassTriangle, TwoPassTriangle,
    TwoPassTriangleConfig,
};
use adjstream_graph::gen;
use adjstream_stream::checkpoint::Checkpoint;
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::obs::{Metrics, ObsCounters};
use adjstream_stream::runner::{drive_pass_slice, MultiPassAlgorithm};
use adjstream_stream::shard::{run_sharded_hooked, ShardPlan};
use adjstream_stream::{AdjListStream, StreamItem, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one run pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    estimate_bits: u64,
    peak_state_bytes: usize,
    /// `obs_counters()` in struct field order, `None` when unpublished.
    counters: Option<[u64; 9]>,
    /// Checkpoint payload digests at each pass boundary (empty for the
    /// variants that do not checkpoint).
    boundary_digests: Vec<u64>,
    /// Digest of the `two-pass` checkpoint saved after the last pass,
    /// which carries the final `H` counters.
    final_digest: Option<u64>,
}

/// A random graph with planted cliques and a heavy-edge book, streamed in
/// one shuffled order: enough triangles that bottom-k samples evict, the
/// pair subsample saturates, and the lightest-edge rule has ties to break.
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

/// FNV-1a over the checkpoint payload: the digest the pinned rows were
/// generated with, kept local so the table does not depend on which
/// checksum the container format uses.
fn digest<A: Checkpoint>(algo: &A) -> u64 {
    let mut blob = Vec::new();
    algo.save(&mut blob).expect("save");
    blob.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Drive `algo` sequentially over `items`, calling `at_boundary` between
/// passes and `at_end` after the last one, and pin its output.
fn drive<A: MultiPassAlgorithm>(
    mut algo: A,
    items: &[StreamItem],
    estimate: impl FnOnce(A::Output) -> f64,
    mut at_boundary: impl FnMut(&A),
    at_end: impl FnOnce(&A),
) -> Pinned {
    let mut peak = PeakTracker::new();
    let mut processed = 0usize;
    let passes = algo.passes();
    for pass in 0..passes {
        drive_pass_slice(&mut algo, pass, items, &mut peak, &mut processed).expect("pass");
        if pass + 1 < passes {
            at_boundary(&algo);
        }
    }
    at_end(&algo);
    let counters = algo.obs_counters().map(flat);
    Pinned {
        estimate_bits: estimate(algo.finish()).to_bits(),
        peak_state_bytes: peak.peak(),
        counters,
        boundary_digests: Vec::new(),
        final_digest: None,
    }
}

/// [`drive`] for a checkpointable estimator, recording boundary digests
/// and, if `digest_end`, the digest of a save after the last pass.
fn drive_checkpointed<A: MultiPassAlgorithm + Checkpoint>(
    algo: A,
    items: &[StreamItem],
    estimate: impl FnOnce(A::Output) -> f64,
    digest_end: bool,
) -> Pinned {
    let mut digests = Vec::new();
    let mut last = None;
    let mut pinned = drive(
        algo,
        items,
        estimate,
        |a| digests.push(digest(a)),
        |a| last = digest_end.then(|| digest(a)),
    );
    pinned.boundary_digests = digests;
    pinned.final_digest = last;
    pinned
}

fn sharded(cfg: ShardedTriangleConfig, items: &[StreamItem], shards: usize) -> Pinned {
    let plan = ShardPlan::build(items, shards);
    let (est, report) = run_sharded_hooked(
        ShardedTriangle::new(cfg),
        &plan,
        items,
        &Metrics::enabled(),
        |_| Ok(()),
    )
    .expect("sharded run");
    Pinned {
        estimate_bits: est.estimate.to_bits(),
        peak_state_bytes: report.peak_state_bytes,
        counters: report.metrics.map(|m| flat(m.counters)),
        boundary_digests: Vec::new(),
        final_digest: None,
    }
}

const THRESHOLD: EdgeSampling = EdgeSampling::Threshold { p: 0.4 };
const BOTTOM_K: EdgeSampling = EdgeSampling::BottomK { k: 300 };
const PAIR_CAPACITY: usize = 150;

fn two_pass_cfg(edge_sampling: EdgeSampling) -> TwoPassTriangleConfig {
    TwoPassTriangleConfig {
        seed: 9,
        edge_sampling,
        pair_capacity: PAIR_CAPACITY,
    }
}

fn sharded_cfg(edge_sampling: EdgeSampling) -> ShardedTriangleConfig {
    ShardedTriangleConfig {
        seed: 9,
        edge_sampling,
        pair_capacity: PAIR_CAPACITY,
    }
}

/// Every case, in a fixed order.
fn actual() -> Vec<(String, Pinned)> {
    let items = workload();
    let items = &items[..];
    let mut out = Vec::new();
    for (tag, sampling) in [("threshold", THRESHOLD), ("bottom-k", BOTTOM_K)] {
        let name = |variant: &str| format!("{variant}/{tag}");
        out.push((
            name("one-pass"),
            drive(
                OnePassTriangle::new(3, sampling),
                items,
                |e| e.estimate,
                |_| {},
                |_| {},
            ),
        ));
        out.push((
            name("three-pass"),
            drive(
                ThreePassTriangle::new(3, sampling, PAIR_CAPACITY),
                items,
                |e| e.estimate,
                |_| {},
                |_| {},
            ),
        ));
        out.push((
            name("two-pass"),
            drive_checkpointed(
                TwoPassTriangle::new(two_pass_cfg(sampling)),
                items,
                |e| e.estimate,
                true,
            ),
        ));
        out.push((
            name("sharded/sequential"),
            drive_checkpointed(
                ShardedTriangle::new(sharded_cfg(sampling)),
                items,
                |e| e.estimate,
                false,
            ),
        ));
        out.push((name("sharded/1"), sharded(sharded_cfg(sampling), items, 1)));
        out.push((name("sharded/4"), sharded(sharded_cfg(sampling), items, 4)));
    }
    out
}

/// The table, generated before the shared-kernel refactor of the
/// Section 3 estimators. The peaks were re-pinned when the pair watcher
/// became a slot table; no estimate, counter or digest moved with them.
/// The two `two-pass` peaks and digests were re-pinned when its state
/// shrank to the live sample (193569 → 147699 and 201972 → 155491 bytes):
/// its checkpoint no longer carries references to destroyed records.
/// `checkpoint_compat.rs` keeps the old payloads resuming to these bits.
/// The two `two-pass` peaks were re-pinned again when its reference lists
/// became links threaded through the record slab in place of per-key
/// vectors (147699 → 100554 and 155491 → 106783 bytes); the lists keep
/// their order, so no digest moved.
/// The `two-pass` rows also pin a digest of the checkpoint saved after
/// the last pass, whose records carry the final `H` counters.
/// The peaks were re-pinned once more when the pair watcher dropped its
/// free-slot vector (released slots now chain through the vacant slots)
/// and `two-pass` began to count each pair's pass-2 completions by
/// watcher slot and to drop its edge sampler when pass 2 begins:
/// one-pass/bottom-k 60214 → 60198, three-pass 76581 → 76517 and
/// 83076 → 83012, two-pass/bottom-k 106783 → 106706, and
/// two-pass/threshold 100554 → 104618, whose peak is now in pass 2, where
/// the completion counts outweigh its 32-byte sampler. No estimate,
/// counter or digest moved.
/// Every peak fell once more when the triangle estimators' bottom-k
/// sampler became a heap that asks the estimator's own `S` for
/// membership, the pair watcher began to keep short incident lists in
/// place and to meter each list's vector header once, and `sharded`
/// began to drop its edge sampler when pass 1 begins: one-pass 65096 →
/// 62176 and 60198 → 42038, three-pass 76517 → 73269 and 83012 → 64422,
/// two-pass 104618 → 101762 and 106706 → 88234, sharded 100144 → 94656
/// and 113264 → 91816. No estimate, counter or digest moved.
/// The `two-pass` peaks and digests moved when its reference lists became
/// an index that restore rebuilds: a record keeps one `monitors` node (at
/// its sampled edge) in place of three, lists no longer keep their order,
/// and the checkpoint saves both list sections empty. Peaks 101762 →
/// 93650 and 88234 → 79783; boundary digests 0xBB04601609BEAB54 →
/// 0x46FA6AACED042755 and 0x95D308FDF00499E4 → 0x3A64B97EF4566207; final
/// digests 0xC7B1810D22A4A9D1 → 0x5A84B296D7BE19AA and
/// 0x93E6FB3CC996FA9D → 0xE8E0506B143FE082. The `sharded` peaks fell
/// when its `monitors` vectors' headers stopped being metered twice:
/// 94656 → 85920 and 91816 → 83464. No estimate or counter moved;
/// `checkpoint_compat.rs` keeps the saved-list payloads resuming to
/// these bits.
/// The `two-pass` peaks and digests moved again when a record came to be
/// named by its slab index alone: records and `Q` entries lost their
/// generation tags, which the checkpoint now saves as zero words, and the
/// freed-slot generation map is gone. Peaks 93650 → 91959 and 79783 →
/// 77393; boundary digests 0x46FA6AACED042755 → 0x09C11CA02ACEFF23 and
/// 0x3A64B97EF4566207 → 0x994A0AF976CFE019; final digests
/// 0x5A84B296D7BE19AA → 0x8BCC091980403CFE and 0xE8E0506B143FE082 →
/// 0x5F1F54790D723CD0. No estimate or counter moved.
/// Every peak fell when the pair watcher's pair → slot map became an
/// open-addressed table of 4-byte slot ids, and the `two-pass` digests
/// moved because the watcher now saves its pairs in slot order: one-pass
/// 62176 → 51024 and 42038 → 37006, three-pass 73269 → 62474 and 64422 →
/// 53338, two-pass 91959 → 80909 and 77393 → 66335, sharded 85920 →
/// 80336 and 83464 → 77880; boundary digests 0x09C11CA02ACEFF23 →
/// 0x4BD7867FD3FCA903 and 0x994A0AF976CFE019 → 0xDE2663A016E613F9; final
/// digests 0x8BCC091980403CFE → 0x8053C5E61AD80A9E and
/// 0x5F1F54790D723CD0 → 0xCC29A8869C4F0DF0. No estimate or counter moved.
/// The `two-pass` rows moved when its records began to watch their edges
/// only when pass 2 begins, `S`'s per-edge info moved into watcher slots,
/// a record lost its fourth link, and pass 2 began from state rebuilt
/// from its contents (the watcher's slots renumbered densely and its
/// incident index refilled in vertex order): the pass-1
/// watcher holds `S` alone, so the watch counters fell (threshold 1741 →
/// 1144 started, 756 → 159 retired; bottom-k 2184 → 1389 and 1434 →
/// 639), as did the peaks (80909 → 62776 and 66335 → 55017); boundary
/// digests 0x4BD7867FD3FCA903 → 0xA042C71E343785D4 and 0xDE2663A016E613F9
/// → 0xD5057F60D8568A44; final digests 0x8053C5E61AD80A9E →
/// 0xACBD5B68E3070600 and 0xCC29A8869C4F0DF0 → 0xD689B01671332C82.
/// Pass-2 completions come in a new order within an item, which could
/// move an estimate; on these rows none moved.
/// Sharded counters legitimately differ by shard count (see
/// `shard_equivalence.rs`); estimates and peaks do not.
fn expected() -> Vec<(String, Pinned)> {
    let row = |name: &str, bits: u64, peak: usize, counters, digests| {
        (
            name.to_string(),
            Pinned {
                estimate_bits: bits,
                peak_state_bytes: peak,
                counters,
                boundary_digests: digests,
                final_digest: None,
            },
        )
    };
    let with_final = |(name, pinned): (String, Pinned), last: u64| {
        let final_digest = Some(last);
        (
            name,
            Pinned {
                final_digest,
                ..pinned
            },
        )
    };
    vec![
        row(
            "one-pass/threshold",
            0x4088380000000000,
            51024,
            None,
            vec![],
        ),
        row(
            "three-pass/threshold",
            0x4083300000000000,
            62474,
            None,
            vec![],
        ),
        with_final(
            row(
                "two-pass/threshold",
                0x4088C73333333333,
                62776,
                Some([535, 0, 1572, 1, 402, 252, 479, 1144, 159]),
                vec![0xA042C71E343785D4],
            ),
            0xACBD5B68E3070600,
        ),
        row(
            "sharded/sequential/threshold",
            0x4084A60000000000,
            80336,
            Some([535, 0, 1572, 1, 400, 250, 481, 450, 0]),
            vec![0x44FBE2D78EF1C2DA, 0x150ACA9593C72D7A],
        ),
        row(
            "sharded/1/threshold",
            0x4084A60000000000,
            80336,
            Some([535, 0, 1572, 1, 400, 250, 481, 450, 0]),
            vec![],
        ),
        row(
            "sharded/4/threshold",
            0x4084A60000000000,
            80336,
            Some([938, 0, 1572, 1, 820, 220, 61, 450, 0]),
            vec![],
        ),
        row("one-pass/bottom-k", 0x4088A192C5F92C5F, 37006, None, vec![]),
        row(
            "three-pass/bottom-k",
            0x4086B8DCAEF1D896,
            53338,
            None,
            vec![],
        ),
        with_final(
            row(
                "two-pass/bottom-k",
                0x4087648888888888,
                55017,
                Some([744, 444, 1513, 2, 480, 205, 172, 1389, 639]),
                vec![0xD5057F60D8568A44],
            ),
            0xD689B01671332C82,
        ),
        row(
            "sharded/sequential/bottom-k",
            0x40841E237FA89E60,
            77880,
            Some([744, 444, 1513, 2, 327, 177, 183, 450, 0]),
            vec![0xAE7D662E0758B129, 0x817A8F8E1E192997],
        ),
        row(
            "sharded/1/bottom-k",
            0x40841E237FA89E60,
            77880,
            Some([744, 444, 1513, 2, 327, 177, 183, 450, 0]),
            vec![],
        ),
        row(
            "sharded/4/bottom-k",
            0x40841E237FA89E60,
            77880,
            Some([1998, 798, 419, 2, 510, 0, 0, 450, 0]),
            vec![],
        ),
    ]
}

#[test]
fn estimator_bits_are_pinned() {
    let got = actual();
    let want = expected();
    assert_eq!(got.len(), want.len());
    for ((name, pinned), (want_name, want_pinned)) in got.iter().zip(&want) {
        assert_eq!(name, want_name);
        assert_eq!(pinned, want_pinned, "{name} moved");
    }
}
