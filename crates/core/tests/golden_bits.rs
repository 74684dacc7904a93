//! Golden bits for every Section 3 triangle estimator.
//!
//! Each case runs one estimator on a fixed seeded workload and pins the
//! estimate's `f64` bit pattern, the metered `peak_state_bytes`, the
//! published `obs_counters()` (or their absence), and — for the
//! checkpointable variants — an FNV-1a digest of the pass-boundary
//! checkpoint payload. A refactor of the shared estimator core must leave
//! every row unchanged; an intentional change to what an estimator
//! computes must update the table here and say so.
//!
//! The release binaries are what ship, so CI also runs this file with
//! `--release`: `cargo test --release -p adjstream-core --test golden_bits`.

use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{
    MultiLevelTriangle, OnePassTriangle, ShardedTriangle, ShardedTriangleConfig, ThreePassTriangle,
    TwoPassTriangle, TwoPassTriangleConfig,
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
/// passes, and pin its output.
fn drive<A: MultiPassAlgorithm>(
    mut algo: A,
    items: &[StreamItem],
    estimate: impl FnOnce(A::Output) -> f64,
    mut at_boundary: impl FnMut(&A),
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
    let counters = algo.obs_counters().map(flat);
    Pinned {
        estimate_bits: estimate(algo.finish()).to_bits(),
        peak_state_bytes: peak.peak(),
        counters,
        boundary_digests: Vec::new(),
    }
}

/// [`drive`] for a checkpointable estimator, recording boundary digests.
fn drive_checkpointed<A: MultiPassAlgorithm + Checkpoint>(
    algo: A,
    items: &[StreamItem],
    estimate: impl FnOnce(A::Output) -> f64,
) -> Pinned {
    let mut digests = Vec::new();
    let mut pinned = drive(algo, items, estimate, |a| digests.push(digest(a)));
    pinned.boundary_digests = digests;
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
            ),
        ));
        out.push((
            name("three-pass"),
            drive(
                ThreePassTriangle::new(3, sampling, PAIR_CAPACITY),
                items,
                |e| e.estimate,
                |_| {},
            ),
        ));
        out.push((
            name("two-pass"),
            drive_checkpointed(TwoPassTriangle::new(two_pass_cfg(sampling)), items, |e| {
                e.estimate
            }),
        ));
        out.push((
            name("sharded/sequential"),
            drive_checkpointed(ShardedTriangle::new(sharded_cfg(sampling)), items, |e| {
                e.estimate
            }),
        ));
        out.push((name("sharded/1"), sharded(sharded_cfg(sampling), items, 1)));
        out.push((name("sharded/4"), sharded(sharded_cfg(sampling), items, 4)));
    }
    out.push((
        "multi-level".to_string(),
        drive(
            MultiLevelTriangle::new(5, 40, 4),
            items,
            |e| e.estimate,
            |_| {},
        ),
    ));
    out
}

/// The table, generated before the shared-kernel refactor of the
/// Section 3 estimators. Sharded counters legitimately differ by shard
/// count (see `shard_equivalence.rs`); estimates and peaks do not.
fn expected() -> Vec<(String, Pinned)> {
    let row = |name: &str, bits: u64, peak: usize, counters, digests| {
        (
            name.to_string(),
            Pinned {
                estimate_bits: bits,
                peak_state_bytes: peak,
                counters,
                boundary_digests: digests,
            },
        )
    };
    vec![
        row(
            "one-pass/threshold",
            0x4088380000000000,
            69840,
            None,
            vec![],
        ),
        row(
            "three-pass/threshold",
            0x4083300000000000,
            84094,
            None,
            vec![],
        ),
        row(
            "two-pass/threshold",
            0x4088C73333333333,
            200996,
            Some([535, 0, 1572, 1, 402, 252, 479, 1741, 756]),
            vec![0xEA0B3FF021CB5C02],
        ),
        row(
            "sharded/sequential/threshold",
            0x4084A60000000000,
            103640,
            Some([535, 0, 1572, 1, 400, 250, 481, 450, 0]),
            vec![0x44FBE2D78EF1C2DA, 0x150ACA9593C72D7A],
        ),
        row(
            "sharded/1/threshold",
            0x4084A60000000000,
            103640,
            Some([535, 0, 1572, 1, 400, 250, 481, 450, 0]),
            vec![],
        ),
        row(
            "sharded/4/threshold",
            0x4084A60000000000,
            103640,
            Some([938, 0, 1572, 1, 820, 220, 61, 450, 0]),
            vec![],
        ),
        row("one-pass/bottom-k", 0x4088A192C5F92C5F, 65105, None, vec![]),
        row(
            "three-pass/bottom-k",
            0x4086B8DCAEF1D896,
            96853,
            None,
            vec![],
        ),
        row(
            "two-pass/bottom-k",
            0x4087648888888888,
            217412,
            Some([744, 444, 1513, 2, 480, 205, 172, 2184, 1434]),
            vec![0x444B68C36B9E9454],
        ),
        row(
            "sharded/sequential/bottom-k",
            0x40841E237FA89E60,
            116456,
            Some([744, 444, 1513, 2, 327, 177, 183, 450, 0]),
            vec![0xAE7D662E0758B129, 0x817A8F8E1E192997],
        ),
        row(
            "sharded/1/bottom-k",
            0x40841E237FA89E60,
            116456,
            Some([744, 444, 1513, 2, 327, 177, 183, 450, 0]),
            vec![],
        ),
        row(
            "sharded/4/bottom-k",
            0x40841E237FA89E60,
            116456,
            Some([1998, 798, 419, 2, 510, 0, 0, 450, 0]),
            vec![],
        ),
        row(
            "multi-level",
            0x408ABB9B0A3D70A3,
            579320,
            Some([1760, 1160, 8010, 8, 1272, 359, 155, 5576, 3176]),
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
