//! Differential conformance across every execution mode, on random
//! inputs — the property-test generalization of the gnm-only checks in
//! `crates/core/tests/shard_equivalence.rs` and the proptest twin of the
//! `scenario_matrix` corpus harness.
//!
//! Two contracts:
//!
//! * the shard-mergeable Theorem 3.7 estimator returns **bit-identical**
//!   outputs under sequential replay, the batched engine (1 and 4
//!   threads), graph sharding (1/2/4/8 shards), and zero-copy mmap
//!   replay of the serialized `.adjb` trace;
//! * the high-level triangle driver returns bit-identical
//!   [`CountEstimate`]s to the per-seed `Runner::try_run` reference at any
//!   thread count.

mod common;

use adjstream::algo::amplify::{median_of_survivors, quorum};
use adjstream::algo::common::EdgeSampling;
use adjstream::algo::estimate::{try_estimate_triangles, Accuracy};
use adjstream::algo::triangle::{ShardedTriangle, ShardedTriangleConfig};
use adjstream::graph::{gen, VertexId};
use adjstream::stream::batch::{BatchConfig, BatchJob};
use adjstream::stream::mmapfile::MappedTrace;
use adjstream::stream::runner::run_slice_passes;
use adjstream::stream::shard::{run_sharded_hooked, ShardPlan};
use adjstream::stream::trace::ItemTrace;
use adjstream::stream::{Metrics, StreamItem, StreamOrder};
use common::per_seed_triangle_runs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tiny deterministic generator for building workloads from a drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A promise-valid adjacency-list trace of a random simple graph.
fn random_trace(seed: u64, n: u32, target_edges: usize) -> Vec<StreamItem> {
    let mut mix = Mix(seed);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    let mut edges = std::collections::BTreeSet::new();
    for _ in 0..target_edges * 2 {
        if edges.len() >= target_edges {
            break;
        }
        let u = mix.below(n as u64) as u32;
        let v = mix.below(n as u64) as u32;
        if u != v && edges.insert((u.min(v), u.max(v))) {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    let mut items = Vec::new();
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            items.push(StreamItem::new(VertexId(u as u32), VertexId(v)));
        }
    }
    items
}

fn config(seed: u64, items: usize) -> ShardedTriangleConfig {
    ShardedTriangleConfig {
        seed,
        edge_sampling: EdgeSampling::BottomK {
            k: (items / 8).max(8),
        },
        pair_capacity: (items / 8).max(8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential vs batched×{1,4} vs sharded×{1,2,4,8} vs mmap: one
    /// estimator, seven more executions, zero bits of daylight.
    #[test]
    fn all_execution_modes_agree_bit_for_bit(
        seed in any::<u64>(),
        n in 6u32..40,
        density in 1usize..5,
    ) {
        let items = random_trace(seed, n, n as usize * density);
        let cfg = config(seed ^ 0x51AD, items.len().max(1));
        let (want, _) = run_slice_passes(ShardedTriangle::new(cfg), |_pass| &items[..])
            .expect("sequential run");

        for threads in [1usize, 4] {
            let outcome =
                BatchJob::new(vec![ShardedTriangle::new(cfg)], &BatchConfig::with_threads(threads))
                    .and_then(|job| job.run(|_pass| &items[..], |_| Ok(())))
                    .expect("batched run");
            let got = outcome.outputs[0].as_ref().expect("instance survived");
            prop_assert_eq!(
                got.estimate.to_bits(), want.estimate.to_bits(),
                "batched diverged at {} threads", threads
            );
            prop_assert_eq!(got, &want);
        }

        for shards in [1usize, 2, 4, 8] {
            let plan = ShardPlan::build(&items, shards);
            let (got, _) = run_sharded_hooked(
                ShardedTriangle::new(cfg),
                &plan,
                &items,
                &Metrics::disabled(),
                |_| Ok(()),
            )
            .expect("sharded run");
            prop_assert_eq!(
                got.estimate.to_bits(), want.estimate.to_bits(),
                "sharded diverged at {} shards", shards
            );
            prop_assert_eq!(got, want.clone());
        }

        // Serialize, reopen zero-copy, replay: still the same bits.
        let path = std::env::temp_dir().join(format!(
            "mode-matrix-{}-{seed:x}.adjb",
            std::process::id()
        ));
        let trace = ItemTrace::new_unchecked(items.clone());
        let mut f = std::fs::File::create(&path).expect("create temp trace");
        trace.write_adjb(&mut f).expect("serialize");
        drop(f);
        let mut mapped = MappedTrace::open(&path).expect("mmap");
        mapped.verify_all(1 << 16).expect("windowed checksum");
        let (got, _) = run_slice_passes(ShardedTriangle::new(cfg), |_pass| mapped.items())
            .expect("mmap run");
        drop(mapped);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(got.estimate.to_bits(), want.estimate.to_bits(), "mmap diverged");
        prop_assert_eq!(got, want);
    }

    /// The high-level driver: `CountEstimate`s equal the per-seed
    /// reference's median and are thread-count-invariant on random graphs.
    #[test]
    fn count_estimates_are_engine_invariant(
        seed in any::<u64>(),
        n in 12usize..48,
        m_factor in 2usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnm(n, n * m_factor, &mut rng);
        let order = StreamOrder::shuffled(g.vertex_count(), seed ^ 0x0DDE);
        let acc = |threads: usize| Accuracy {
            epsilon: 0.5,
            delta: 0.2,
            seed: seed ^ 0xACC,
            threads,
            ..Accuracy::default()
        };
        let runs = per_seed_triangle_runs(&g, &order, 1, &acc(1));
        let want = median_of_survivors(&runs, quorum(runs.len())).expect("per-seed median");
        for threads in [1usize, 2, 4] {
            let got = try_estimate_triangles(&g, &order, 1, acc(threads))
                .expect("batched estimate");
            prop_assert_eq!(
                got.count.to_bits(), want.median.to_bits(),
                "CountEstimate diverged: batched×{} {} vs per-seed {}",
                threads, got.count, want.median
            );
            prop_assert_eq!(&got.report.runs, &want.runs);
            prop_assert_eq!(got.repetitions, runs.len());
        }
    }
}
