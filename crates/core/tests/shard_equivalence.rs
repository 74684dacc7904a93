//! Property tests for graph-sharded execution: at every shard count the
//! merged estimate must be bit-identical to the same estimator driven
//! sequentially over the whole trace, with or without injected faults
//! (repaired once, upstream of the shard split), and shard placement must
//! be a pure function of the vertex id.
//!
//! Deliberately NOT asserted: sampler lifecycle counters
//! (admissions/evictions under bottom-k) — they depend on offer order,
//! which legitimately differs per shard. The equivalence contract covers
//! estimates, guard stats, and the merged output; see DESIGN.md §14.

use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{ShardedTriangle, ShardedTriangleConfig};
use adjstream_graph::VertexId;
use adjstream_stream::fault::{FaultKind, FaultPlan};
use adjstream_stream::runner::run_slice_passes;
use adjstream_stream::shard::{run_sharded_hooked, shard_of, ShardPlan};
use adjstream_stream::{guard_items, GuardPolicy, Metrics, StreamItem};
use proptest::prelude::*;

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

/// A promise-valid adjacency-list trace of a random simple graph on `n`
/// vertices: every undirected edge appears in both endpoint lists, every
/// list contiguous.
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_estimate_is_bit_identical_to_sequential(
        seed in any::<u64>(),
        n in 6u32..48,
        density in 1usize..5,
    ) {
        let items = random_trace(seed, n, n as usize * density);
        let cfg = config(seed ^ 0xA5A5, items.len().max(1));
        let (want, want_report) =
            run_slice_passes(ShardedTriangle::new(cfg), |_pass| &items[..])
                .expect("sequential run");
        for shards in [1usize, 2, 4, 8] {
            let plan = ShardPlan::build(&items, shards);
            let (got, report) =
                run_sharded_hooked(ShardedTriangle::new(cfg), &plan, &items, &Metrics::disabled(), |_| Ok(()))
                    .expect("sharded run");
            prop_assert_eq!(got.estimate.to_bits(), want.estimate.to_bits(),
                "estimate diverged at {} shards", shards);
            // The whole output record matches, not just the headline number.
            prop_assert_eq!(got, want);
            // A single shard replays the identical execution, so even the
            // space profile matches; more shards can only shrink the
            // per-worker peak (each replica holds a subset of the writes).
            if shards == 1 {
                prop_assert_eq!(report.peak_state_bytes, want_report.peak_state_bytes);
            } else {
                prop_assert!(report.peak_state_bytes <= want_report.peak_state_bytes);
            }
        }
    }

    #[test]
    fn faulty_traces_repair_upstream_then_shard_identically(
        seed in any::<u64>(),
        n in 8u32..40,
        drops in 0usize..3,
        loops in 0usize..3,
        dups in 0usize..3,
    ) {
        let clean = random_trace(seed, n, n as usize * 3);
        let corrupted = FaultPlan::new(seed ^ 0xF417)
            .with(FaultKind::DropDirection, drops)
            .with(FaultKind::InjectSelfLoop, loops)
            .with(FaultKind::DuplicateItem, dups)
            .apply(&clean);
        // The guard is deterministic: repairing twice yields the same
        // stream and the same fault counters.
        let (fixed, stats) = guard_items(corrupted.items(), GuardPolicy::Repair)
            .expect("repair pass succeeds");
        let (fixed2, stats2) = guard_items(corrupted.items(), GuardPolicy::Repair)
            .expect("repair pass succeeds");
        prop_assert_eq!(&fixed, &fixed2);
        prop_assert_eq!(stats, stats2);
        // Downstream of the one repair, sharding is invisible.
        let cfg = config(seed ^ 0x5A5A, fixed.len().max(1));
        let (want, _) = run_slice_passes(ShardedTriangle::new(cfg), |_pass| &fixed[..])
            .expect("sequential run over repaired stream");
        for shards in [1usize, 2, 4, 8] {
            let plan = ShardPlan::build(&fixed, shards);
            let (got, _) =
                run_sharded_hooked(ShardedTriangle::new(cfg), &plan, &fixed, &Metrics::disabled(), |_| Ok(()))
                    .expect("sharded run over repaired stream");
            prop_assert_eq!(got, want, "diverged at {} shards", shards);
        }
    }

    #[test]
    fn shard_placement_is_stable_and_covers_the_trace(
        seed in any::<u64>(),
        n in 4u32..64,
        shards in 1usize..9,
    ) {
        let items = random_trace(seed, n, n as usize * 2);
        let plan = ShardPlan::build(&items, shards);
        let again = ShardPlan::build(&items, shards);
        let mut covered = 0usize;
        for s in 0..shards {
            prop_assert_eq!(plan.runs_for(s), again.runs_for(s),
                "placement changed between builds on shard {}", s);
            for run in plan.runs_for(s) {
                // Placement is a pure function of the owning vertex.
                prop_assert_eq!(shard_of(items[run.start].src, shards), s);
                covered += run.end - run.start;
            }
        }
        prop_assert_eq!(covered, items.len());
    }
}
