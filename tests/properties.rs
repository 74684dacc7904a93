//! Property-based tests (proptest) over the core invariants:
//! exact-counter agreement, stream-promise preservation, estimator
//! exactness under exhaustive sampling, and gadget cycle gaps.

use adjstream::algo::common::EdgeSampling;
use adjstream::algo::fourcycle::{FourCycleEstimator, TwoPassFourCycle, TwoPassFourCycleConfig};
use adjstream::algo::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::{exact, Graph, GraphBuilder};
use adjstream::lowerbound::gadgets::{disj3_triangle_gadget, disj_long_cycle_gadget};
use adjstream::lowerbound::problems::{Disj3Instance, DisjInstance};
use adjstream::stream::{validate_stream, AdjListStream, PassOrders, Runner, StreamOrder};
use proptest::prelude::*;

/// Strategy: a random simple graph with up to `n` vertices as an edge list.
fn small_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |pairs| {
        let mut b = GraphBuilder::new(n as usize);
        for (u, v) in pairs {
            if u != v {
                b.add_edge(u.into(), v.into()).unwrap();
            }
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_triangle_count_matches_brute_force(g in small_graph(24, 80)) {
        prop_assert_eq!(
            exact::count_triangles(&g),
            exact::count_triangles_brute(&g)
        );
    }

    #[test]
    fn cycle_counter_agrees_with_specialized_counters(g in small_graph(14, 36)) {
        prop_assert_eq!(exact::count_cycles(&g, 3), exact::count_triangles(&g));
        prop_assert_eq!(exact::count_cycles(&g, 4), exact::count_four_cycles(&g));
    }

    #[test]
    fn every_stream_order_satisfies_the_promise(
        g in small_graph(20, 60),
        seed in 0u64..1000,
    ) {
        let n = g.vertex_count();
        let s = AdjListStream::new(&g, StreamOrder::shuffled(n, seed));
        prop_assert_eq!(validate_stream(s.items()), Ok(g.edge_count()));
    }

    #[test]
    fn two_pass_triangle_exact_under_exhaustive_sampling(
        g in small_graph(18, 60),
        seed in 0u64..1000,
    ) {
        let truth = exact::count_triangles(&g) as f64;
        let cfg = TwoPassTriangleConfig {
            seed,
            edge_sampling: EdgeSampling::Threshold { p: 1.0 },
            pair_capacity: usize::MAX,
        };
        let (est, _) = Runner::run(
            &g,
            TwoPassTriangle::new(cfg),
            &PassOrders::Same(StreamOrder::shuffled(g.vertex_count(), seed)),
        );
        prop_assert_eq!(est.estimate, truth);
    }

    #[test]
    fn two_pass_fourcycle_exact_under_exhaustive_sampling(
        g in small_graph(16, 48),
        seed in 0u64..1000,
    ) {
        let truth = exact::count_four_cycles(&g) as f64;
        let n = g.vertex_count();
        let cfg = TwoPassFourCycleConfig {
            seed,
            edge_sample_size: g.edge_count().max(1),
            estimator: FourCycleEstimator::DistinctCycles,
            max_wedges: None,
        };
        let (est, _) = Runner::run(
            &g,
            TwoPassFourCycle::new(cfg),
            &PassOrders::PerPass(vec![
                StreamOrder::shuffled(n, seed),
                StreamOrder::shuffled(n, seed ^ 0xF00),
            ]),
        );
        prop_assert_eq!(est.estimate, truth);
    }

    #[test]
    fn disj3_gadget_gap_holds_for_random_instances(
        seed in 0u64..500,
        r in 2usize..10,
        k in 1usize..4,
        answer in any::<bool>(),
    ) {
        let inst = Disj3Instance::random_promise(r, 0.4, answer, seed);
        let g = disj3_triangle_gadget(&inst, k);
        let expect = if answer { (k * k * k) as u64 } else { 0 };
        prop_assert_eq!(exact::count_triangles(&g.graph), expect);
    }

    #[test]
    fn long_cycle_gadget_gap_holds_for_random_instances(
        seed in 0u64..500,
        r in 2usize..12,
        t in 1usize..5,
        ell in 5usize..8,
        answer in any::<bool>(),
    ) {
        let inst = DisjInstance::random_promise(r, 0.3, answer, seed);
        let g = disj_long_cycle_gadget(&inst, ell, t);
        let expect = if answer { t as u64 } else { 0 };
        prop_assert_eq!(exact::count_cycles(&g.graph, ell), expect);
    }

    #[test]
    fn wedge_count_identity(g in small_graph(20, 60)) {
        // Σ_v C(d_v, 2) equals the number of enumerated wedges.
        let mut n = 0u64;
        exact::enumerate_wedges(&g, |_| n += 1);
        prop_assert_eq!(n, g.wedge_count());
    }

    #[test]
    fn edge_incidence_identities(g in small_graph(18, 56)) {
        // Per-edge triangle counts sum to 3T; per-edge 4-cycle counts to 4T.
        let idx = exact::EdgeIndexMap::new(&g);
        let (tri, t3) = exact::triangle_edge_counts(&g, &idx);
        prop_assert_eq!(tri.iter().sum::<u64>(), 3 * t3);
        let (c4, t4) = exact::four_cycle_edge_counts(&g, &idx);
        prop_assert_eq!(c4.iter().sum::<u64>(), 4 * t4);
    }
}

/// Brute-force model of the pair watcher, for equivalence testing.
mod watcher_model {
    use adjstream::algo::common::{pack_pair, PairWatcher};
    use adjstream::graph::VertexId;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A script: pairs to watch, then a sequence of lists to scan.
    fn script() -> impl Strategy<Value = (Vec<(u32, u32)>, Vec<Vec<u32>>)> {
        (
            prop::collection::vec((0u32..12, 0u32..12), 0..10),
            prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 0..6),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn watcher_matches_brute_force((pairs, lists) in script()) {
            let mut w = PairWatcher::new();
            let mut watched: HashSet<u64> = HashSet::new();
            for &(a, b) in &pairs {
                if a != b {
                    w.watch(VertexId(a), VertexId(b));
                    watched.insert(pack_pair(VertexId(a), VertexId(b)));
                }
            }
            for list in &lists {
                // Deduplicate the list (the model promises no duplicate
                // neighbors; the validator enforces it upstream).
                let mut dedup = Vec::new();
                let mut seen = HashSet::new();
                for &x in list {
                    if seen.insert(x) {
                        dedup.push(x);
                    }
                }
                // Brute force: a watched pair completes iff both endpoints
                // occur in the list.
                let set: HashSet<u32> = dedup.iter().copied().collect();
                let mut expect: Vec<u64> = watched
                    .iter()
                    .copied()
                    .filter(|&p| {
                        let (a, b) = adjstream::algo::common::unpack_pair(p);
                        set.contains(&a.0) && set.contains(&b.0)
                    })
                    .collect();
                expect.sort_unstable();
                let mut got = Vec::new();
                w.begin_list();
                for &x in &dedup {
                    w.on_item(VertexId(x), |k, _| got.push(k));
                }
                got.sort_unstable();
                prop_assert_eq!(got, expect);
            }
        }
    }
}

/// Sampler laws that every algorithm depends on.
mod sampler_model {
    use adjstream::stream::sampling::{BottomKSampler, Reservoir, ThresholdSampler};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn threshold_decisions_are_stable(seed in any::<u64>(), p in 0.0f64..1.0, keys in prop::collection::vec(any::<u64>(), 0..50)) {
            let s = ThresholdSampler::new(seed, p);
            for &k in &keys {
                prop_assert_eq!(s.accepts(k), s.accepts(k));
            }
        }

        #[test]
        fn bottomk_size_never_exceeds_k(seed in any::<u64>(), k in 0usize..20, keys in prop::collection::vec(any::<u64>(), 0..100)) {
            let mut s = BottomKSampler::new(seed, k);
            for &key in &keys {
                s.offer(key);
                prop_assert!(s.len() <= k);
            }
            let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
            prop_assert_eq!(s.len(), distinct.len().min(k));
        }

        #[test]
        fn bottomk_is_order_independent(seed in any::<u64>(), k in 1usize..10, mut keys in prop::collection::vec(any::<u64>(), 0..60)) {
            let run = |ks: &[u64]| {
                let mut s = BottomKSampler::new(seed, k);
                for &key in ks {
                    s.offer(key);
                }
                let mut out: Vec<u64> = s.keys().collect();
                out.sort_unstable();
                out
            };
            let forward = run(&keys);
            keys.reverse();
            let backward = run(&keys);
            prop_assert_eq!(forward, backward);
        }

        #[test]
        fn reservoir_len_is_min_of_seen_and_cap(seed in any::<u64>(), cap in 0usize..20, n in 0u64..100) {
            let mut r: Reservoir<u64> = Reservoir::new(seed, cap);
            for x in 0..n {
                r.offer(x);
            }
            prop_assert_eq!(r.len() as u64, n.min(cap as u64));
            prop_assert_eq!(r.seen(), n);
            // Everything held was offered.
            prop_assert!(r.iter().all(|&x| x < n));
        }
    }
}

/// TRIÈST with a full reservoir is an exact counter — in the *arbitrary*
/// order model, for any edge order.
mod triest_model {
    use adjstream::algo::triangle::TriestBase;
    use adjstream::graph::{exact, GraphBuilder};
    use adjstream::stream::arbitrary::{run_edge_stream, ArbitraryOrderStream};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn full_reservoir_exact(
            pairs in prop::collection::vec((0u32..15, 0u32..15), 0..40),
            seed in any::<u64>(),
        ) {
            let mut b = GraphBuilder::new(15);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u.into(), v.into()).unwrap();
                }
            }
            let g = b.build().unwrap();
            let s = ArbitraryOrderStream::new(&g, seed);
            let (est, _) = run_edge_stream(&s, TriestBase::new(seed, g.edge_count().max(2)));
            prop_assert_eq!(est.estimate, exact::count_triangles(&g) as f64);
        }
    }
}

/// Remaining gadget families: gap property for random instances.
mod gadget_gaps {
    use adjstream::graph::exact;
    use adjstream::lowerbound::gadgets::{
        disj_four_cycle_gadget, index_four_cycle_gadget, pj3_triangle_gadget,
        random_disj_instance_for_plane, random_index_instance_for_plane,
    };
    use adjstream::lowerbound::problems::Pj3Instance;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn pj3_gadget_gap(
            seed in 0u64..500,
            r in 2usize..12,
            k in 1usize..5,
            answer in any::<bool>(),
        ) {
            let inst = Pj3Instance::random_with_answer(r, answer, seed);
            let g = pj3_triangle_gadget(&inst, k);
            let expect = if answer { (k * k) as u64 } else { 0 };
            prop_assert_eq!(exact::count_triangles(&g.graph), expect);
            prop_assert!(g.players_partition_vertices());
        }

        #[test]
        fn index_gadget_gap(seed in 0u64..500, k in 1usize..5, answer in any::<bool>()) {
            let inst = random_index_instance_for_plane(2, answer, seed);
            let g = index_four_cycle_gadget(&inst, 2, k);
            let expect = if answer { k as u64 } else { 0 };
            prop_assert_eq!(exact::count_four_cycles(&g.graph), expect);
        }

        #[test]
        fn disj_fourcycle_gadget_gap(seed in 0u64..500, answer in any::<bool>()) {
            let inst = random_disj_instance_for_plane(2, 0.3, answer, seed);
            let g = disj_four_cycle_gadget(&inst, 2, 2);
            let expect = if answer { 21 } else { 0 };
            prop_assert_eq!(exact::count_four_cycles(&g.graph), expect);
        }
    }
}
