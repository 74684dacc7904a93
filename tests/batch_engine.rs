//! Integration tests of the batched shared-pass engine against the
//! sequential per-seed reference, through the public facade API:
//! order-contract error paths, driver agreement with the reference, the
//! pass-optimality of guess-and-verify, guard-stat parity under injected
//! faults, and the `feed_slice` == per-item contract for every algorithm
//! with a native slice path.

mod common;

use std::fmt::Debug;

use adjstream::algo::amplify::{median_of_survivors, quorum};
use adjstream::algo::common::EdgeSampling;
use adjstream::algo::estimate::{estimate_triangles, estimate_triangles_auto, Accuracy};
use adjstream::algo::fourcycle::{TwoPassFourCycle, TwoPassFourCycleConfig};
use adjstream::algo::triangle::{MultiLevelTriangle, TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::{gen, Graph, VertexId};
use adjstream::stream::batch::{BatchConfig, BatchJob, BatchOutcome};
use adjstream::stream::trace::ItemTrace;
use adjstream::stream::{
    run_slice_passes, AdjListStream, FaultKind, FaultPlan, GraphPasses, GuardPolicy, GuardStats,
    Guarded, MultiPassAlgorithm, ObsCounters, PassOrders, RunError, SpaceUsage, StreamError,
    StreamItem, StreamOrder, ValidatorMode,
};
use common::per_seed_triangle_runs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn er_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::gnm(120, 600, &mut rng)
}

fn triangle_algo(seed: u64, budget: usize) -> TwoPassTriangle {
    TwoPassTriangle::new(TwoPassTriangleConfig {
        seed,
        edge_sampling: EdgeSampling::BottomK { k: budget },
        pair_capacity: budget,
    })
}

fn triangle_instances(reps: usize, base_seed: u64, budget: usize) -> Vec<TwoPassTriangle> {
    (0..reps)
        .map(|i| triangle_algo(base_seed.wrapping_add(i as u64), budget))
        .collect()
}

/// A batched run over `g` streamed per `orders`.
fn run_graph<A>(
    g: &Graph,
    instances: Vec<A>,
    orders: &PassOrders,
    cfg: &BatchConfig,
) -> Result<BatchOutcome<A::Output>, RunError>
where
    A: MultiPassAlgorithm + Send,
{
    let job = BatchJob::new(instances, cfg)?;
    let source = GraphPasses::new(g, orders, job.passes(), job.requires_same_order())?;
    job.run(|pass| source.items(pass), |_| Ok(()))
}

/// Test-only adapter whose `feed_slice` is a loop of `item` calls, so
/// driving it through any slice driver reproduces per-item dispatch of the
/// wrapped algorithm.
struct ItemByItem<A>(A);

impl<A: SpaceUsage> SpaceUsage for ItemByItem<A> {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes()
    }
}

impl<A: MultiPassAlgorithm> MultiPassAlgorithm for ItemByItem<A> {
    type Output = A::Output;
    fn passes(&self) -> usize {
        self.0.passes()
    }
    fn requires_same_order(&self) -> bool {
        self.0.requires_same_order()
    }
    fn begin_pass(&mut self, pass: usize) {
        self.0.begin_pass(pass)
    }
    fn begin_list(&mut self, owner: VertexId) {
        self.0.begin_list(owner)
    }
    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.0.item(src, dst)
    }
    fn feed_slice(&mut self, items: &[StreamItem]) {
        for it in items {
            self.0.item(it.src, it.dst);
        }
    }
    fn end_list(&mut self, owner: VertexId) {
        self.0.end_list(owner)
    }
    fn end_pass(&mut self, pass: usize) {
        self.0.end_pass(pass)
    }
    fn abort_error(&self) -> Option<StreamError> {
        self.0.abort_error()
    }
    fn guard_stats(&self) -> Option<GuardStats> {
        self.0.guard_stats()
    }
    fn obs_counters(&self) -> Option<ObsCounters> {
        self.0.obs_counters()
    }
    fn finish(self) -> A::Output {
        self.0.finish()
    }
}

/// `make(seed)` driven slice by slice must be bit-identical to its
/// item-by-item twin: outputs (compared in `Debug` form, which is exact
/// for `f64`), peak bytes, item counts, and guard statistics — under the
/// sequential driver and the batched engine at 1 and 4 threads (the
/// batch optionally behind a shared `guard`).
fn assert_slices_match_items<A>(
    make: impl Fn(u64) -> A,
    seed: u64,
    items_for_pass: impl Fn(usize) -> Vec<StreamItem>,
    guard: Option<(GuardPolicy, ValidatorMode)>,
) where
    A: MultiPassAlgorithm + Send,
    A::Output: Debug,
{
    let (want, want_report) =
        run_slice_passes(ItemByItem(make(seed)), &items_for_pass).expect("item-by-item run");
    let (got, got_report) = run_slice_passes(make(seed), &items_for_pass).expect("slice run");
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    prop_assert_eq!(got_report, want_report);
    for threads in [1usize, 4] {
        let cfg = BatchConfig {
            threads,
            guard,
            ..BatchConfig::default()
        };
        let seeds = seed..seed + 3;
        let want = BatchJob::new(seeds.clone().map(|s| ItemByItem(make(s))).collect(), &cfg)
            .and_then(|job| job.run(&items_for_pass, |_| Ok(())))
            .expect("item-by-item batch");
        let got = BatchJob::new(seeds.map(&make).collect(), &cfg)
            .and_then(|job| job.run(&items_for_pass, |_| Ok(())))
            .expect("slice batch");
        prop_assert_eq!(
            format!("{:?}", got.outputs),
            format!("{:?}", want.outputs),
            "threads {}",
            threads
        );
        prop_assert_eq!(&got.report.per_instance, &want.report.per_instance);
        prop_assert_eq!(got.report.guard, want.report.guard);
    }
}

#[test]
fn batched_engine_rejects_wrong_order_count() {
    let g = er_graph(1);
    let err = run_graph(
        &g,
        triangle_instances(3, 9, 64),
        &PassOrders::PerPass(vec![StreamOrder::natural(120)]),
        &BatchConfig::default(),
    )
    .unwrap_err();
    assert_eq!(
        err,
        RunError::WrongOrderCount {
            expected: 2,
            got: 1
        }
    );
}

#[test]
fn batched_engine_rejects_order_mismatch_for_order_sensitive_algorithms() {
    let g = er_graph(2);
    // TwoPassTriangle requires identical pass orders.
    let err = run_graph(
        &g,
        triangle_instances(3, 9, 64),
        &PassOrders::PerPass(vec![StreamOrder::natural(120), StreamOrder::reversed(120)]),
        &BatchConfig::default(),
    )
    .unwrap_err();
    assert_eq!(err, RunError::OrderMismatch);
    // Equal PerPass entries satisfy the contract, exactly as with Runner.
    let order = StreamOrder::shuffled(120, 5);
    assert!(run_graph(
        &g,
        triangle_instances(3, 9, 64),
        &PassOrders::PerPass(vec![order.clone(), order]),
        &BatchConfig::default(),
    )
    .is_ok());
}

#[test]
fn driver_runs_vectors_are_engine_invariant() {
    let g = er_graph(3);
    let order = StreamOrder::shuffled(g.vertex_count(), 17);
    let base = Accuracy {
        epsilon: 0.4,
        delta: 0.25,
        seed: 77,
        ..Accuracy::default()
    };
    let runs = per_seed_triangle_runs(&g, &order, 50, &base);
    let want = median_of_survivors(&runs, quorum(runs.len())).unwrap();
    for threads in [1, 4] {
        let bat = estimate_triangles(&g, &order, 50, Accuracy { threads, ..base });
        assert_eq!(bat.report.runs, want.runs, "threads = {threads}");
        assert_eq!(bat.count.to_bits(), want.median.to_bits());
        assert_eq!(bat.report.nan_runs, want.nan_runs);
    }
}

#[test]
fn auto_driver_is_pass_optimal_under_the_batched_engine() {
    let g = gen::disjoint_cliques(8, 10).disjoint_union(&er_graph(4));
    let order = StreamOrder::shuffled(g.vertex_count(), 6);
    let acc = Accuracy {
        epsilon: 0.35,
        delta: 0.2,
        seed: 31,
        threads: 2,
        ..Accuracy::default()
    };
    let est = estimate_triangles_auto(&g, &order, acc);
    assert_eq!(est.stream_passes, 2, "all guess levels share one execution");
    assert_eq!(est.batch.stream_generations, 1);
    assert!(
        est.batch.instances > est.repetitions,
        "many levels resident"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-seed sequential reference and the batched engine must agree
    /// on the guard's fault counters for any injected fault mix: the
    /// shared validator sees the same corrupted item sequence either way.
    #[test]
    fn engines_agree_on_guard_stats_under_faults(
        graph_seed in 0u64..500,
        fault_seed in 0u64..500,
        dropped in 0usize..3,
        duplicated in 0usize..3,
        self_loops in 0usize..2,
        threads in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let g = gen::gnm(40, 150, &mut rng);
        let items = AdjListStream::new(&g, StreamOrder::shuffled(40, graph_seed)).collect_items();
        let corrupted = FaultPlan::new(fault_seed)
            .with(FaultKind::DropDirection, dropped)
            .with(FaultKind::DuplicateItem, duplicated)
            .with(FaultKind::InjectSelfLoop, self_loops)
            .apply(&items);

        // Sequential reference: one guarded instance.
        let (_, seq_report) = corrupted
            .try_run(Guarded::new(triangle_algo(3, 32), GuardPolicy::Repair))
            .expect("repair policy never aborts on these fault kinds");
        let want = seq_report.guard.expect("guarded run publishes stats");

        // Batched run: several instances behind ONE shared validator.
        let cfg = BatchConfig {
            threads,
            guard: Some((GuardPolicy::Repair, ValidatorMode::Exact)),
            ..BatchConfig::default()
        };
        let out = BatchJob::new(triangle_instances(5, 3, 32), &cfg)
            .and_then(|job| job.run(|p| corrupted.items_for_pass(p), |_| Ok(())))
            .expect("repair policy never aborts on these fault kinds");
        let got = out.report.guard.expect("shared guard publishes stats");

        // Seeded hashing makes the validator's map capacities — and so its
        // peak bytes — a pure function of the stream, so the whole stats
        // struct is the deterministic contract.
        prop_assert_eq!(got, want);
        // Every instance consumed the identical repaired stream.
        let per_items: Vec<usize> =
            out.report.per_instance.iter().map(|r| r.items).collect();
        prop_assert!(per_items.iter().all(|&i| i == per_items[0]));
    }

    /// `feed_slice` is a pure performance path: for every algorithm with a
    /// native override (and the repair guard, which splits lists into
    /// admitted segments), slice delivery is bit-identical to item-by-item
    /// delivery — estimates, peak byte meters, and guard statistics —
    /// sequentially and batched at 1 and 4 threads, including on
    /// fault-injected streams.
    #[test]
    fn feed_slice_is_bit_identical_to_item_by_item(
        graph_seed in 0u64..300,
        algo_seed in 0u64..100,
        dropped in 0usize..3,
        self_loops in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let g = gen::gnm(40, 160, &mut rng);
        let clean = AdjListStream::new(&g, StreamOrder::shuffled(40, graph_seed)).collect_items();
        let corrupted = FaultPlan::new(graph_seed ^ 0xFA)
            .with(FaultKind::DropDirection, dropped)
            .with(FaultKind::InjectSelfLoop, self_loops)
            .apply(&clean);
        let clean_passes = |_: usize| clean.clone();
        let faulty_passes = |p: usize| corrupted.items_for_pass(p).to_vec();

        assert_slices_match_items(|s| triangle_algo(s, 48), algo_seed, clean_passes, None);
        assert_slices_match_items(
            |s| TwoPassFourCycle::new(TwoPassFourCycleConfig::paper(s, 48)),
            algo_seed,
            clean_passes,
            None,
        );
        assert_slices_match_items(
            |s| MultiLevelTriangle::new(s, 16, 3),
            algo_seed,
            clean_passes,
            None,
        );
        assert_slices_match_items(
            |s| Guarded::new(triangle_algo(s, 48), GuardPolicy::Repair),
            algo_seed,
            faulty_passes,
            None,
        );
        assert_slices_match_items(
            |s| triangle_algo(s, 48),
            algo_seed,
            faulty_passes,
            Some((GuardPolicy::Repair, ValidatorMode::Exact)),
        );
    }

    /// A trace serialized to the binary container and loaded back (through
    /// format sniffing) is item-for-item identical to its text form, and
    /// flipping any payload byte is rejected by the checksum.
    #[test]
    fn binary_trace_roundtrip_matches_text(
        graph_seed in 0u64..500,
        order_seed in 0u64..100,
        flip_at in 0usize..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let g = gen::gnm(30, 120, &mut rng);
        let items = AdjListStream::new(&g, StreamOrder::shuffled(30, order_seed)).collect_items();

        // Text form.
        let mut text = String::new();
        for it in &items {
            text.push_str(&format!("{} {}\n", it.src, it.dst));
        }
        let from_text = ItemTrace::read(text.as_bytes()).expect("generated stream is valid");

        // Binary round trip.
        let mut bytes = Vec::new();
        from_text.write_adjb(&mut bytes).unwrap();
        let from_bin = ItemTrace::read(bytes.as_slice()).expect("own writer output is valid");
        prop_assert_eq!(from_bin.items(), from_text.items());
        prop_assert_eq!(from_bin.edges(), from_text.edges());

        // Corruption in the checksummed region (anything after magic +
        // version) must be rejected with a typed error, never mis-parsed.
        let at = 12 + flip_at % (bytes.len() - 12);
        bytes[at] ^= 0x10;
        prop_assert!(ItemTrace::read(bytes.as_slice()).is_err());
    }
}
