//! Integration tests of the fault-tolerance layer through the public
//! facade: panic isolation with survivor quorums (the ISSUE's R = 15
//! acceptance scenario), pass-boundary checkpoint/resume of the real
//! Theorem 3.7 algorithm, typed budget failures at the driver level, and a
//! proptest matrix checking that guard statistics and survivor medians
//! match the per-seed sequential reference under every [`FaultKind`].

mod common;

use adjstream::algo::amplify::{median_of_survivors, quorum, DegradedRun};
use adjstream::algo::common::EdgeSampling;
use adjstream::algo::estimate::{try_estimate_triangles, Accuracy, EstimateError};
use adjstream::algo::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::{gen, Graph, VertexId};
use adjstream::stream::batch::{BatchConfig, BatchJob, BatchOutcome, Budget, InstanceOutcome};
use adjstream::stream::{
    AdjListStream, FaultKind, FaultPlan, GraphPasses, GuardPolicy, GuardStats, Guarded,
    MultiPassAlgorithm, PassOrders, RunError, SpaceUsage, StreamError, StreamItem, StreamOrder,
};
use common::per_seed_triangle_runs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn er_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::gnm(60, 300, &mut rng).disjoint_union(&gen::disjoint_cliques(5, 6))
}

fn triangle_instances(reps: usize, base_seed: u64, budget: usize) -> Vec<TwoPassTriangle> {
    (0..reps)
        .map(|i| {
            TwoPassTriangle::new(TwoPassTriangleConfig {
                seed: base_seed.wrapping_add(i as u64),
                edge_sampling: EdgeSampling::BottomK { k: budget },
                pair_capacity: budget,
            })
        })
        .collect()
}

/// Run `job` to completion over `g` streamed per `orders`, calling
/// `after_pass` at every interior pass boundary.
fn run_graph<A: MultiPassAlgorithm + Send>(
    job: BatchJob<A>,
    g: &Graph,
    orders: &PassOrders,
    after_pass: impl FnMut(&BatchJob<A>) -> Result<(), RunError>,
) -> Result<BatchOutcome<A::Output>, RunError> {
    let source = GraphPasses::new(g, orders, job.passes(), job.requires_same_order())?;
    job.run(|pass| source.items(pass), after_pass)
}

/// Run a closure with the default panic hook silenced, so injected panics
/// don't spray backtraces over test output.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// A two-pass probe that digests every item it sees and can be armed to
/// panic mid-pass after a fixed number of items — the injected-fault stand-
/// in for a buggy estimator instance.
struct PanicProbe {
    digest: u64,
    items: u64,
    panic_after: Option<u64>,
}

impl PanicProbe {
    fn new(seed: u64) -> Self {
        PanicProbe {
            digest: seed ^ 0xcbf2_9ce4_8422_2325,
            items: 0,
            panic_after: None,
        }
    }

    fn panicking_at(mut self, n: u64) -> Self {
        self.panic_after = Some(n);
        self
    }
}

impl SpaceUsage for PanicProbe {
    fn space_bytes(&self) -> usize {
        64
    }
}

impl MultiPassAlgorithm for PanicProbe {
    type Output = f64;
    fn passes(&self) -> usize {
        2
    }
    fn begin_pass(&mut self, _pass: usize) {}
    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.items += 1;
        if self.panic_after == Some(self.items) {
            panic!("injected mid-pass panic");
        }
        let mixed = (u64::from(src.0) << 32) | u64::from(dst.0);
        self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3) ^ mixed;
    }
    fn finish(self) -> f64 {
        (self.digest >> 11) as f64
    }
}

fn probes(reps: usize, panicking: &[usize]) -> Vec<PanicProbe> {
    (0..reps)
        .map(|i| {
            let p = PanicProbe::new(900 + i as u64);
            if panicking.contains(&i) {
                p.panicking_at(40)
            } else {
                p
            }
        })
        .collect()
}

#[test]
fn one_panic_in_fifteen_meets_the_quorum_at_both_thread_counts() {
    let g = er_graph(11);
    let orders = PassOrders::Same(StreamOrder::shuffled(g.vertex_count(), 5));
    let reps = 15;
    assert_eq!(quorum(reps), 9);
    let mut reference: Option<Vec<Option<f64>>> = None;
    for threads in [1usize, 4] {
        let out = quietly(|| {
            let job = BatchJob::new(probes(reps, &[7]), &BatchConfig::with_threads(threads));
            run_graph(job.unwrap(), &g, &orders, |_| Ok(()))
                .expect("a panicking instance is quarantined, not fatal")
        });
        assert_eq!(out.report.survivors(), 14, "threads = {threads}");
        assert!(matches!(
            out.report.per_instance[7].outcome,
            InstanceOutcome::Panicked { .. }
        ));
        let report = median_of_survivors(&out.outputs, quorum(reps))
            .expect("14 survivors clear a quorum of 9");
        assert_eq!(report.dead_runs, 1);
        assert_eq!(report.runs.len(), 14);
        assert!(report.median.is_finite());
        // Both thread counts produce the identical survivor vector.
        match &reference {
            None => reference = Some(out.outputs.clone()),
            Some(want) => assert_eq!(&out.outputs, want, "threads = {threads}"),
        }
    }
}

#[test]
fn eight_panics_in_fifteen_is_a_typed_degraded_run() {
    let g = er_graph(13);
    let orders = PassOrders::Same(StreamOrder::shuffled(g.vertex_count(), 5));
    let reps = 15;
    let dead: Vec<usize> = (0..8).collect();
    for threads in [1usize, 4] {
        let out = quietly(|| {
            let job = BatchJob::new(probes(reps, &dead), &BatchConfig::with_threads(threads));
            run_graph(job.unwrap(), &g, &orders, |_| Ok(()))
                .expect("panics quarantine instances, not the batch")
        });
        assert_eq!(out.report.survivors(), 7, "threads = {threads}");
        let err = median_of_survivors(&out.outputs, quorum(reps))
            .expect_err("7 survivors miss a quorum of 9");
        assert_eq!(
            err,
            DegradedRun {
                survivors: 7,
                required: 9,
                repetitions: 15,
            }
        );
        assert!(err.to_string().contains("only 7 of 15"));
    }
}

#[test]
fn killed_at_the_pass_boundary_resumes_bit_for_bit() {
    let g = er_graph(17);
    let orders = PassOrders::Same(StreamOrder::shuffled(g.vertex_count(), 3));
    let cfg = BatchConfig::default();
    // Uninterrupted reference run.
    let job = || BatchJob::new(triangle_instances(6, 21, 64), &cfg).unwrap();
    let full = run_graph(job(), &g, &orders, |_| Ok(())).unwrap();
    assert!(full.outputs.iter().all(Option::is_some));
    // Checkpointed run: the boundary file it leaves behind is exactly what
    // a process killed after the pass-0/1 boundary write would leave.
    let path = std::env::temp_dir().join(format!(
        "adjstream-fault-tolerance-ckpt-{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let out = run_graph(job(), &g, &orders, |job| job.write_checkpoint(&path)).unwrap();
    assert_eq!(out.outputs, full.outputs, "checkpointing changes nothing");
    assert!(path.exists(), "the boundary checkpoint persists");
    // Resume the "killed" run at several thread counts: pass 1 replays and
    // the estimates come out bit-for-bit identical.
    for threads in [1usize, 4] {
        let restored = BatchJob::<TwoPassTriangle>::restore_from_file(
            &path,
            &BatchConfig::with_threads(threads),
        )
        .unwrap();
        let resumed = run_graph(restored, &g, &orders, |job| job.write_checkpoint(&path)).unwrap();
        assert_eq!(resumed.outputs, full.outputs, "threads = {threads}");
        assert_eq!(resumed.report.resumed_from, Some(1));
        assert_eq!(resumed.report.passes, 2);
        assert_eq!(resumed.report.survivors(), 6);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn budget_failures_are_typed_at_the_driver_level() {
    let g = er_graph(19);
    let order = StreamOrder::shuffled(g.vertex_count(), 9);
    let base = Accuracy {
        epsilon: 0.4,
        delta: 0.25,
        seed: 44,
        threads: 2,
        ..Accuracy::default()
    };
    // An expired deadline is a whole-run error...
    let acc = Accuracy {
        budget: Budget {
            deadline: Some(std::time::Duration::ZERO),
            ..Budget::default()
        },
        ..base
    };
    let err = try_estimate_triangles(&g, &order, 60, acc).unwrap_err();
    assert_eq!(
        err,
        EstimateError::Run(RunError::DeadlineExceeded { limit_ms: 0 })
    );
    // ...while a starved per-instance budget degrades below quorum, exactly
    // as the per-seed reference quarantines every repetition.
    let acc = Accuracy {
        budget: Budget {
            max_bytes_per_instance: Some(1),
            ..Budget::default()
        },
        ..base
    };
    let runs = per_seed_triangle_runs(&g, &order, 60, &acc);
    let want = median_of_survivors(&runs, quorum(runs.len())).unwrap_err();
    assert_eq!(want.survivors, 0);
    let err = try_estimate_triangles(&g, &order, 60, acc).unwrap_err();
    assert_eq!(err, EstimateError::Degraded(want));
}

/// Test-only adapter that returns a guarded instance's counters with its
/// output, so each batched instance's guard stats can be compared.
struct WithGuardStats<A>(Guarded<A>);

impl<A: MultiPassAlgorithm> SpaceUsage for WithGuardStats<A> {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes()
    }
}

impl<A: MultiPassAlgorithm> MultiPassAlgorithm for WithGuardStats<A> {
    type Output = (A::Output, GuardStats);
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
        self.0.feed_slice(items)
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
    fn finish(self) -> Self::Output {
        let stats = self.0.stats();
        (self.0.finish(), stats)
    }
}

const ALL_FAULT_KINDS: [FaultKind; 7] = [
    FaultKind::DropDirection,
    FaultKind::DuplicateItem,
    FaultKind::SplitList,
    FaultKind::InjectSelfLoop,
    FaultKind::CorruptVertex,
    FaultKind::TruncateTail,
    FaultKind::ReorderPass,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every fault kind and both thread counts, a batch of guarded
    /// Repair instances must agree with the one-instance-at-a-time
    /// sequential reference on (a) which instances survive, (b) each
    /// instance's estimate and guard fault counters, and (c) the survivor
    /// median.
    #[test]
    fn fault_matrix_guard_stats_and_survivor_medians_are_engine_invariant(
        graph_seed in 0u64..200,
        fault_seed in 0u64..200,
        count in 1usize..3,
    ) {
        for kind in ALL_FAULT_KINDS {
            let mut rng = StdRng::seed_from_u64(graph_seed);
            let g = gen::gnm(36, 140, &mut rng);
            let items =
                AdjListStream::new(&g, StreamOrder::shuffled(36, graph_seed)).collect_items();
            let corrupted = FaultPlan::new(fault_seed).with(kind, count).apply(&items);
            let reps = 5;

            // Sequential reference: guarded instances one at a time.
            let guarded = |i: usize| {
                WithGuardStats(Guarded::new(
                    triangle_instances(1, 3 + i as u64, 32).pop().unwrap(),
                    GuardPolicy::Repair,
                ))
            };
            let want: Vec<Option<(u64, GuardStats)>> = (0..reps)
                .map(|i| {
                    let run = corrupted.try_run(guarded(i)).ok();
                    run.map(|((est, stats), _)| (est.estimate.to_bits(), stats))
                })
                .collect();

            // Batched: the same guarded instances, each behind its own
            // guard. An instance that aborts is quarantined alone.
            for threads in [1usize, 4] {
                let cfg = BatchConfig::with_threads(threads);
                let out = BatchJob::new((0..reps).map(guarded).collect(), &cfg)
                    .and_then(|job| job.run(|p| corrupted.items_for_pass(p), |_| Ok(())))
                    .expect("instance aborts only quarantine");
                let got: Vec<Option<(u64, GuardStats)>> = out
                    .outputs
                    .iter()
                    .map(|o| o.as_ref().map(|(est, stats)| (est.estimate.to_bits(), *stats)))
                    .collect();
                prop_assert_eq!(
                    &got, &want,
                    "{} at {} threads: per-instance estimates and guard stats", kind, threads
                );
                let runs = |v: &[Option<(u64, GuardStats)>]| -> Vec<Option<f64>> {
                    v.iter().map(|o| o.map(|(bits, _)| f64::from_bits(bits))).collect()
                };
                let (got_runs, want_runs) = (runs(&got), runs(&want));
                prop_assert_eq!(
                    out.report.survivors(),
                    want.iter().flatten().count(),
                    "{} at {} threads: survivor set", kind, threads
                );
                if let Ok(want_med) = median_of_survivors(&want_runs, 1) {
                    let got_med = median_of_survivors(&got_runs, 1)
                        .expect("same survivor sets");
                    prop_assert_eq!(
                        got_med.median.to_bits(),
                        want_med.median.to_bits(),
                        "{} at {} threads: survivor median", kind, threads
                    );
                    prop_assert_eq!(got_med.dead_runs, want_med.dead_runs);
                }
            }
        }
    }
}
