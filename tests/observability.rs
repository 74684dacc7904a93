//! Metrics-parity suite: collecting observability data must never change
//! what a run computes.
//!
//! The contract under test is the one the drivers document — turning
//! metrics on (or moving between the per-seed reference and the batched
//! driver, or changing the batch thread count) leaves estimates, peak byte
//! counts, and guard statistics bit-for-bit identical; only the `metrics`
//! field gains content. Wall-clock fields inside a snapshot are
//! nondeterministic and are never compared.

mod common;

use adjstream::algo::amplify::{median_of_survivors, quorum};
use adjstream::algo::common::EdgeSampling;
use adjstream::algo::estimate::{
    try_estimate_triangles, try_estimate_triangles_checkpointed, Accuracy,
};
use adjstream::algo::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::{gen, Graph, GraphBuilder};
use adjstream::stream::{
    run_slice_passes, run_slice_passes_observed, AdjListStream, BatchConfig, BatchJob, FaultKind,
    FaultPlan, GraphPasses, GuardPolicy, Guarded, Metrics, PassOrders, Runner, StreamOrder,
    METRICS_SCHEMA_VERSION,
};
use common::per_seed_triangle_runs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::gnm(150, 1200, &mut rng).disjoint_union(&gen::disjoint_cliques(4, 7))
}

fn triangle_algo(seed: u64, budget: usize) -> TwoPassTriangle {
    TwoPassTriangle::new(TwoPassTriangleConfig {
        seed,
        edge_sampling: EdgeSampling::BottomK { k: budget },
        pair_capacity: budget,
    })
}

/// The estimate-level parity check: same accuracy contract with metrics
/// off and on must agree on every deterministic field; the on-side must
/// actually carry a snapshot whose deterministic fields are consistent.
fn assert_estimate_parity(g: &Graph, acc: Accuracy) {
    let order = StreamOrder::shuffled(g.vertex_count(), acc.seed);
    let t_lower = 50;
    let off = try_estimate_triangles(
        g,
        &order,
        t_lower,
        Accuracy {
            collect_metrics: false,
            ..acc
        },
    )
    .expect("metrics-off estimate");
    let on = try_estimate_triangles(
        g,
        &order,
        t_lower,
        Accuracy {
            collect_metrics: true,
            ..acc
        },
    )
    .expect("metrics-on estimate");
    assert_eq!(off.count.to_bits(), on.count.to_bits());
    assert_eq!(off.budget, on.budget);
    assert_eq!(off.repetitions, on.repetitions);
    assert_eq!(off.stream_passes, on.stream_passes);
    assert_eq!(off.report.median.to_bits(), on.report.median.to_bits());
    assert_eq!(off.report.variance.to_bits(), on.report.variance.to_bits());
    assert_eq!(off.report.dead_runs, on.report.dead_runs);
    assert!(off.metrics.is_none(), "metrics-off must not collect");
    let snap = on.metrics.expect("metrics-on must collect");
    assert_eq!(snap.schema, METRICS_SCHEMA_VERSION);
    assert_eq!(snap.runs as usize, on.repetitions);
    assert!(snap.counters.admissions > 0, "sampler never admitted?");
    assert!(!snap.passes.is_empty());
    // Both sides reproduce the per-seed reference runs.
    let runs = per_seed_triangle_runs(g, &order, t_lower, &acc);
    let want = median_of_survivors(&runs, quorum(runs.len())).expect("reference median");
    assert_eq!(on.report.runs, want.runs);
}

#[test]
fn estimate_parity_holds_across_engines_and_thread_counts() {
    let g = fixture_graph(1);
    for threads in [1, 4] {
        assert_estimate_parity(
            &g,
            Accuracy {
                threads,
                seed: 77,
                ..Accuracy::default()
            },
        );
    }
}

#[test]
fn batched_thread_count_never_changes_the_estimate() {
    let g = fixture_graph(2);
    let order = StreamOrder::shuffled(g.vertex_count(), 5);
    let run = |threads: usize, collect: bool| {
        try_estimate_triangles(
            &g,
            &order,
            50,
            Accuracy {
                threads,
                collect_metrics: collect,
                ..Accuracy::default()
            },
        )
        .expect("estimate")
    };
    let reference = run(1, false);
    for threads in [2, 4] {
        for collect in [false, true] {
            let est = run(threads, collect);
            assert_eq!(
                reference.count.to_bits(),
                est.count.to_bits(),
                "threads {threads}, metrics {collect}"
            );
            assert_eq!(reference.report.dead_runs, est.report.dead_runs);
        }
    }
}

#[test]
fn runner_observed_reproduces_unobserved_reports_exactly() {
    let g = fixture_graph(3);
    let orders = PassOrders::Same(StreamOrder::shuffled(g.vertex_count(), 9));
    let (plain_est, plain_rep) =
        Runner::try_run(&g, triangle_algo(11, 200), &orders).expect("plain run");
    let sink = Metrics::enabled();
    let source = GraphPasses::new(&g, &orders, 2, true).expect("valid orders");
    let (obs_est, obs_rep) =
        run_slice_passes_observed(triangle_algo(11, 200), |p| source.items(p), &sink)
            .expect("observed run");
    assert_eq!(plain_est.estimate.to_bits(), obs_est.estimate.to_bits());
    assert_eq!(plain_rep.peak_state_bytes, obs_rep.peak_state_bytes);
    assert_eq!(plain_rep.items_processed, obs_rep.items_processed);
    assert_eq!(plain_rep.passes, obs_rep.passes);
    assert_eq!(plain_rep.guard, obs_rep.guard);
    assert!(plain_rep.metrics.is_none());
    let snap = obs_rep.metrics.expect("observed run carries metrics");
    // The snapshot's byte peak is the same number the report carries.
    assert_eq!(snap.peak_state_bytes as usize, obs_rep.peak_state_bytes);
    assert_eq!(snap.items_processed as usize, obs_rep.items_processed);
    assert_eq!(snap.passes.len(), obs_rep.passes);
    // The sink absorbed the same snapshot.
    let absorbed = sink.snapshot().expect("sink collected");
    assert_eq!(absorbed.peak_state_bytes, snap.peak_state_bytes);
    assert_eq!(absorbed.counters, snap.counters);
}

#[test]
fn batched_pass_metrics_count_lists_and_slices_like_the_sequential_loop() {
    let g = fixture_graph(7);
    let orders = PassOrders::Same(StreamOrder::shuffled(g.vertex_count(), 4));
    let source = GraphPasses::new(&g, &orders, 2, true).expect("valid orders");
    let (_, seq) = run_slice_passes_observed(
        triangle_algo(3, 100),
        |p| source.items(p),
        &Metrics::enabled(),
    )
    .expect("observed run");
    let want = seq.metrics.expect("observed run carries metrics").passes;
    assert!(want.iter().all(|p| p.lists > 0 && p.slices > 0));
    for threads in [1, 4] {
        let cfg = BatchConfig {
            threads,
            metrics: true,
            ..BatchConfig::default()
        };
        let out = BatchJob::new(vec![triangle_algo(3, 100), triangle_algo(4, 100)], &cfg)
            .and_then(|job| job.run(|p| source.items(p), |_| Ok(())))
            .expect("batched run");
        let got = out.report.metrics.expect("metrics on").passes;
        assert_eq!(got.len(), want.len(), "threads {threads}");
        for (b, s) in got.iter().zip(&want) {
            assert_eq!(
                (b.pass, b.items, b.lists, b.slices),
                (s.pass, s.items, s.lists, s.slices),
                "threads {threads}"
            );
        }
    }
}

#[test]
fn parity_holds_under_injected_faults_for_every_guard_policy() {
    let g = fixture_graph(4);
    let items = AdjListStream::new(&g, StreamOrder::shuffled(g.vertex_count(), 21)).collect_items();
    let plan = FaultPlan::new(13)
        .with(FaultKind::DropDirection, 3)
        .with(FaultKind::InjectSelfLoop, 2)
        .with(FaultKind::DuplicateItem, 2);
    let corrupted = plan.apply(&items);
    for policy in [GuardPolicy::Repair, GuardPolicy::Observe] {
        let run_once = |sink: &Metrics| {
            run_slice_passes_observed(
                Guarded::new(triangle_algo(7, 150), policy),
                |pass| corrupted.items_for_pass(pass),
                sink,
            )
            .expect("guarded run survives under repair/observe")
        };
        let (plain_est, plain_rep) =
            run_slice_passes(Guarded::new(triangle_algo(7, 150), policy), |pass| {
                corrupted.items_for_pass(pass)
            })
            .expect("plain guarded run");
        let (off_est, off_rep) = run_once(&Metrics::disabled());
        let sink = Metrics::enabled();
        let (on_est, on_rep) = run_once(&sink);
        assert_eq!(plain_est.estimate.to_bits(), off_est.estimate.to_bits());
        assert_eq!(off_est.estimate.to_bits(), on_est.estimate.to_bits());
        assert_eq!(plain_rep.peak_state_bytes, on_rep.peak_state_bytes);
        assert_eq!(off_rep.peak_state_bytes, on_rep.peak_state_bytes);
        let guard = on_rep.guard.expect("guarded run reports stats");
        assert_eq!(off_rep.guard, Some(guard));
        assert!(guard.faults_detected > 0, "plan injected faults");
        // The snapshot sees the same guard stats the report does.
        let snap = sink.snapshot().expect("sink collected");
        assert_eq!(snap.guard, Some(guard));
    }
}

#[test]
fn checkpointed_estimates_record_checkpoint_metrics_without_changing_results() {
    let g = fixture_graph(5);
    let order = StreamOrder::shuffled(g.vertex_count(), 3);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let run = |collect: bool, tag: &str| {
        let path = dir.join(format!("adjstream-obs-ckpt-{tag}-{pid}.ckpt"));
        let est = try_estimate_triangles_checkpointed(
            &g,
            &order,
            50,
            Accuracy {
                collect_metrics: collect,
                ..Accuracy::default()
            },
            &path,
            false,
        )
        .expect("checkpointed estimate");
        std::fs::remove_file(&path).ok();
        est
    };
    let off = run(false, "off");
    let on = run(true, "on");
    assert_eq!(off.count.to_bits(), on.count.to_bits());
    let snap = on.metrics.expect("metrics-on collects");
    assert!(snap.checkpoint.writes > 0, "boundary hook never fired?");
    assert!(snap.checkpoint.write_bytes > 0);
    assert_eq!(snap.checkpoint.restores, 0, "no resume in this run");
}

#[test]
fn snapshot_json_is_schema_versioned_and_single_line() {
    let g = fixture_graph(6);
    let order = StreamOrder::shuffled(g.vertex_count(), 2);
    let est = try_estimate_triangles(
        &g,
        &order,
        50,
        Accuracy {
            collect_metrics: true,
            ..Accuracy::default()
        },
    )
    .expect("estimate");
    let json = est.metrics.expect("metrics collected").to_json();
    assert!(json.starts_with("{\"schema\": 1,"), "{json}");
    assert!(!json.contains('\n'), "must be one line");
    for key in [
        "\"runs\"",
        "\"peak_state_bytes\"",
        "\"passes\"",
        "\"sampler\"",
        "\"guard\"",
        "\"checkpoint\"",
        "\"retry\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Observation parity is not a property of friendly fixtures: on
    /// arbitrary small graphs, any seed, any budget, the observed run
    /// reproduces the plain run bit for bit.
    #[test]
    fn observed_runs_match_plain_runs_on_arbitrary_graphs(
        pairs in prop::collection::vec((0u32..20, 0u32..20), 0..60),
        seed in 0u64..1000,
        budget in 1usize..64,
    ) {
        let mut b = GraphBuilder::new(20);
        for (u, v) in pairs {
            if u != v {
                b.add_edge(u.into(), v.into()).unwrap();
            }
        }
        let g = b.build().unwrap();
        let orders = PassOrders::Same(StreamOrder::shuffled(g.vertex_count(), seed));
        let (plain_est, plain_rep) =
            Runner::try_run(&g, triangle_algo(seed, budget), &orders).expect("plain");
        let sink = Metrics::enabled();
        let source = GraphPasses::new(&g, &orders, 2, true).expect("valid orders");
        let (obs_est, obs_rep) =
            run_slice_passes_observed(triangle_algo(seed, budget), |p| source.items(p), &sink)
                .expect("observed");
        prop_assert_eq!(plain_est.estimate.to_bits(), obs_est.estimate.to_bits());
        prop_assert_eq!(plain_rep.peak_state_bytes, obs_rep.peak_state_bytes);
        prop_assert_eq!(plain_rep.items_processed, obs_rep.items_processed);
        let snap = obs_rep.metrics.expect("observed run carries metrics");
        prop_assert_eq!(snap.peak_state_bytes as usize, plain_rep.peak_state_bytes);
    }
}
