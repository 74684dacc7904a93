//! Corruption tolerance: seeded fault injection, online validation parity
//! with the offline checker, and graceful degradation of the two-pass
//! triangle estimator under the guard policies.

use std::collections::HashMap;

use adjstream::algo::common::EdgeSampling;
use adjstream::algo::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::{exact, gen, GraphBuilder};
use adjstream::stream::trace::ItemTrace;
use adjstream::stream::{
    run_slice_passes, validate_online, validate_stream, AdjListStream, FaultKind, FaultPlan,
    GuardPolicy, Guarded, OnlineValidator, RunError, StreamItem, StreamOrder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stream_items(n: usize, m: usize, seed: u64) -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnm(n, m, &mut rng);
    AdjListStream::new(&g, StreamOrder::shuffled(n, seed ^ 0xF00D)).collect_items()
}

/// The stream-level fault kinds (everything except `ReorderPass`, which
/// only manifests across passes).
const STREAM_FAULTS: [FaultKind; 6] = [
    FaultKind::DropDirection,
    FaultKind::DuplicateItem,
    FaultKind::SplitList,
    FaultKind::InjectSelfLoop,
    FaultKind::CorruptVertex,
    FaultKind::TruncateTail,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact online validator agrees with the offline reference checker
    /// decision-for-decision — same `Ok` edge count on valid streams, same
    /// error variant, payload, and (earliest detectable) position on
    /// corrupted ones — across random graphs, orders, and fault seeds.
    #[test]
    fn online_exact_matches_offline_validator(
        n in 8usize..48,
        m_raw in 8usize..160,
        gseed in proptest::prelude::any::<u64>(),
        fseed in proptest::prelude::any::<u64>(),
        fault_ix in 0usize..8,
    ) {
        let m = m_raw.min(n * (n - 1) / 2);
        let items = stream_items(n, m, gseed);
        // fault_ix ≥ STREAM_FAULTS.len() leaves the stream clean, so the
        // Ok path is exercised too.
        let corrupted = match STREAM_FAULTS.get(fault_ix) {
            Some(&kind) => FaultPlan::new(fseed).with(kind, 1).apply(&items).items().to_vec(),
            None => items,
        };
        let offline = validate_stream(corrupted.iter().copied());
        let mut v = OnlineValidator::exact();
        let online = validate_online(&mut v, corrupted.iter().copied());
        prop_assert_eq!(offline, online);
    }

    /// Composed multi-fault plans still keep the two validators in
    /// agreement (the first detectable violation wins in both).
    #[test]
    fn online_offline_agree_under_composed_faults(
        gseed in proptest::prelude::any::<u64>(),
        fseed in proptest::prelude::any::<u64>(),
    ) {
        let items = stream_items(30, 100, gseed);
        let corrupted = FaultPlan::new(fseed)
            .with(FaultKind::DropDirection, 2)
            .with(FaultKind::DuplicateItem, 1)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        let offline = validate_stream(corrupted.items().iter().copied());
        let mut v = OnlineValidator::exact();
        let online = validate_online(&mut v, corrupted.items().iter().copied());
        prop_assert!(offline.is_err());
        prop_assert_eq!(offline, online);
    }
}

#[test]
fn strict_policy_rejects_every_fault_class() {
    let items = stream_items(30, 120, 77);
    let cfg = TwoPassTriangleConfig {
        seed: 5,
        edge_sampling: EdgeSampling::Threshold { p: 1.0 },
        pair_capacity: usize::MAX,
    };
    // Every stream-level fault class, plus the cross-pass reorder fault
    // (TwoPassTriangle requires identical pass orders).
    for kind in [
        FaultKind::DropDirection,
        FaultKind::DuplicateItem,
        FaultKind::SplitList,
        FaultKind::InjectSelfLoop,
        FaultKind::CorruptVertex,
        FaultKind::TruncateTail,
        FaultKind::ReorderPass,
    ] {
        for seed in 0..3u64 {
            let c = FaultPlan::new(seed).with(kind, 1).apply(&items);
            assert!(c.skipped().is_empty(), "{kind} skipped at seed {seed}");
            let guarded = Guarded::new(TwoPassTriangle::new(cfg), GuardPolicy::Strict);
            let err = c
                .try_run(guarded)
                .expect_err(&format!("strict guard must reject {kind} (seed {seed})"));
            assert!(
                matches!(err, RunError::Invalid { .. }),
                "{kind} seed {seed}: {err:?}"
            );
        }
    }
    // And the clean stream sails through.
    let guarded = Guarded::new(TwoPassTriangle::new(cfg), GuardPolicy::Strict);
    let (_, report) = run_slice_passes(guarded, |_| &items[..]).unwrap();
    assert_eq!(report.guard.unwrap().faults_detected, 0);
}

#[test]
fn repair_policy_degrades_gracefully_under_edge_drops() {
    // 20 disjoint K10s: 2400 triangles over 900 edges, so each dropped
    // edge costs exactly the 8 triangles through it (≤ 1% total here).
    let g = gen::disjoint_cliques(10, 20);
    let truth = exact::count_triangles(&g) as f64;
    let items = AdjListStream::new(&g, StreamOrder::shuffled(g.vertex_count(), 5)).collect_items();
    let drops = 3;
    let c = FaultPlan::new(11)
        .with(FaultKind::DropDirection, drops)
        .apply(&items);
    assert!(c.skipped().is_empty());
    let cfg = TwoPassTriangleConfig {
        seed: 9,
        edge_sampling: EdgeSampling::Threshold { p: 1.0 },
        pair_capacity: usize::MAX,
    };
    let guarded = Guarded::new(TwoPassTriangle::new(cfg), GuardPolicy::Repair);
    let (est, report) = c.try_run(guarded).unwrap();

    // Accounting: every injected fault shows up in the report, nothing else.
    let stats = report.guard.unwrap();
    assert_eq!(stats.faults_detected, drops);
    assert_eq!(stats.faults_detected, c.expected_detections());
    assert_eq!(stats.edges_quarantined, drops);
    assert_eq!(stats.items_repaired, 0); // missing reverses are not item drops
    assert!(stats.validator_peak_bytes > 0);

    // Accuracy: the repaired run sees the graph minus the dropped edges, so
    // at full budget the estimate must land between that graph's exact
    // count and the original truth — well within 2ε for ε = 5%.
    let mut dir: HashMap<u64, usize> = HashMap::new();
    for it in c.items() {
        let (a, b) = (it.src.0.min(it.dst.0), it.src.0.max(it.dst.0));
        *dir.entry(((a as u64) << 32) | b as u64).or_insert(0) += 1;
    }
    let surviving = dir
        .iter()
        .filter(|&(_, &cnt)| cnt == 2)
        .map(|(&key, _)| ((key >> 32) as u32, key as u32));
    let repaired = GraphBuilder::from_edges(g.vertex_count(), surviving).unwrap();
    let repaired_truth = exact::count_triangles(&repaired) as f64;
    assert!(repaired_truth < truth);
    let rel = (est.estimate - truth).abs() / truth;
    assert!(
        rel <= 0.10,
        "estimate {} vs truth {truth} (rel {rel})",
        est.estimate
    );
    assert!(
        est.estimate >= repaired_truth - 1e-9 && est.estimate <= truth + 1e-9,
        "estimate {} outside [{repaired_truth}, {truth}]",
        est.estimate
    );
}

#[test]
fn observe_policy_reports_without_altering_the_run() {
    let items = stream_items(40, 160, 21);
    let c = FaultPlan::new(13)
        .with(FaultKind::DuplicateItem, 2)
        .with(FaultKind::InjectSelfLoop, 1)
        .apply(&items);
    assert!(c.skipped().is_empty());
    let cfg = TwoPassTriangleConfig {
        seed: 3,
        edge_sampling: EdgeSampling::Threshold { p: 1.0 },
        pair_capacity: usize::MAX,
    };
    let guarded = Guarded::new(TwoPassTriangle::new(cfg), GuardPolicy::Observe);
    let (_, report) = c.try_run(guarded).unwrap();
    let stats = report.guard.unwrap();
    assert_eq!(stats.faults_detected, c.expected_detections());
    assert_eq!(stats.items_repaired, 0);
    assert_eq!(stats.edges_quarantined, 0);
}

#[test]
fn malformed_input_never_panics_through_the_fallible_paths() {
    // A grab-bag of hostile streams: none may panic, all must produce a
    // typed error (or a clean repair) through try_run.
    let hostile: Vec<Vec<StreamItem>> = vec![
        vec![],
        ItemTrace::read_unchecked("0 0\n".as_bytes())
            .unwrap()
            .items()
            .to_vec(),
        ItemTrace::read_unchecked("0 1\n0 1\n0 1\n".as_bytes())
            .unwrap()
            .items()
            .to_vec(),
        ItemTrace::read_unchecked("0 1\n1 0\n0 2\n2 0\n".as_bytes())
            .unwrap()
            .items()
            .to_vec(),
        ItemTrace::read_unchecked("4294967295 0\n".as_bytes())
            .unwrap()
            .items()
            .to_vec(),
    ];
    let cfg = TwoPassTriangleConfig {
        seed: 1,
        edge_sampling: EdgeSampling::Threshold { p: 1.0 },
        pair_capacity: usize::MAX,
    };
    for (i, items) in hostile.into_iter().enumerate() {
        for policy in [
            GuardPolicy::Strict,
            GuardPolicy::Repair,
            GuardPolicy::Observe,
        ] {
            let guarded = Guarded::new(TwoPassTriangle::new(cfg), policy);
            // Err is fine; panicking is not.
            let _ = run_slice_passes(guarded, |_| &items[..]);
            let _ = (i, policy);
        }
    }
}
