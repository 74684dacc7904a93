//! Corruption tolerance: seeded fault injection, online and in-place
//! validation parity with the offline checker and a reference model,
//! graceful degradation of the two-pass triangle estimator under the guard
//! policies, and an unguarded estimator that survives the streams it is
//! run on before their verdict is known.

use std::collections::{HashMap, HashSet};

#[path = "common/relabel.rs"]
mod relabel;

use adjstream::algo::common::EdgeSampling;
use adjstream::algo::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::{exact, gen, GraphBuilder, VertexId};
use adjstream::stream::trace::ItemTrace;
use adjstream::stream::{
    run_slice_passes, run_slice_passes_observed, run_with_verdict, validate_online, validate_slice,
    validate_stream, AdjListStream, FaultKind, FaultPlan, GuardPolicy, Guarded, Metrics,
    OnlineValidator, RunError, StreamError, StreamItem, StreamOrder, TraceError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relabel::relabel_ids;

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

/// Reference model of the exact online validator: the pending-edge hash
/// map design the sort-based core replaced, kept as an oracle that shares
/// no code with it. Each accepted direction waits in `pending` under its
/// canonical key until the reverse direction removes it.
#[derive(Default)]
struct PendingMapValidator {
    position: usize,
    current: Option<u32>,
    current_seen: HashSet<u32>,
    finished: HashSet<u32>,
    /// Canonical edge → (direction seen first, its position).
    pending: HashMap<u64, (u32, u32, usize)>,
    matched: usize,
}

impl PendingMapValidator {
    fn observe(&mut self, item: StreamItem) -> Result<(), StreamError> {
        let position = self.position;
        self.position += 1;
        let (src, dst) = (item.src.0, item.dst.0);
        if src == dst {
            return Err(StreamError::SelfLoop {
                vertex: item.src,
                position,
            });
        }
        if self.current != Some(src) {
            if let Some(prev) = self.current {
                self.finished.insert(prev);
            }
            self.current_seen.clear();
            if self.finished.contains(&src) {
                self.current = None;
                return Err(StreamError::ListNotContiguous {
                    vertex: item.src,
                    position,
                });
            }
            self.current = Some(src);
        }
        if !self.current_seen.insert(dst) {
            return Err(StreamError::DuplicateNeighbor {
                src: item.src,
                dst: item.dst,
                position,
            });
        }
        let key = (u64::from(src.min(dst)) << 32) | u64::from(src.max(dst));
        if self.pending.remove(&key).is_some() {
            self.matched += 1;
        } else {
            self.pending.insert(key, (src, dst, position));
        }
        Ok(())
    }

    fn unmatched_edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut pending: Vec<(u32, u32, usize)> = self.pending.values().copied().collect();
        pending.sort_by_key(|&(_, _, position)| position);
        pending
            .into_iter()
            .map(|(src, dst, _)| (VertexId(src), VertexId(dst)))
            .collect()
    }

    fn finish(&self) -> Result<usize, StreamError> {
        match self.unmatched_edges().first() {
            Some(&(src, dst)) => Err(StreamError::MissingReverse { src, dst }),
            None => Ok(self.matched),
        }
    }
}

/// The fault plan `fault_ix` picks: one kind of [`FaultKind::ALL`] alone,
/// every kind composed (index `ALL.len()`), or none (beyond that).
fn plan_for(fault_ix: usize, fseed: u64) -> Option<FaultPlan> {
    match FaultKind::ALL.get(fault_ix) {
        Some(&kind) => Some(FaultPlan::new(fseed).with(kind, 1)),
        None if fault_ix == FaultKind::ALL.len() => Some(
            FaultKind::ALL
                .iter()
                .fold(FaultPlan::new(fseed), |plan, &kind| plan.with(kind, 1))
                .with(FaultKind::DropDirection, 3),
        ),
        None => None,
    }
}

/// Each pass's items of `items` corrupted by plan `fault_ix` (see
/// [`plan_for`]), optionally relabelled across the full `u32` range.
fn corrupted_passes(
    items: Vec<StreamItem>,
    fault_ix: usize,
    fseed: u64,
    relabel: Option<u64>,
) -> [Vec<StreamItem>; 2] {
    let passes = match plan_for(fault_ix, fseed).map(|plan| plan.apply(&items)) {
        Some(c) => [0, 1].map(|pass| c.items_for_pass(pass).to_vec()),
        None => [items.clone(), items],
    };
    match relabel {
        // One map for both passes, so a replay relabels like pass 0.
        Some(seed) => {
            let both: Vec<StreamItem> = passes.concat();
            let mapped = relabel_ids(&both, seed);
            let (first, second) = mapped.split_at(passes[0].len());
            [first.to_vec(), second.to_vec()]
        }
        None => passes,
    }
}

/// What [`PendingMapValidator`] decides for a whole stream, stopping at
/// the first rejected item as the offline checkers do.
fn pending_map_verdict(items: &[StreamItem]) -> Result<usize, StreamError> {
    let mut v = PendingMapValidator::default();
    for &item in items {
        v.observe(item)?;
    }
    v.finish()
}

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
        relabel in proptest::prelude::any::<bool>(),
    ) {
        let m = m_raw.min(n * (n - 1) / 2);
        let items = stream_items(n, m, gseed);
        // fault_ix ≥ STREAM_FAULTS.len() leaves the stream clean, so the
        // Ok path is exercised too.
        let corrupted = match STREAM_FAULTS.get(fault_ix) {
            Some(&kind) => FaultPlan::new(fseed).with(kind, 1).apply(&items).items().to_vec(),
            None => items,
        };
        let corrupted = if relabel {
            relabel_ids(&corrupted, gseed ^ fseed)
        } else {
            corrupted
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

    /// The exact online validator matches the pending-map reference model
    /// on every item — accepted, or the same error at the same position,
    /// observing on past rejections as the guard does — then on `finish`
    /// and on the first-appearance order of `unmatched_edges`. A second
    /// pass after `reset` reuses the validator's buffers and must agree
    /// too. Inputs: random graphs, each stream fault alone, a composed
    /// plan, or no fault, optionally relabelled across the full `u32`
    /// range.
    #[test]
    fn online_exact_matches_pending_map_reference(
        n in 8usize..48,
        m_raw in 8usize..160,
        gseed in proptest::prelude::any::<u64>(),
        fseed in proptest::prelude::any::<u64>(),
        fault_ix in 0usize..8,
        relabel in proptest::prelude::any::<bool>(),
    ) {
        let m = m_raw.min(n * (n - 1) / 2);
        let items = stream_items(n, m, gseed);
        let plan = match STREAM_FAULTS.get(fault_ix) {
            Some(&kind) => Some(FaultPlan::new(fseed).with(kind, 1)),
            None if fault_ix == STREAM_FAULTS.len() => Some(
                STREAM_FAULTS
                    .iter()
                    .fold(FaultPlan::new(fseed), |plan, &kind| plan.with(kind, 1))
                    .with(FaultKind::DropDirection, 3),
            ),
            None => None,
        };
        let corrupted = match plan {
            Some(plan) => plan.apply(&items).items().to_vec(),
            None => items,
        };
        let corrupted = if relabel {
            relabel_ids(&corrupted, gseed ^ fseed)
        } else {
            corrupted
        };
        let mut got = OnlineValidator::exact();
        for pass in 0..2 {
            got.reset();
            let mut want = PendingMapValidator::default();
            for (i, &item) in corrupted.iter().enumerate() {
                prop_assert_eq!(got.observe(item), want.observe(item), "pass {} item {}", pass, i);
            }
            prop_assert_eq!(got.finish(), want.finish());
            prop_assert_eq!(got.unmatched_edges(), want.unmatched_edges());
        }
    }

    /// The in-place slice entry decides exactly what the pending-map
    /// reference model and `validate_stream` decide: the same `Ok` edge
    /// count, or the same error variant, payload and position. Inputs:
    /// random graphs under each fault kind alone, all kinds composed, or
    /// no fault, optionally relabelled across the full `u32` range (ids 0
    /// and `u32::MAX` included).
    #[test]
    fn slice_entry_matches_pending_map_reference_and_validate_stream(
        n in 8usize..48,
        m_raw in 8usize..160,
        gseed in any::<u64>(),
        fseed in any::<u64>(),
        fault_ix in 0usize..FaultKind::ALL.len() + 2,
        relabel in any::<bool>(),
    ) {
        let m = m_raw.min(n * (n - 1) / 2);
        let items = stream_items(n, m, gseed);
        let [corrupted, _] =
            corrupted_passes(items, fault_ix, fseed, relabel.then_some(gseed ^ fseed));
        let want = pending_map_verdict(&corrupted);
        prop_assert_eq!(validate_slice(&corrupted), want.clone());
        prop_assert_eq!(validate_stream(corrupted.iter().copied()), want);
    }

    /// The unguarded Theorem 3.7 estimator returns, without panicking, on
    /// every corrupted stream — each fault kind alone, all composed, and
    /// relabelled, replayed per pass as the plan dictates — because the
    /// overlapped `estimate-stream` runs both passes before the verdict is
    /// known. The overlapped run's verdict is the slice entry's.
    #[test]
    fn unguarded_estimator_survives_corrupted_streams(
        n in 8usize..48,
        m_raw in 8usize..160,
        gseed in any::<u64>(),
        fseed in any::<u64>(),
        fault_ix in 0usize..FaultKind::ALL.len() + 2,
        relabel in any::<bool>(),
        k in 1usize..24,
    ) {
        let m = m_raw.min(n * (n - 1) / 2);
        let items = stream_items(n, m, gseed);
        let passes = corrupted_passes(items, fault_ix, fseed, relabel.then_some(gseed ^ fseed));
        let cfg = TwoPassTriangleConfig {
            seed: fseed,
            edge_sampling: EdgeSampling::BottomK { k },
            pair_capacity: k,
        };
        let run = run_slice_passes_observed(
            TwoPassTriangle::new(cfg),
            |pass| &passes[pass][..],
            &Metrics::disabled(),
        );
        prop_assert!(run.is_ok(), "a plain algorithm never aborts: {:?}", run.err());
        let overlapped = run_with_verdict(&passes[0], None, true, || {
            run_slice_passes(TwoPassTriangle::new(cfg), |_pass| &passes[0][..])
        });
        match (overlapped, validate_slice(&passes[0])) {
            (Ok(run), Ok(_)) => prop_assert!(run.is_ok()),
            (Err(TraceError::Invalid(got)), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(false, "verdicts differ: {:?} vs {:?}", got.map(|_| ()), want),
        }
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
