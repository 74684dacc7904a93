//! Deterministic, seed-driven fault injection for adjacency list streams.
//!
//! Robustness claims are only testable if malformed inputs are *replayable*:
//! a [`FaultPlan`] describes which promise violations to inject and is fully
//! determined by a `u64` seed, so any failing case reproduces from two
//! numbers (seed, plan). Plans compose — request several fault kinds and
//! counts — and [`FaultPlan::apply`] returns a [`CorruptedStream`] that
//! records every injection along with the number of validator detections it
//! is expected to cause, so tests can reconcile a
//! [`GuardStats`](crate::runner::GuardStats) against the plan exactly.
//!
//! Faults are applied in a fixed canonical order (truncate, corrupt, drop,
//! duplicate, self-loop, split, reorder) chosen so the expected-detection
//! arithmetic of one fault is not silently altered by another; a fault whose
//! preconditions cannot be met (e.g. splitting when only one list exists) is
//! recorded in [`CorruptedStream::skipped`] rather than injected partially.

use std::collections::{HashMap, HashSet};

use adjstream_graph::VertexId;

use crate::hashing::SplitMix64;
use crate::item::StreamItem;
use crate::runner::{run_slice_passes, MultiPassAlgorithm, RunError, RunReport};
use crate::validate::pack_edge;

/// The classes of promise violation a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Remove one direction of an edge → `MissingReverse` for the survivor.
    DropDirection,
    /// Repeat an item inside its list → `DuplicateNeighbor`.
    DuplicateItem,
    /// Move a list suffix elsewhere in the stream → `ListNotContiguous`,
    /// plus one `MissingReverse` per displaced item once the segment is
    /// dropped.
    SplitList,
    /// Insert `vv` inside `v`'s list → `SelfLoop`.
    InjectSelfLoop,
    /// Rewrite one item's neighbor to a fresh vertex id → two
    /// `MissingReverse` (the orphaned original reverse and the fabricated
    /// edge).
    CorruptVertex,
    /// Drop a run of items from the end of the stream → one
    /// `MissingReverse` per half-dropped edge.
    TruncateTail,
    /// Swap two adjacent lists in the replay used for passes ≥ 2 →
    /// `PassOrderChanged` for order-sensitive algorithms.
    ReorderPass,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::DropDirection => "drop-direction",
            FaultKind::DuplicateItem => "duplicate-item",
            FaultKind::SplitList => "split-list",
            FaultKind::InjectSelfLoop => "self-loop",
            FaultKind::CorruptVertex => "corrupt-vertex",
            FaultKind::TruncateTail => "truncate-tail",
            FaultKind::ReorderPass => "reorder-pass",
        };
        f.write_str(s)
    }
}

impl FaultKind {
    /// Parse the CLI spelling produced by [`Display`](std::fmt::Display).
    pub fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "drop-direction" => FaultKind::DropDirection,
            "duplicate-item" => FaultKind::DuplicateItem,
            "split-list" => FaultKind::SplitList,
            "self-loop" => FaultKind::InjectSelfLoop,
            "corrupt-vertex" => FaultKind::CorruptVertex,
            "truncate-tail" => FaultKind::TruncateTail,
            "reorder-pass" => FaultKind::ReorderPass,
            _ => return None,
        })
    }

    /// Every fault kind, in canonical application order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::TruncateTail,
        FaultKind::CorruptVertex,
        FaultKind::DropDirection,
        FaultKind::DuplicateItem,
        FaultKind::InjectSelfLoop,
        FaultKind::SplitList,
        FaultKind::ReorderPass,
    ];
}

/// A seeded, composable recipe of promise violations.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    counts: HashMap<FaultKind, usize>,
}

impl FaultPlan {
    /// An empty plan drawing all randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            counts: HashMap::new(),
        }
    }

    /// Request `count` more injections of `kind` (builder style).
    pub fn with(mut self, kind: FaultKind, count: usize) -> Self {
        *self.counts.entry(kind).or_insert(0) += count;
        self
    }

    /// The seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of injections requested for `kind`.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total injections requested.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Corrupt `items` (a valid stream) according to the plan.
    pub fn apply(&self, items: &[StreamItem]) -> CorruptedStream {
        Injector::new(self, items.to_vec()).run()
    }
}

/// One successfully injected fault.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// What was injected.
    pub kind: FaultKind,
    /// Detections an exact validator is expected to raise for this fault
    /// (counting the end-of-pass `MissingReverse` cascade of dropped
    /// segments, see the per-kind docs on [`FaultKind`]).
    pub expected_detections: usize,
    /// Human-readable account (vertices/positions involved).
    pub description: String,
}

/// A corrupted stream plus the ledger of what was done to it.
#[derive(Debug, Clone)]
pub struct CorruptedStream {
    items: Vec<StreamItem>,
    reordered: Option<Vec<StreamItem>>,
    injected: Vec<InjectedFault>,
    skipped: Vec<FaultKind>,
}

impl CorruptedStream {
    /// The corrupted item sequence (as seen by pass 1).
    pub fn items(&self) -> &[StreamItem] {
        &self.items
    }

    /// The item sequence replayed in pass `pass` (differs from
    /// [`items`](Self::items) only when a [`FaultKind::ReorderPass`] fault
    /// was injected and `pass ≥ 1`).
    pub fn items_for_pass(&self, pass: usize) -> &[StreamItem] {
        match (&self.reordered, pass) {
            (Some(r), p) if p > 0 => r,
            _ => &self.items,
        }
    }

    /// Ledger of injected faults.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// Requested faults whose preconditions the stream could not meet.
    pub fn skipped(&self) -> &[FaultKind] {
        &self.skipped
    }

    /// Sum of per-fault expected detections.
    pub fn expected_detections(&self) -> usize {
        self.injected.iter().map(|f| f.expected_detections).sum()
    }

    /// Drive `algo` over the corrupted stream (per-pass replay included),
    /// degrading to a typed error rather than panicking.
    pub fn try_run<A: MultiPassAlgorithm>(
        &self,
        algo: A,
    ) -> Result<(A::Output, RunReport), RunError> {
        run_slice_passes(algo, |pass| self.items_for_pass(pass))
    }
}

/// Working state of one `FaultPlan::apply` call.
struct Injector<'p> {
    plan: &'p FaultPlan,
    rng: SplitMix64,
    items: Vec<StreamItem>,
    /// Canonical edges already consumed by drop/corrupt faults.
    used_edges: HashSet<u64>,
    /// List owners already targeted by duplicate/self-loop/split faults.
    touched_lists: HashSet<u32>,
    fresh_id: u32,
    injected: Vec<InjectedFault>,
    skipped: Vec<FaultKind>,
}

impl<'p> Injector<'p> {
    fn new(plan: &'p FaultPlan, items: Vec<StreamItem>) -> Self {
        let fresh_id = items
            .iter()
            .map(|i| i.src.0.max(i.dst.0))
            .max()
            .map_or(0, |m| m.saturating_add(1));
        Injector {
            plan,
            rng: SplitMix64::new(plan.seed),
            items,
            used_edges: HashSet::new(),
            touched_lists: HashSet::new(),
            fresh_id,
            injected: Vec::new(),
            skipped: Vec::new(),
        }
    }

    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.rng.next_u64() % n as u64) as usize
    }

    /// Contiguous runs of equal source: `(owner, start, end_exclusive)`.
    fn lists(&self) -> Vec<(VertexId, usize, usize)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.items.len() {
            let owner = self.items[i].src;
            let start = i;
            while i < self.items.len() && self.items[i].src == owner {
                i += 1;
            }
            out.push((owner, start, i));
        }
        out
    }

    /// How many directions of each canonical edge are currently present.
    fn edge_counts(&self) -> HashMap<u64, usize> {
        let mut c = HashMap::new();
        for it in &self.items {
            *c.entry(pack_edge(it.src, it.dst)).or_insert(0) += 1;
        }
        c
    }

    /// Pick an item index whose edge still has both directions present and
    /// was not already targeted. `None` when no candidate survives 64 draws.
    fn pick_intact_item(&mut self) -> Option<usize> {
        if self.items.is_empty() {
            return None;
        }
        let counts = self.edge_counts();
        for _ in 0..64 {
            let i = self.below(self.items.len());
            let key = pack_edge(self.items[i].src, self.items[i].dst);
            if counts.get(&key) == Some(&2) && !self.used_edges.contains(&key) {
                return Some(i);
            }
        }
        None
    }

    fn run(mut self) -> CorruptedStream {
        for kind in FaultKind::ALL {
            for _ in 0..self.plan.count(kind) {
                let ok = match kind {
                    FaultKind::TruncateTail => self.truncate_tail(),
                    FaultKind::CorruptVertex => self.corrupt_vertex(),
                    FaultKind::DropDirection => self.drop_direction(),
                    FaultKind::DuplicateItem => self.duplicate_item(),
                    FaultKind::InjectSelfLoop => self.inject_self_loop(),
                    FaultKind::SplitList => self.split_list(),
                    FaultKind::ReorderPass => true, // handled after the loop
                };
                if !ok {
                    self.skipped.push(kind);
                }
            }
        }
        let reordered = if self.plan.count(FaultKind::ReorderPass) > 0 {
            self.reorder_replay()
        } else {
            None
        };
        CorruptedStream {
            items: self.items,
            reordered,
            injected: self.injected,
            skipped: self.skipped,
        }
    }

    fn record(&mut self, kind: FaultKind, expected_detections: usize, description: String) {
        self.injected.push(InjectedFault {
            kind,
            expected_detections,
            description,
        });
    }

    fn truncate_tail(&mut self) -> bool {
        if self.items.len() < 2 {
            return false;
        }
        let max_cut = (self.items.len() / 10).max(1);
        let k = 1 + self.below(max_cut);
        let cut = self.items.len() - k;
        self.items.truncate(cut);
        // Half-dropped edges: directions remaining odd after the cut.
        let widowed = self.edge_counts().values().filter(|&&c| c == 1).count();
        self.record(
            FaultKind::TruncateTail,
            widowed,
            format!("truncated {k} tail items ({widowed} edges lost one direction)"),
        );
        true
    }

    fn corrupt_vertex(&mut self) -> bool {
        let Some(i) = self.pick_intact_item() else {
            return false;
        };
        let old = self.items[i];
        let w = VertexId(self.fresh_id);
        self.fresh_id = self.fresh_id.saturating_add(1);
        self.items[i] = StreamItem::new(old.src, w);
        self.used_edges.insert(pack_edge(old.src, old.dst));
        self.used_edges.insert(pack_edge(old.src, w));
        self.record(
            FaultKind::CorruptVertex,
            2,
            format!(
                "item {i}: rewrote {}→{} as {}→{}",
                old.src, old.dst, old.src, w
            ),
        );
        true
    }

    fn drop_direction(&mut self) -> bool {
        let Some(i) = self.pick_intact_item() else {
            return false;
        };
        let victim = self.items.remove(i);
        self.used_edges.insert(pack_edge(victim.src, victim.dst));
        self.record(
            FaultKind::DropDirection,
            1,
            format!("dropped {}→{} (item {i})", victim.src, victim.dst),
        );
        true
    }

    fn duplicate_item(&mut self) -> bool {
        if self.items.is_empty() {
            return false;
        }
        let candidates: Vec<usize> = (0..self.items.len())
            .filter(|&i| !self.touched_lists.contains(&self.items[i].src.0))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let i = candidates[self.below(candidates.len())];
        let copy = self.items[i];
        self.items.insert(i + 1, copy);
        self.touched_lists.insert(copy.src.0);
        self.record(
            FaultKind::DuplicateItem,
            1,
            format!("duplicated {}→{} at item {}", copy.src, copy.dst, i + 1),
        );
        true
    }

    fn inject_self_loop(&mut self) -> bool {
        let lists = self.lists();
        let candidates: Vec<&(VertexId, usize, usize)> = lists
            .iter()
            .filter(|(o, _, _)| !self.touched_lists.contains(&o.0))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let &&(owner, start, end) = &candidates[self.below(candidates.len())];
        // Insert strictly inside or at the end of the run so the run stays
        // one contiguous block of `owner`.
        let pos = start + 1 + self.below(end - start);
        self.items.insert(pos, StreamItem::new(owner, owner));
        self.touched_lists.insert(owner.0);
        self.record(
            FaultKind::InjectSelfLoop,
            1,
            format!("inserted self-loop {owner}→{owner} at item {pos}"),
        );
        true
    }

    fn split_list(&mut self) -> bool {
        let lists = self.lists();
        if lists.len() < 2 {
            return false;
        }
        let last_owner = lists.last().unwrap().0;
        let candidates: Vec<&(VertexId, usize, usize)> = lists
            .iter()
            .filter(|(o, s, e)| e - s >= 2 && !self.touched_lists.contains(&o.0))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let &&(owner, start, end) = &candidates[self.below(candidates.len())];
        let split_at = start + 1 + self.below(end - start - 1);
        let suffix: Vec<StreamItem> = self.items.drain(split_at..end).collect();
        let n = suffix.len();
        // The *resumption* — the segment a repairing guard drops — is
        // whichever part of the list comes second in the corrupted stream.
        let (detect_at, displaced);
        if owner == last_owner {
            // Move the suffix to the front; the original prefix, later in
            // the stream, becomes the non-contiguous resumption.
            detect_at = n + start;
            displaced = split_at - start;
            for (k, it) in suffix.into_iter().enumerate() {
                self.items.insert(k, it);
            }
        } else {
            // Move the suffix to the very end; the suffix is the
            // resumption.
            detect_at = self.items.len();
            displaced = n;
            self.items.extend(suffix);
        }
        self.touched_lists.insert(owner.0);
        // One contiguity detection plus, once the displaced segment is
        // dropped by a repairing guard, one MissingReverse per displaced
        // item whose partner stayed behind.
        self.record(
            FaultKind::SplitList,
            1 + displaced,
            format!("split list of {owner}: {displaced} displaced items, resumption at item {detect_at}"),
        );
        true
    }

    fn reorder_replay(&mut self) -> Option<Vec<StreamItem>> {
        let lists = self.lists();
        if lists.len() < 2 {
            self.skipped.push(FaultKind::ReorderPass);
            return None;
        }
        let i = self.below(lists.len() - 1);
        let (a, b) = (lists[i], lists[i + 1]);
        let mut replay = Vec::with_capacity(self.items.len());
        replay.extend_from_slice(&self.items[..a.1]);
        replay.extend_from_slice(&self.items[b.1..b.2]);
        replay.extend_from_slice(&self.items[a.1..a.2]);
        replay.extend_from_slice(&self.items[b.2..]);
        self.record(
            FaultKind::ReorderPass,
            1,
            format!(
                "passes ≥ 2 replay lists {} and {} swapped (list indices {i}, {})",
                a.0,
                b.0,
                i + 1
            ),
        );
        Some(replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjlist::AdjListStream;
    use crate::order::StreamOrder;
    use crate::validate::{validate_stream, StreamError};
    use adjstream_graph::gen;

    fn clean_items(n: usize, m: usize, seed: u64) -> Vec<StreamItem> {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnm(n, m, &mut rng);
        AdjListStream::new(&g, StreamOrder::shuffled(n, seed ^ 1)).collect_items()
    }

    #[test]
    fn plans_are_replayable() {
        let items = clean_items(20, 60, 3);
        let plan = FaultPlan::new(42)
            .with(FaultKind::DropDirection, 2)
            .with(FaultKind::InjectSelfLoop, 1);
        let a = plan.apply(&items);
        let b = plan.apply(&items);
        assert_eq!(a.items(), b.items());
        assert_eq!(a.injected().len(), b.injected().len());
        assert_eq!(a.injected().len(), 3);
        assert!(a.skipped().is_empty());
    }

    #[test]
    fn different_seeds_give_different_corruption() {
        let items = clean_items(20, 60, 3);
        let a = FaultPlan::new(1)
            .with(FaultKind::DropDirection, 1)
            .apply(&items);
        let b = FaultPlan::new(2)
            .with(FaultKind::DropDirection, 1)
            .apply(&items);
        // Not guaranteed in general, but these seeds pick different items.
        assert_ne!(a.items(), b.items());
    }

    #[test]
    fn empty_plan_is_identity() {
        let items = clean_items(15, 40, 9);
        let c = FaultPlan::new(7).apply(&items);
        assert_eq!(c.items(), &items[..]);
        assert!(c.injected().is_empty());
        assert_eq!(c.expected_detections(), 0);
        assert_eq!(c.items_for_pass(1), c.items());
    }

    #[test]
    fn each_kind_breaks_validation_with_the_right_error() {
        type ErrCheck = fn(&StreamError) -> bool;
        let items = clean_items(24, 70, 11);
        let expect: [(FaultKind, ErrCheck); 5] = [
            (FaultKind::DropDirection, |e| {
                matches!(e, StreamError::MissingReverse { .. })
            }),
            (FaultKind::DuplicateItem, |e| {
                matches!(e, StreamError::DuplicateNeighbor { .. })
            }),
            (FaultKind::SplitList, |e| {
                matches!(e, StreamError::ListNotContiguous { .. })
            }),
            (FaultKind::InjectSelfLoop, |e| {
                matches!(e, StreamError::SelfLoop { .. })
            }),
            (FaultKind::CorruptVertex, |e| {
                matches!(e, StreamError::MissingReverse { .. })
            }),
        ];
        for (kind, check) in expect {
            for seed in 0..5 {
                let c = FaultPlan::new(seed).with(kind, 1).apply(&items);
                assert!(c.skipped().is_empty(), "{kind} skipped at seed {seed}");
                let err = validate_stream(c.items().iter().copied())
                    .expect_err(&format!("{kind} seed {seed} should invalidate"));
                assert!(check(&err), "{kind} seed {seed} gave {err}");
            }
        }
    }

    #[test]
    fn truncate_tail_detections_match_validator() {
        for seed in 0..8 {
            let items = clean_items(18, 50, seed + 100);
            let c = FaultPlan::new(seed)
                .with(FaultKind::TruncateTail, 1)
                .apply(&items);
            let widowed = c.expected_detections();
            // Count unmatched directions directly.
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for it in c.items() {
                *counts.entry(pack_edge(it.src, it.dst)).or_insert(0) += 1;
            }
            let actual = counts.values().filter(|&&v| v == 1).count();
            assert_eq!(widowed, actual, "seed {seed}");
        }
    }

    #[test]
    fn reorder_replay_permutes_lists_only() {
        let items = clean_items(16, 40, 21);
        let c = FaultPlan::new(5)
            .with(FaultKind::ReorderPass, 1)
            .apply(&items);
        assert!(c.skipped().is_empty());
        // Pass 0 untouched; replay is a permutation of the same items.
        assert_eq!(c.items_for_pass(0), &items[..]);
        let replay = c.items_for_pass(1);
        assert_ne!(replay, &items[..]);
        let mut a = items.clone();
        let mut b = replay.to_vec();
        a.sort_by_key(|i| (i.src.0, i.dst.0));
        b.sort_by_key(|i| (i.src.0, i.dst.0));
        assert_eq!(a, b);
        // The replay is still a valid adjacency-list stream on its own.
        assert!(validate_stream(replay.iter().copied()).is_ok());
    }

    #[test]
    fn composed_plans_account_for_all_faults() {
        let items = clean_items(40, 200, 33);
        let plan = FaultPlan::new(77)
            .with(FaultKind::DropDirection, 3)
            .with(FaultKind::DuplicateItem, 2)
            .with(FaultKind::InjectSelfLoop, 2)
            .with(FaultKind::CorruptVertex, 1);
        let c = plan.apply(&items);
        assert!(c.skipped().is_empty());
        assert_eq!(c.injected().len(), 8);
        // 3×1 + 2×1 + 2×1 + 1×2
        assert_eq!(c.expected_detections(), 9);
    }
}
