//! Deterministic, seed-driven fault injection.
//!
//! Robustness claims are only testable if malformed inputs are *replayable*:
//! a [`Plan`] describes which violations to inject and is fully determined
//! by a `u64` seed, so any failing case reproduces from two numbers (seed,
//! plan). Plans compose — request several fault kinds and counts — and
//! `apply` returns a [`Corrupted`] stream that records every injection
//! along with the number of detections it is expected to cause, so tests
//! can reconcile a guard's counters against the plan exactly.
//!
//! One core serves two kind sets. [`FaultKind`] breaks the adjacency-list
//! promise of item streams ([`FaultPlan`], reconciled against
//! [`GuardStats`](crate::runner::GuardStats)); [`UpdateFaultKind`] breaks
//! the live-edge and timestamp semantics of update streams
//! ([`UpdateFaultPlan`](crate::update_fault::UpdateFaultPlan), reconciled
//! against [`UpdateGuardStats`](crate::update_guard::UpdateGuardStats)).
//! The plan, the ledger and the injector's run loop are shared; each kind
//! set supplies only its seven injection steps.
//!
//! Faults are applied in a fixed canonical order (each kind set's `ALL`)
//! chosen so the expected-detection arithmetic of one fault is not silently
//! altered by another; a fault whose preconditions cannot be met (e.g.
//! splitting when only one list exists) is recorded in
//! [`Corrupted::skipped`] rather than injected partially.
//!
//! [`UpdateFaultKind`]: crate::update_fault::UpdateFaultKind

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

use adjstream_graph::VertexId;

use crate::hashing::SplitMix64;
use crate::item::StreamItem;
use crate::runner::{list_runs, run_slice_passes, MultiPassAlgorithm, RunError, RunReport};
use crate::validate::pack_edge;

/// A set of fault kinds over one stream element type.
pub trait FaultKindSet: Copy + Eq + Hash + Debug + 'static {
    /// The element a plan corrupts: a stream item or an update event.
    type Item: Clone + Debug;
    /// Where the ledger locates a fault for a guard: `()` when it does not.
    type Position: Copy + Debug;
    /// Every kind, in canonical application order.
    const KINDS: &'static [Self];
}

/// A seeded, composable recipe of faults from one kind set.
#[derive(Debug, Clone)]
pub struct Plan<K> {
    seed: u64,
    counts: HashMap<K, usize>,
}

impl<K: FaultKindSet> Plan<K> {
    /// An empty plan drawing all randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Plan {
            seed,
            counts: HashMap::new(),
        }
    }

    /// Request `count` more injections of `kind` (builder style).
    pub fn with(mut self, kind: K, count: usize) -> Self {
        *self.counts.entry(kind).or_insert(0) += count;
        self
    }

    /// The seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of injections requested for `kind`.
    pub fn count(&self, kind: K) -> usize {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total injections requested.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }
}

/// One successfully injected fault.
#[derive(Debug, Clone)]
pub struct Injected<K: FaultKindSet> {
    /// What was injected.
    pub kind: K,
    /// Where a guard detects the violation: the 0-based event position in
    /// final coordinates for update faults, `()` for item faults.
    pub position: K::Position,
    /// Detections a guard is expected to raise for this fault (for item
    /// faults, counting the end-of-pass `MissingReverse` cascade of dropped
    /// segments; see the per-kind docs).
    pub expected_detections: usize,
    /// Human-readable account (vertices/edges/positions involved).
    pub description: String,
}

/// A corrupted stream plus the ledger of what was done to it.
#[derive(Debug, Clone)]
pub struct Corrupted<K: FaultKindSet> {
    items: Vec<K::Item>,
    replay: Option<Vec<K::Item>>,
    injected: Vec<Injected<K>>,
    skipped: Vec<K>,
}

impl<K: FaultKindSet> Corrupted<K> {
    /// The corrupted sequence (as seen by the first pass).
    pub fn items(&self) -> &[K::Item] {
        &self.items
    }

    /// Ledger of injected faults.
    pub fn injected(&self) -> &[Injected<K>] {
        &self.injected
    }

    /// Requested faults whose preconditions the stream could not meet.
    pub fn skipped(&self) -> &[K] {
        &self.skipped
    }

    /// Sum of per-fault expected detections.
    pub fn expected_detections(&self) -> usize {
        self.injected.iter().map(|f| f.expected_detections).sum()
    }
}

/// Working state of one `apply` call: the generator, the sequence being
/// corrupted and the ledger. Each kind set adds its injection steps as an
/// `impl Injector<Kind>` block.
pub(crate) struct Injector<K: FaultKindSet> {
    rng: SplitMix64,
    pub(crate) items: Vec<K::Item>,
    /// The sequence later passes replay, when a fault rewrote it.
    pub(crate) replay: Option<Vec<K::Item>>,
    /// Canonical edges already consumed by a fault; injections never share
    /// an edge, which keeps each fault's detection count independent.
    pub(crate) used_edges: HashSet<u64>,
    /// What faults already rely on: list owners for item faults, event
    /// positions (final coordinates) for update faults.
    pub(crate) touched: HashSet<usize>,
    fresh_id: u32,
    pub(crate) injected: Vec<Injected<K>>,
    skipped: Vec<K>,
}

impl<K: FaultKindSet> Injector<K> {
    /// Corrupt `items` from `seed`; fresh vertex ids start above
    /// `max_vertex`.
    pub(crate) fn new(seed: u64, items: Vec<K::Item>, max_vertex: Option<u32>) -> Self {
        Injector {
            rng: SplitMix64::new(seed),
            items,
            replay: None,
            used_edges: HashSet::new(),
            touched: HashSet::new(),
            fresh_id: max_vertex.map_or(0, |m| m.saturating_add(1)),
            injected: Vec::new(),
            skipped: Vec::new(),
        }
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.rng.next_u64() % n as u64) as usize
    }

    pub(crate) fn pick<T: Copy>(&mut self, candidates: &[T]) -> Option<T> {
        (!candidates.is_empty()).then(|| candidates[self.below(candidates.len())])
    }

    /// A vertex id no item of the input uses.
    pub(crate) fn fresh_vertex(&mut self) -> VertexId {
        let v = VertexId(self.fresh_id);
        self.fresh_id = self.fresh_id.saturating_add(1);
        v
    }

    pub(crate) fn record(
        &mut self,
        kind: K,
        position: K::Position,
        expected_detections: usize,
        description: String,
    ) {
        self.injected.push(Injected {
            kind,
            position,
            expected_detections,
            description,
        });
    }

    /// Run `plan` in canonical order. `step(injector, kind, nth)` performs
    /// the `nth` requested injection of `kind` and returns false when the
    /// stream cannot host it.
    pub(crate) fn run(
        mut self,
        plan: &Plan<K>,
        mut step: impl FnMut(&mut Self, K, usize) -> bool,
    ) -> Corrupted<K> {
        for &kind in K::KINDS {
            for nth in 0..plan.count(kind) {
                if !step(&mut self, kind, nth) {
                    self.skipped.push(kind);
                }
            }
        }
        Corrupted {
            items: self.items,
            replay: self.replay,
            injected: self.injected,
            skipped: self.skipped,
        }
    }
}

named_enum! {
    /// The classes of adjacency-list promise violation a [`FaultPlan`] can
    /// inject, in canonical application order.
    pub enum FaultKind {
        /// Drop a run of items from the end of the stream → one
        /// `MissingReverse` per half-dropped edge.
        TruncateTail = "truncate-tail",
        /// Rewrite one item's neighbor to a fresh vertex id → two
        /// `MissingReverse` (the orphaned original reverse and the fabricated
        /// edge).
        CorruptVertex = "corrupt-vertex",
        /// Remove one direction of an edge → `MissingReverse` for the survivor.
        DropDirection = "drop-direction",
        /// Repeat an item inside its list → `DuplicateNeighbor`.
        DuplicateItem = "duplicate-item",
        /// Insert `vv` inside `v`'s list → `SelfLoop`.
        InjectSelfLoop = "self-loop",
        /// Move a list suffix elsewhere in the stream → `ListNotContiguous`,
        /// plus one `MissingReverse` per displaced item once the segment is
        /// dropped.
        SplitList = "split-list",
        /// Swap two adjacent lists in the replay used for passes ≥ 2 →
        /// `PassOrderChanged` for order-sensitive algorithms. A plan swaps
        /// one pair however many reorders it requests.
        ReorderPass = "reorder-pass",
    }
}

impl FaultKindSet for FaultKind {
    type Item = StreamItem;
    type Position = ();
    const KINDS: &'static [Self] = &FaultKind::ALL;
}

/// A seeded, composable recipe of promise violations.
pub type FaultPlan = Plan<FaultKind>;
/// One injected promise violation.
pub type InjectedFault = Injected<FaultKind>;
/// A corrupted item stream plus its fault ledger.
pub type CorruptedStream = Corrupted<FaultKind>;

impl Plan<FaultKind> {
    /// Corrupt `items` (a valid stream) according to the plan.
    pub fn apply(&self, items: &[StreamItem]) -> CorruptedStream {
        let max_vertex = items.iter().map(|i| i.src.0.max(i.dst.0)).max();
        Injector::new(self.seed, items.to_vec(), max_vertex).run(
            self,
            |inj, kind, nth| match kind {
                FaultKind::TruncateTail => inj.truncate_tail(),
                FaultKind::CorruptVertex => inj.corrupt_vertex(),
                FaultKind::DropDirection => inj.drop_direction(),
                FaultKind::DuplicateItem => inj.duplicate_item(),
                FaultKind::InjectSelfLoop => inj.inject_self_loop(),
                FaultKind::SplitList => inj.split_list(),
                FaultKind::ReorderPass => nth > 0 || inj.reorder_replay(),
            },
        )
    }
}

impl Corrupted<FaultKind> {
    /// The item sequence replayed in pass `pass` (differs from
    /// [`items`](Self::items) only when a [`FaultKind::ReorderPass`] fault
    /// was injected and `pass ≥ 1`).
    pub fn items_for_pass(&self, pass: usize) -> &[StreamItem] {
        match (&self.replay, pass) {
            (Some(r), p) if p > 0 => r,
            _ => &self.items,
        }
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

impl Injector<FaultKind> {
    /// Contiguous runs of equal source: `(owner, start, end_exclusive)`.
    fn lists(&self) -> Vec<(VertexId, usize, usize)> {
        list_runs(&self.items)
            .map(|run| (self.items[run.start].src, run.start, run.end))
            .collect()
    }

    /// Lists no duplicate/self-loop/split fault has targeted yet.
    fn untouched_lists(&self) -> Vec<(VertexId, usize, usize)> {
        let mut lists = self.lists();
        lists.retain(|(o, _, _)| !self.touched.contains(&(o.0 as usize)));
        lists
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
            (),
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
        let w = self.fresh_vertex();
        self.items[i] = StreamItem::new(old.src, w);
        self.used_edges.insert(pack_edge(old.src, old.dst));
        self.used_edges.insert(pack_edge(old.src, w));
        self.record(
            FaultKind::CorruptVertex,
            (),
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
            (),
            1,
            format!("dropped {}→{} (item {i})", victim.src, victim.dst),
        );
        true
    }

    fn duplicate_item(&mut self) -> bool {
        let candidates: Vec<usize> = (0..self.items.len())
            .filter(|&i| !self.touched.contains(&(self.items[i].src.0 as usize)))
            .collect();
        let Some(i) = self.pick(&candidates) else {
            return false;
        };
        let copy = self.items[i];
        self.items.insert(i + 1, copy);
        self.touched.insert(copy.src.0 as usize);
        self.record(
            FaultKind::DuplicateItem,
            (),
            1,
            format!("duplicated {}→{} at item {}", copy.src, copy.dst, i + 1),
        );
        true
    }

    fn inject_self_loop(&mut self) -> bool {
        let Some((owner, start, end)) = self.pick(&self.untouched_lists()) else {
            return false;
        };
        // Insert strictly inside or at the end of the run so the run stays
        // one contiguous block of `owner`.
        let pos = start + 1 + self.below(end - start);
        self.items.insert(pos, StreamItem::new(owner, owner));
        self.touched.insert(owner.0 as usize);
        self.record(
            FaultKind::InjectSelfLoop,
            (),
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
        let mut candidates = self.untouched_lists();
        candidates.retain(|(_, s, e)| e - s >= 2);
        let Some((owner, start, end)) = self.pick(&candidates) else {
            return false;
        };
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
            self.items.splice(0..0, suffix);
        } else {
            // Move the suffix to the very end; the suffix is the
            // resumption.
            detect_at = self.items.len();
            displaced = n;
            self.items.extend(suffix);
        }
        self.touched.insert(owner.0 as usize);
        // One contiguity detection plus, once the displaced segment is
        // dropped by a repairing guard, one MissingReverse per displaced
        // item whose partner stayed behind.
        self.record(
            FaultKind::SplitList,
            (),
            1 + displaced,
            format!("split list of {owner}: {displaced} displaced items, resumption at item {detect_at}"),
        );
        true
    }

    fn reorder_replay(&mut self) -> bool {
        let lists = self.lists();
        if lists.len() < 2 {
            return false;
        }
        let i = self.below(lists.len() - 1);
        let (a, b) = (lists[i], lists[i + 1]);
        let mut replay = Vec::with_capacity(self.items.len());
        replay.extend_from_slice(&self.items[..a.1]);
        replay.extend_from_slice(&self.items[b.1..b.2]);
        replay.extend_from_slice(&self.items[a.1..a.2]);
        replay.extend_from_slice(&self.items[b.2..]);
        self.replay = Some(replay);
        self.record(
            FaultKind::ReorderPass,
            (),
            1,
            format!(
                "passes ≥ 2 replay lists {} and {} swapped (list indices {i}, {})",
                a.0,
                b.0,
                i + 1
            ),
        );
        true
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
