//! The update-stream fault kinds: seven injection steps over insert/delete
//! events, run by the shared core in [`crate::fault`].
//!
//! An [`UpdateFaultPlan`] injects update-semantics violations — deletions
//! of dead edges, duplicate insertions, timestamp regressions, flipped ops,
//! corrupted endpoints — into a *valid* event sequence. Every injection is
//! recorded with the event position where a guard must detect it, so tests
//! can reconcile [`UpdateGuardStats`](crate::update_guard::UpdateGuardStats)
//! against the plan exactly.
//!
//! Each injection is *self-contained*: targets are chosen so one fault's
//! expected-detection arithmetic is not altered by another (e.g. an op flip
//! only targets the last event of its edge, so no downstream event of that
//! edge turns invalid as a side effect), and every fault expects exactly
//! one detection.

use std::collections::HashMap;

use adjstream_graph::EdgeKey;

use crate::fault::{Corrupted, FaultKindSet, Injected, Injector, Plan};
use crate::update::{UpdateEvent, UpdateOp, UpdateStream};

named_enum! {
    /// The classes of update-semantics violation an [`UpdateFaultPlan`] can
    /// inject, in canonical application order: kinds that insert or rewrite
    /// events first (positions still shift), then the order/timestamp kinds
    /// over the settled layout.
    pub enum UpdateFaultKind {
        /// Re-delete an edge right after a valid deletion → one `DeadDelete`.
        DeleteDead = "delete-dead",
        /// Repeat an insertion right after the original → one
        /// `DuplicateInsert`.
        DuplicateInsert = "duplicate-insert",
        /// Delete an edge no event ever inserted → one `DeadDelete`.
        OrphanDelete = "orphan-delete",
        /// Flip the op of its edge's last event: the flipped insert deletes a
        /// dead edge, the flipped delete re-inserts a live one → one detection
        /// either way.
        OpFlip = "op-flip",
        /// Rewrite one endpoint of its edge's last deletion to a fresh vertex
        /// → one `DeadDelete` (the rewritten edge was never live).
        CorruptEndpoint = "corrupt-endpoint",
        /// Swap two adjacent events with strictly increasing timestamps (and
        /// distinct edges) → one `TimestampRegression` at the later position.
        SwapAdjacent = "swap-adjacent",
        /// Rewrite one event's timestamp below its predecessor's → one
        /// `TimestampRegression`.
        TimestampRegression = "ts-regression",
    }
}

impl FaultKindSet for UpdateFaultKind {
    type Item = UpdateEvent;
    type Position = usize;
    const KINDS: &'static [Self] = &UpdateFaultKind::ALL;
}

/// A seeded, composable recipe of update-stream violations.
pub type UpdateFaultPlan = Plan<UpdateFaultKind>;
/// One injected update fault; `position` is where a guard detects it.
pub type InjectedUpdateFault = Injected<UpdateFaultKind>;
/// A corrupted event sequence plus its fault ledger.
///
/// Unlike [`UpdateStream`], the events here may violate every invariant the
/// stream type enforces — that is the point — so they are exposed as a raw
/// slice for [`crate::update_guard::GuardedUpdate`] to vet.
pub type CorruptedUpdateStream = Corrupted<UpdateFaultKind>;

impl Plan<UpdateFaultKind> {
    /// Corrupt a valid update stream according to the plan.
    pub fn apply(&self, stream: &UpdateStream) -> CorruptedUpdateStream {
        let events = stream.events().to_vec();
        let max_vertex = events.iter().map(|e| e.edge.hi().0).max();
        Injector::new(self.seed(), events, max_vertex).run(self, |inj, kind, _| match kind {
            UpdateFaultKind::DeleteDead => inj.repeat_event(UpdateOp::Delete),
            UpdateFaultKind::DuplicateInsert => inj.repeat_event(UpdateOp::Insert),
            UpdateFaultKind::OrphanDelete => inj.orphan_delete(),
            UpdateFaultKind::OpFlip => inj.op_flip(),
            UpdateFaultKind::CorruptEndpoint => inj.corrupt_endpoint(),
            UpdateFaultKind::SwapAdjacent => inj.swap_adjacent(),
            UpdateFaultKind::TimestampRegression => inj.ts_regression(),
        })
    }
}

impl Corrupted<UpdateFaultKind> {
    /// The corrupted event sequence.
    pub fn events(&self) -> &[UpdateEvent] {
        self.items()
    }

    /// Position of the earliest injected violation, `None` when the plan
    /// injected nothing — where a strict guard must stop.
    pub fn first_position(&self) -> Option<usize> {
        self.injected().iter().map(|f| f.position).min()
    }
}

impl Injector<UpdateFaultKind> {
    /// 0-based index of the last event touching each edge.
    fn last_occurrence(&self) -> HashMap<u64, usize> {
        let mut last = HashMap::new();
        for (i, ev) in self.items.iter().enumerate() {
            last.insert(ev.edge.pack(), i);
        }
        last
    }

    /// Indices of events whose edge no fault has consumed and that pass
    /// `keep`.
    fn unused_events(&self, keep: impl Fn(usize, &UpdateEvent) -> bool) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| {
                let ev = &self.items[i];
                !self.used_edges.contains(&ev.edge.pack()) && keep(i, ev)
            })
            .collect()
    }

    /// Insert `ev` at `at`, shifting previously recorded positions.
    fn insert_event(&mut self, at: usize, ev: UpdateEvent) {
        self.items.insert(at, ev);
        for f in &mut self.injected {
            if f.position >= at {
                f.position += 1;
            }
        }
    }

    /// Repeat a valid event of `op` right after the original: a repeated
    /// deletion targets an edge that just died, a repeated insertion one
    /// already live.
    fn repeat_event(&mut self, op: UpdateOp) -> bool {
        let candidates = self.unused_events(|_, ev| ev.op == op);
        let Some(i) = self.pick(&candidates) else {
            return false;
        };
        let original = self.items[i];
        self.used_edges.insert(original.edge.pack());
        self.insert_event(i + 1, original);
        let (kind, what) = match op {
            UpdateOp::Delete => (UpdateFaultKind::DeleteDead, "re-deleted dead"),
            UpdateOp::Insert => (UpdateFaultKind::DuplicateInsert, "re-inserted live"),
        };
        self.record(
            kind,
            i + 1,
            1,
            format!("{what} edge {} at event {}", original.edge, i + 1),
        );
        true
    }

    /// Delete an edge built from fresh vertex ids — never inserted.
    fn orphan_delete(&mut self) -> bool {
        if self.items.is_empty() {
            return false;
        }
        let at = self.below(self.items.len());
        let ts = self.items[at].ts;
        let (u, v) = (self.fresh_vertex(), self.fresh_vertex());
        let edge = EdgeKey::new(u, v);
        self.used_edges.insert(edge.pack());
        self.insert_event(
            at,
            UpdateEvent {
                op: UpdateOp::Delete,
                edge,
                ts,
            },
        );
        self.record(
            UpdateFaultKind::OrphanDelete,
            at,
            1,
            format!("deleted never-inserted edge {edge} at event {at}"),
        );
        true
    }

    /// Flip the op of an edge's *last* event, so no downstream event of the
    /// same edge is invalidated as a side effect.
    fn op_flip(&mut self) -> bool {
        let last = self.last_occurrence();
        let candidates = self.unused_events(|i, ev| last.get(&ev.edge.pack()) == Some(&i));
        let Some(i) = self.pick(&candidates) else {
            return false;
        };
        let old_op = self.items[i].op;
        self.items[i].op = match old_op {
            UpdateOp::Insert => UpdateOp::Delete,
            UpdateOp::Delete => UpdateOp::Insert,
        };
        let edge = self.items[i].edge;
        self.used_edges.insert(edge.pack());
        self.record(
            UpdateFaultKind::OpFlip,
            i,
            1,
            format!(
                "flipped {old_op} {edge} to {} at event {i}",
                self.items[i].op
            ),
        );
        true
    }

    /// Rewrite one endpoint of an edge's last deletion to a fresh vertex:
    /// the rewritten edge was never live, and the true edge (left live by
    /// the lost deletion) has no later events to invalidate.
    fn corrupt_endpoint(&mut self) -> bool {
        let last = self.last_occurrence();
        let candidates = self.unused_events(|i, ev| {
            ev.op == UpdateOp::Delete && last.get(&ev.edge.pack()) == Some(&i)
        });
        let Some(i) = self.pick(&candidates) else {
            return false;
        };
        let old = self.items[i].edge;
        let corrupted = EdgeKey::new(old.lo(), self.fresh_vertex());
        self.items[i].edge = corrupted;
        self.used_edges.insert(old.pack());
        self.used_edges.insert(corrupted.pack());
        self.record(
            UpdateFaultKind::CorruptEndpoint,
            i,
            1,
            format!("rewrote delete {old} as {corrupted} at event {i}"),
        );
        true
    }

    /// Swap adjacent events with strictly increasing timestamps and
    /// distinct edges: one regression at the later slot, no semantic
    /// violation.
    fn swap_adjacent(&mut self) -> bool {
        let candidates: Vec<usize> = (0..self.items.len().saturating_sub(1))
            .filter(|&i| {
                let (a, b) = (self.items[i], self.items[i + 1]);
                a.ts < b.ts
                    && a.edge != b.edge
                    && !self.used_edges.contains(&a.edge.pack())
                    && !self.used_edges.contains(&b.edge.pack())
                    && !(i.saturating_sub(1)..=i + 2).any(|p| self.touched.contains(&p))
            })
            .collect();
        let Some(i) = self.pick(&candidates) else {
            return false;
        };
        self.items.swap(i, i + 1);
        self.touched.extend(i.saturating_sub(1)..=i + 2);
        self.record(
            UpdateFaultKind::SwapAdjacent,
            i + 1,
            1,
            format!("swapped events {i} and {} (timestamps regress)", i + 1),
        );
        true
    }

    /// Rewrite one event's timestamp to just below its predecessor's. The
    /// successor's timestamp is at least the predecessor's (valid input),
    /// so exactly one regression appears.
    fn ts_regression(&mut self) -> bool {
        let candidates: Vec<usize> = (1..self.items.len())
            .filter(|&i| {
                self.items[i - 1].ts >= 1
                    && self.items[i].ts >= self.items[i - 1].ts
                    && !(i - 1..=i + 1).any(|p| self.touched.contains(&p))
            })
            .collect();
        let Some(i) = self.pick(&candidates) else {
            return false;
        };
        let previous = self.items[i - 1].ts;
        let old = self.items[i].ts;
        self.items[i].ts = previous - 1;
        self.touched.extend(i - 1..=i + 1);
        self.record(
            UpdateFaultKind::TimestampRegression,
            i,
            1,
            format!("event {i}: timestamp {old} rewritten to {}", previous - 1),
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{churn, ChurnConfig};
    use adjstream_graph::gen;

    fn base_stream(seed: u64) -> UpdateStream {
        let g = gen::disjoint_cliques(4, 6);
        churn(
            &g,
            &ChurnConfig {
                churn_events: 120,
                delete_fraction: 0.6,
                seed,
            },
        )
    }

    #[test]
    fn plans_are_replayable() {
        let s = base_stream(3);
        let plan = UpdateFaultPlan::new(42)
            .with(UpdateFaultKind::DeleteDead, 2)
            .with(UpdateFaultKind::OpFlip, 1);
        let a = plan.apply(&s);
        let b = plan.apply(&s);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.injected().len(), 3);
        assert!(a.skipped().is_empty());
        assert_eq!(a.expected_detections(), 3);
    }

    #[test]
    fn empty_plan_is_identity() {
        let s = base_stream(9);
        let c = UpdateFaultPlan::new(7).apply(&s);
        assert_eq!(c.events(), s.events());
        assert!(c.injected().is_empty());
        assert_eq!(c.first_position(), None);
    }

    #[test]
    fn every_kind_injects_on_a_churn_stream() {
        let s = base_stream(11);
        for kind in UpdateFaultKind::ALL {
            for seed in 0..5 {
                let c = UpdateFaultPlan::new(seed).with(kind, 1).apply(&s);
                assert!(c.skipped().is_empty(), "{kind} skipped at seed {seed}");
                assert_eq!(c.injected().len(), 1, "{kind}");
                assert_eq!(c.expected_detections(), 1, "{kind}");
            }
        }
    }

    #[test]
    fn display_parse_round_trip() {
        for kind in UpdateFaultKind::ALL {
            assert_eq!(UpdateFaultKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(UpdateFaultKind::parse("no-such-fault"), None);
    }

    #[test]
    fn composed_plans_account_for_all_faults() {
        let s = base_stream(21);
        let plan = UpdateFaultPlan::new(77)
            .with(UpdateFaultKind::DeleteDead, 2)
            .with(UpdateFaultKind::DuplicateInsert, 2)
            .with(UpdateFaultKind::OrphanDelete, 1)
            .with(UpdateFaultKind::SwapAdjacent, 1);
        let c = plan.apply(&s);
        assert!(c.skipped().is_empty());
        assert_eq!(c.injected().len(), 6);
        assert_eq!(c.expected_detections(), 6);
        // Recorded positions point at the injected violations in final
        // coordinates.
        let first = c.first_position().unwrap();
        assert!(first < c.events().len());
    }
}
