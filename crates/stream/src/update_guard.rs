//! Guarded update ingestion: online validation of insert/delete streams
//! with an explicit degradation policy.
//!
//! The dynamic counterpart of [`crate::guard`]. TRIÈST-FD is *tolerant* of
//! invalid deletions — a delete of a dead edge silently becomes `d_o` debt,
//! skewing `p₃` forever after — which is exactly why it must never see one
//! un-vetted. [`GuardedUpdate`] wraps any [`UpdateAlgorithm`] and replays
//! graph semantics alongside it (the live-edge set plus the timestamp
//! high-water mark), classifying every event before it is forwarded:
//!
//! * **Strict** — the first violation poisons the guard: a typed
//!   [`UpdateViolation`] (with the 0-based event position) is returned and
//!   nothing further reaches the inner algorithm.
//! * **Repair** — semantic violations (duplicate insert, dead delete) are
//!   dropped; timestamp regressions are clamped to the high-water mark and
//!   the event is applied. The inner algorithm sees a valid stream.
//! * **Observe** — violations are counted but every event is forwarded
//!   verbatim; the inner algorithm's tolerance is on its own.
//!
//! The rule is `GuardPolicy::decide`, shared with the static guard.
//! Each event is checked twice, independently: its timestamp against the
//! high-water mark, then its op against the live set. So one event can
//! raise two detections, under every policy.
//!
//! In every mode the guard's own live-set bookkeeping follows the
//! *repaired* semantics, so one violation never cascades into spurious
//! detections downstream. [`UpdateGuardStats`] reconciles exactly against
//! an [`UpdateFaultPlan`](crate::update_fault::UpdateFaultPlan)'s
//! expected-detection ledger.

use std::fmt;
use std::io::{self, Read, Write};

use adjstream_graph::EdgeKey;

use crate::checkpoint::{
    corrupt, read_u64, read_u8, read_usize, write_u64, write_u8, write_usize, Checkpoint,
};
use crate::guard::{GuardPolicy, Verdict};
use crate::hashing::FastSet;
use crate::meter::SpaceUsage;
use crate::update::{
    drive_update_batches, UpdateAlgorithm, UpdateEvent, UpdateOp, UpdateRunReport,
};

/// A violation of update-stream semantics, with the event position where
/// it was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateViolation {
    /// An insertion of an edge that is already live.
    DuplicateInsert {
        /// 0-based event position.
        position: usize,
        /// The re-inserted edge.
        edge: EdgeKey,
    },
    /// A deletion of an edge that is not live.
    DeadDelete {
        /// 0-based event position.
        position: usize,
        /// The edge the deletion targeted.
        edge: EdgeKey,
    },
    /// A timestamp below the stream's high-water mark.
    TimestampRegression {
        /// 0-based event position.
        position: usize,
        /// The high-water mark at that point.
        previous: u64,
        /// The regressing timestamp.
        found: u64,
    },
}

impl UpdateViolation {
    /// The 0-based event position of the violation.
    pub fn position(&self) -> usize {
        match self {
            UpdateViolation::DuplicateInsert { position, .. }
            | UpdateViolation::DeadDelete { position, .. }
            | UpdateViolation::TimestampRegression { position, .. } => *position,
        }
    }
}

impl fmt::Display for UpdateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateViolation::DuplicateInsert { position, edge } => {
                write!(f, "event {position}: insert of live edge {edge}")
            }
            UpdateViolation::DeadDelete { position, edge } => {
                write!(f, "event {position}: delete of dead edge {edge}")
            }
            UpdateViolation::TimestampRegression {
                position,
                previous,
                found,
            } => write!(
                f,
                "event {position}: timestamp {found} regresses below {previous}"
            ),
        }
    }
}

impl std::error::Error for UpdateViolation {}

/// Counters a [`GuardedUpdate`] accumulates while vetting events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateGuardStats {
    /// Events seen (valid or not).
    pub events: usize,
    /// Total violations detected.
    pub detections: usize,
    /// Duplicate-insert detections.
    pub duplicate_inserts: usize,
    /// Dead-delete detections.
    pub dead_deletes: usize,
    /// Timestamp-regression detections.
    pub ts_regressions: usize,
    /// Events dropped (Repair mode only).
    pub dropped: usize,
    /// Timestamps clamped to the high-water mark (Repair mode only).
    pub repaired_ts: usize,
}

impl UpdateGuardStats {
    /// Every counter, in checkpoint order.
    fn fields(&mut self) -> [&mut usize; 7] {
        [
            &mut self.events,
            &mut self.detections,
            &mut self.duplicate_inserts,
            &mut self.dead_deletes,
            &mut self.ts_regressions,
            &mut self.dropped,
            &mut self.repaired_ts,
        ]
    }
}

/// Wrap an [`UpdateAlgorithm`] with online update-semantics validation and
/// a [`GuardPolicy`]. See the module docs for the per-policy behavior.
pub struct GuardedUpdate<A> {
    inner: A,
    policy: GuardPolicy,
    /// Packed keys of edges currently live under repaired semantics.
    live: FastSet<u64>,
    /// Timestamp high-water mark.
    last_ts: u64,
    /// Whether any event has been seen (distinguishes `last_ts == 0`).
    seen: bool,
    /// Events seen so far; the position assigned to the next event.
    position: usize,
    stats: UpdateGuardStats,
    /// Strict mode's poison: the first violation, after which nothing is
    /// forwarded.
    fatal: Option<UpdateViolation>,
}

impl<A: UpdateAlgorithm> GuardedUpdate<A> {
    /// Guard `inner` under `policy`.
    pub fn new(inner: A, policy: GuardPolicy) -> Self {
        GuardedUpdate {
            inner,
            policy,
            live: FastSet::default(),
            last_ts: 0,
            seen: false,
            position: 0,
            stats: UpdateGuardStats::default(),
            fatal: None,
        }
    }

    /// The guard's policy.
    pub fn policy(&self) -> GuardPolicy {
        self.policy
    }

    /// Accumulated counters.
    pub fn stats(&self) -> UpdateGuardStats {
        self.stats
    }

    /// Strict mode's first violation, if one poisoned the guard.
    pub fn fatal(&self) -> Option<UpdateViolation> {
        self.fatal
    }

    /// Number of edges live under repaired semantics.
    pub fn live_edges(&self) -> usize {
        self.live.len()
    }

    /// Borrow the guarded algorithm.
    pub fn inner_ref(&self) -> &A {
        &self.inner
    }

    /// Mutably borrow the guarded algorithm (for checkpoint plumbing; the
    /// guard's bookkeeping is bypassed, so don't feed it events this way).
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Unwrap the guarded algorithm.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// The semantic violation `ev` commits against the live set, if any.
    fn semantic_violation(&self, ev: &UpdateEvent, position: usize) -> Option<UpdateViolation> {
        let edge = ev.edge;
        match (ev.op, self.live.contains(&edge.pack())) {
            (UpdateOp::Insert, true) => Some(UpdateViolation::DuplicateInsert { position, edge }),
            (UpdateOp::Delete, false) => Some(UpdateViolation::DeadDelete { position, edge }),
            _ => None,
        }
    }

    /// Count `v` and rule on it under the policy. Strict's violation is
    /// latched and returned as the error.
    fn vet(&mut self, v: UpdateViolation) -> Result<Verdict, UpdateViolation> {
        self.stats.detections += 1;
        match v {
            UpdateViolation::DuplicateInsert { .. } => self.stats.duplicate_inserts += 1,
            UpdateViolation::DeadDelete { .. } => self.stats.dead_deletes += 1,
            UpdateViolation::TimestampRegression { .. } => self.stats.ts_regressions += 1,
        }
        match self.policy.decide(v, true, &mut self.fatal) {
            Verdict::Fail => Err(v),
            verdict => Ok(verdict),
        }
    }

    /// Apply a valid (or already-vetted) event to the live set and the
    /// inner algorithm, at an effective timestamp.
    fn forward(&mut self, ev: &UpdateEvent, ts: u64) {
        let key = ev.edge.pack();
        match ev.op {
            UpdateOp::Insert => self.live.insert(key),
            UpdateOp::Delete => self.live.remove(&key),
        };
        self.inner.apply(&UpdateEvent { ts, ..*ev });
    }

    /// Vet and apply one event. `Err` is only returned under
    /// [`GuardPolicy::Strict`]; once it has been returned the guard is
    /// poisoned and every further call returns the same violation.
    pub fn apply_event(&mut self, ev: &UpdateEvent) -> Result<(), UpdateViolation> {
        if let Some(fatal) = self.fatal {
            return Err(fatal);
        }
        let position = self.position;
        self.position += 1;
        self.stats.events += 1;

        // Repair drops a regressed timestamp: the event applies at the
        // high-water mark instead.
        let mut ts = ev.ts;
        if self.seen && ts < self.last_ts {
            let v = UpdateViolation::TimestampRegression {
                position,
                previous: self.last_ts,
                found: ts,
            };
            if self.vet(v)? == Verdict::Drop {
                self.stats.repaired_ts += 1;
                ts = self.last_ts;
            }
        }
        self.seen = true;
        self.last_ts = self.last_ts.max(ts);
        let verdict = match self.semantic_violation(ev, position) {
            Some(v) => self.vet(v)?,
            None => Verdict::Forward,
        };
        if verdict == Verdict::Drop {
            self.stats.dropped += 1;
        } else {
            // A forwarded violation leaves the live set as it was (inserting
            // a live edge or deleting a dead one changes nothing), so the
            // guard keeps repaired semantics under Observe too.
            self.forward(ev, ts);
        }
        Ok(())
    }
}

impl<A: UpdateAlgorithm> SpaceUsage for GuardedUpdate<A> {
    fn space_bytes(&self) -> usize {
        self.inner.space_bytes() + self.live.len() * 8 + 8 * 8
    }
}

impl<A: UpdateAlgorithm> UpdateAlgorithm for GuardedUpdate<A> {
    fn insert(&mut self, e: EdgeKey, ts: u64) {
        let _ = self.apply_event(&UpdateEvent {
            op: UpdateOp::Insert,
            edge: e,
            ts,
        });
    }

    fn delete(&mut self, e: EdgeKey, ts: u64) {
        let _ = self.apply_event(&UpdateEvent {
            op: UpdateOp::Delete,
            edge: e,
            ts,
        });
    }

    fn estimate(&self) -> f64 {
        self.inner.estimate()
    }
}

impl<A: UpdateAlgorithm + Checkpoint> Checkpoint for GuardedUpdate<A> {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        crate::guard::encode_policy(w, self.policy)?;
        write_u8(w, u8::from(self.seen))?;
        write_u64(w, self.last_ts)?;
        write_usize(w, self.position)?;
        let mut stats = self.stats;
        for v in stats.fields() {
            write_usize(w, *v)?;
        }
        // Deterministic layout: live keys sorted.
        let mut keys: Vec<u64> = self.live.iter().copied().collect();
        keys.sort_unstable();
        write_usize(w, keys.len())?;
        for k in keys {
            write_u64(w, k)?;
        }
        // A strict guard checkpoints only before its first violation.
        if self.fatal.is_some() {
            return Err(corrupt("cannot checkpoint a poisoned guard"));
        }
        self.inner.save(w)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let policy = crate::guard::decode_policy(r)?;
        let seen = read_u8(r)? != 0;
        let last_ts = read_u64(r)?;
        let position = read_usize(r)?;
        let mut stats = UpdateGuardStats::default();
        for v in stats.fields() {
            *v = read_usize(r)?;
        }
        let n = read_usize(r)?;
        let mut live = FastSet::default();
        for _ in 0..n {
            if !live.insert(read_u64(r)?) {
                return Err(corrupt("duplicate live edge in guard checkpoint"));
            }
        }
        Ok(GuardedUpdate {
            inner: A::restore(r)?,
            policy,
            live,
            last_ts,
            seen,
            position,
            stats,
            fatal: None,
        })
    }
}

/// Drive a guarded algorithm over a raw (possibly invalid) event sequence
/// in contiguous batches, mirroring
/// [`run_update_batches`](crate::update::run_update_batches). Under
/// [`GuardPolicy::Strict`] the first violation aborts the drive with the
/// typed violation; Repair and Observe always complete.
pub fn run_guarded_updates<A: UpdateAlgorithm>(
    events: &[UpdateEvent],
    batch_size: usize,
    guard: &mut GuardedUpdate<A>,
) -> Result<UpdateRunReport, UpdateViolation> {
    drive_update_batches(events, batch_size, guard, GuardedUpdate::apply_event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update_fault::{UpdateFaultKind, UpdateFaultPlan};

    /// Exact live-edge counter (same shape as the update-module test
    /// algorithm) — lets assertions see exactly what reached the inner
    /// algorithm.
    #[derive(Default)]
    struct EdgeCounter {
        live: std::collections::HashSet<u64>,
        ops: usize,
    }

    impl SpaceUsage for EdgeCounter {
        fn space_bytes(&self) -> usize {
            self.live.len() * 8
        }
    }

    impl UpdateAlgorithm for EdgeCounter {
        fn insert(&mut self, e: EdgeKey, _ts: u64) {
            self.ops += 1;
            self.live.insert(e.pack());
        }
        fn delete(&mut self, e: EdgeKey, _ts: u64) {
            self.ops += 1;
            self.live.remove(&e.pack());
        }
        fn estimate(&self) -> f64 {
            self.live.len() as f64
        }
    }

    fn valid_events() -> Vec<UpdateEvent> {
        vec![
            UpdateEvent::insert(0, 1, 0),
            UpdateEvent::insert(1, 2, 1),
            UpdateEvent::delete(0, 1, 2),
            UpdateEvent::insert(0, 1, 3),
            UpdateEvent::insert(2, 3, 4),
        ]
    }

    #[test]
    fn clean_stream_passes_through_unchanged() {
        for policy in [
            GuardPolicy::Strict,
            GuardPolicy::Repair,
            GuardPolicy::Observe,
        ] {
            let mut g = GuardedUpdate::new(EdgeCounter::default(), policy);
            let report = run_guarded_updates(&valid_events(), 2, &mut g).unwrap();
            assert_eq!(report.events, 5);
            assert_eq!(g.stats().detections, 0);
            assert_eq!(g.inner_ref().ops, 5);
            assert_eq!(g.estimate(), 3.0);
            assert_eq!(g.live_edges(), 3);
        }
    }

    #[test]
    fn strict_poisons_on_first_violation_with_position() {
        let mut events = valid_events();
        events.insert(3, UpdateEvent::delete(0, 1, 2)); // re-delete dead {0,1}
        let mut g = GuardedUpdate::new(EdgeCounter::default(), GuardPolicy::Strict);
        let err = run_guarded_updates(&events, 2, &mut g).unwrap_err();
        assert_eq!(
            err,
            UpdateViolation::DeadDelete {
                position: 3,
                edge: EdgeKey::new(0.into(), 1.into())
            }
        );
        assert_eq!(g.fatal(), Some(err));
        // Nothing after the violation reached the inner algorithm.
        assert_eq!(g.inner_ref().ops, 3);
        // The poison is sticky.
        assert!(g.apply_event(&UpdateEvent::insert(7, 8, 9)).is_err());
        assert_eq!(g.inner_ref().ops, 3);
    }

    #[test]
    fn repair_drops_semantic_violations_and_clamps_ts() {
        let mut events = valid_events();
        events.insert(2, UpdateEvent::insert(0, 1, 1)); // duplicate insert
        events.push(UpdateEvent::insert(4, 5, 1)); // ts regression (hwm 4)
        let mut g = GuardedUpdate::new(EdgeCounter::default(), GuardPolicy::Repair);
        let report = run_guarded_updates(&events, 3, &mut g).unwrap();
        assert_eq!(report.events, 7);
        let stats = g.stats();
        assert_eq!(stats.detections, 2);
        assert_eq!(stats.duplicate_inserts, 1);
        assert_eq!(stats.ts_regressions, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.repaired_ts, 1);
        // The dropped duplicate never reached the inner algorithm; the
        // clamped insert did.
        assert_eq!(g.inner_ref().ops, 6);
        assert_eq!(g.estimate(), 4.0);
    }

    #[test]
    fn observe_counts_but_forwards_everything() {
        let mut events = valid_events();
        events.insert(3, UpdateEvent::delete(0, 1, 2));
        let mut g = GuardedUpdate::new(EdgeCounter::default(), GuardPolicy::Observe);
        run_guarded_updates(&events, 4, &mut g).unwrap();
        assert_eq!(g.stats().detections, 1);
        assert_eq!(g.stats().dead_deletes, 1);
        assert_eq!(g.stats().dropped, 0);
        assert_eq!(g.inner_ref().ops, 6, "all events forwarded");
    }

    #[test]
    fn repair_reconciles_against_fault_plans() {
        use crate::update::{churn, ChurnConfig};
        let g = adjstream_graph::gen::disjoint_cliques(4, 6);
        let stream = churn(
            &g,
            &ChurnConfig {
                churn_events: 150,
                delete_fraction: 0.6,
                seed: 13,
            },
        );
        let plan = UpdateFaultPlan::new(99)
            .with(UpdateFaultKind::DeleteDead, 2)
            .with(UpdateFaultKind::DuplicateInsert, 1)
            .with(UpdateFaultKind::OpFlip, 1)
            .with(UpdateFaultKind::TimestampRegression, 1);
        let corrupted = plan.apply(&stream);
        assert!(corrupted.skipped().is_empty());
        let mut guard = GuardedUpdate::new(EdgeCounter::default(), GuardPolicy::Repair);
        run_guarded_updates(corrupted.events(), 32, &mut guard).unwrap();
        assert_eq!(
            guard.stats().detections,
            corrupted.expected_detections(),
            "stats reconcile with the plan ledger"
        );
        // A clean replay of the same base stream sees zero detections and
        // the same final live count as the repaired corrupted replay.
        let mut clean = GuardedUpdate::new(EdgeCounter::default(), GuardPolicy::Repair);
        run_guarded_updates(stream.events(), 32, &mut clean).unwrap();
        assert_eq!(clean.stats().detections, 0);
    }

    #[test]
    fn observe_counts_semantic_violations_of_regressed_events_like_repair() {
        // Events 1 and 2 each regress their timestamp *and* break the
        // live-edge semantics (dead delete, duplicate insert).
        let events = [
            UpdateEvent::insert(1, 2, 10),
            UpdateEvent::delete(3, 4, 5),
            UpdateEvent::insert(1, 2, 6),
        ];
        let stats = |policy| {
            let mut g = GuardedUpdate::new(EdgeCounter::default(), policy);
            run_guarded_updates(&events, 2, &mut g).unwrap();
            let s = g.stats();
            (
                s.detections,
                s.duplicate_inserts,
                s.dead_deletes,
                s.ts_regressions,
            )
        };
        assert_eq!(stats(GuardPolicy::Repair), (4, 1, 1, 2));
        assert_eq!(stats(GuardPolicy::Observe), stats(GuardPolicy::Repair));
    }

    #[test]
    fn checkpoint_round_trips_mid_stream() {
        let events = valid_events();
        let mut g = GuardedUpdate::new(EdgeCounter::default(), GuardPolicy::Repair);
        for ev in &events[..3] {
            g.apply_event(ev).unwrap();
        }
        // EdgeCounter has no Checkpoint impl; use stats-only assertions via
        // a checkpointable inner in the core crate's tests. Here, exercise
        // the frame around a trivial inner.
        struct Null;
        impl SpaceUsage for Null {
            fn space_bytes(&self) -> usize {
                0
            }
        }
        impl UpdateAlgorithm for Null {
            fn insert(&mut self, _e: EdgeKey, _ts: u64) {}
            fn delete(&mut self, _e: EdgeKey, _ts: u64) {}
            fn estimate(&self) -> f64 {
                0.0
            }
        }
        impl Checkpoint for Null {
            fn save(&self, w: &mut dyn Write) -> io::Result<()> {
                write_u8(w, 42)
            }
            fn restore(r: &mut dyn Read) -> io::Result<Self> {
                if read_u8(r)? == 42 {
                    Ok(Null)
                } else {
                    Err(corrupt("bad null payload"))
                }
            }
        }
        let mut g = GuardedUpdate::new(Null, GuardPolicy::Repair);
        for ev in &events[..3] {
            g.apply_event(ev).unwrap();
        }
        let mut buf = Vec::new();
        g.save(&mut buf).unwrap();
        let mut restored: GuardedUpdate<Null> = GuardedUpdate::restore(&mut &buf[..]).unwrap();
        assert_eq!(restored.stats(), g.stats());
        assert_eq!(restored.live_edges(), g.live_edges());
        // The restored guard detects the same violation the original would.
        let bad = UpdateEvent::delete(0, 1, 2);
        restored.apply_event(&bad).unwrap();
        g.apply_event(&bad).unwrap();
        assert_eq!(restored.stats(), g.stats());
        // Truncated payloads are rejected, not panicked on.
        assert!(GuardedUpdate::<Null>::restore(&mut &buf[..buf.len() / 2]).is_err());
    }
}
