//! Guarded ingestion: wrap any algorithm with online promise validation.
//!
//! [`Guarded`] interposes an [`OnlineValidator`] between the pass driver and
//! an inner [`MultiPassAlgorithm`], so malformed streams degrade according
//! to an explicit [`GuardPolicy`] instead of silently corrupting the
//! estimate or panicking:
//!
//! * [`Strict`](GuardPolicy::Strict) — abort on the first violation. The
//!   fallible drivers surface it as [`RunError::Invalid`] carrying the
//!   violation and its position.
//! * [`Repair`](GuardPolicy::Repair) — drop offending items and continue.
//!   A split list loses its displaced segment; edges found unmatched at the
//!   end of the first pass are *quarantined*: their surviving direction is
//!   suppressed in later passes so every pass presents the inner algorithm
//!   with the same repaired (valid) stream.
//! * [`Observe`](GuardPolicy::Observe) — forward everything unmodified and
//!   only count, for measuring how corrupted an input is.
//!
//! For algorithms that [require identical pass
//! orders](MultiPassAlgorithm::requires_same_order) the guard also
//! fingerprints the list order of pass 1 and reports
//! [`StreamError::PassOrderChanged`] when a later pass replays differently —
//! a fault class invisible to per-pass validation. Reordered replays are not
//! repairable (list positions are the algorithm's coordinate system), so
//! `Repair` treats them as fatal like `Strict`; `Observe` counts and
//! continues.
//!
//! Every counter and the validator's peak memory are published through
//! [`GuardStats`] on the run's [`RunReport`](crate::runner::RunReport).
//!
//! [`RunError::Invalid`]: crate::runner::RunError::Invalid

use std::io::{self, Read, Write};

use adjstream_graph::VertexId;

use crate::checkpoint::{
    corrupt, read_bytes, read_u64, read_u8, read_usize, write_bytes, write_u64, write_u8,
    write_usize, Checkpoint,
};
use crate::hashing::{FastBuildHasher, FastSet, HashFn};
use crate::item::StreamItem;
use crate::meter::{hashset_bytes, SpaceUsage};
use crate::runner::{GuardStats, MultiPassAlgorithm, RunError};
use crate::validate::{pack_edge, OnlineValidator, StreamError, ValidatorMode};

/// Serialize a [`GuardPolicy`] as a one-byte tag (shared with the batch
/// checkpoint payload so both layers agree on the encoding).
pub(crate) fn encode_policy(w: &mut dyn Write, policy: GuardPolicy) -> io::Result<()> {
    write_u8(
        w,
        match policy {
            GuardPolicy::Strict => 0,
            GuardPolicy::Repair => 1,
            GuardPolicy::Observe => 2,
        },
    )
}

/// Inverse of [`encode_policy`].
pub(crate) fn decode_policy(r: &mut dyn Read) -> io::Result<GuardPolicy> {
    Ok(match read_u8(r)? {
        0 => GuardPolicy::Strict,
        1 => GuardPolicy::Repair,
        2 => GuardPolicy::Observe,
        t => return Err(corrupt(format!("bad guard policy tag {t}"))),
    })
}

/// Serialize a [`ValidatorMode`] (tag plus the bounded mode's parameters).
pub(crate) fn encode_mode(w: &mut dyn Write, mode: ValidatorMode) -> io::Result<()> {
    match mode {
        ValidatorMode::Exact => write_u8(w, 0),
        ValidatorMode::Bounded { seed, window } => {
            write_u8(w, 1)?;
            write_u64(w, seed)?;
            write_usize(w, window)
        }
    }
}

/// Inverse of [`encode_mode`].
pub(crate) fn decode_mode(r: &mut dyn Read) -> io::Result<ValidatorMode> {
    Ok(match read_u8(r)? {
        0 => ValidatorMode::Exact,
        1 => ValidatorMode::Bounded {
            seed: read_u64(r)?,
            window: read_usize(r)?,
        },
        t => return Err(corrupt(format!("bad validator mode tag {t}"))),
    })
}

/// How a [`Guarded`] algorithm reacts to promise violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardPolicy {
    /// Abort the run at the first violation (typed error, never a panic).
    Strict,
    /// Drop offending items, quarantine unmatched edges, keep running.
    Repair,
    /// Forward everything untouched; only count violations.
    Observe,
}

impl std::fmt::Display for GuardPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GuardPolicy::Strict => "strict",
            GuardPolicy::Repair => "repair",
            GuardPolicy::Observe => "observe",
        })
    }
}

impl GuardPolicy {
    /// Parse the CLI spelling produced by [`Display`](std::fmt::Display).
    pub fn parse(s: &str) -> Option<GuardPolicy> {
        Some(match s {
            "strict" => GuardPolicy::Strict,
            "repair" => GuardPolicy::Repair,
            "observe" => GuardPolicy::Observe,
            _ => return None,
        })
    }
}

/// Pass-1 list-order fingerprint for order-sensitive inner algorithms.
#[derive(Debug, Clone)]
enum OrderFingerprint {
    /// Not tracking (single pass, or the inner algorithm is order-free).
    Off,
    /// Store pass 1's owner sequence; later passes compare per list.
    Exact {
        owners: Vec<VertexId>,
        replay: usize,
    },
    /// Bounded mode: rolling hash of the owner sequence, compared at pass
    /// end (cannot name the diverging list).
    Rolling { pass0: u64, current: u64 },
}

/// An algorithm wrapped with online promise validation; see the module docs
/// for the policy semantics.
#[derive(Debug, Clone)]
pub struct Guarded<A> {
    inner: A,
    policy: GuardPolicy,
    mode: ValidatorMode,
    validator: OnlineValidator,
    stats: GuardStats,
    fatal: Option<StreamError>,
    pass: usize,
    /// Owner of a list segment currently being suppressed after a
    /// contiguity violation.
    suppress_owner: Option<VertexId>,
    /// Canonical keys of edges whose surviving direction must be dropped in
    /// passes ≥ 2 (repair policy only).
    quarantined: FastSet<u64>,
    fingerprint: OrderFingerprint,
    order_violated: bool,
    order_hasher: HashFn,
}

impl<A: MultiPassAlgorithm> Guarded<A> {
    /// Guard `inner` with an exact validator.
    pub fn new(inner: A, policy: GuardPolicy) -> Self {
        Self::with_validator(inner, policy, ValidatorMode::Exact)
    }

    /// Guard `inner` with a validator of the given mode. With
    /// [`ValidatorMode::Bounded`] the guard's own bookkeeping is bounded
    /// too (rolling order fingerprint instead of a stored owner sequence),
    /// at the cost of unattributed reverse-edge faults being unrepairable.
    pub fn with_validator(inner: A, policy: GuardPolicy, mode: ValidatorMode) -> Self {
        let track = inner.requires_same_order() && inner.passes() > 1;
        let fingerprint = match (track, mode) {
            (false, _) => OrderFingerprint::Off,
            (true, ValidatorMode::Exact) => OrderFingerprint::Exact {
                owners: Vec::new(),
                replay: 0,
            },
            (true, ValidatorMode::Bounded { .. }) => OrderFingerprint::Rolling {
                pass0: 0,
                current: 0,
            },
        };
        let seed = match mode {
            ValidatorMode::Bounded { seed, .. } => seed,
            ValidatorMode::Exact => 0,
        };
        Guarded {
            inner,
            policy,
            mode,
            validator: OnlineValidator::with_mode(mode),
            stats: GuardStats::default(),
            fatal: None,
            pass: 0,
            suppress_owner: None,
            quarantined: FastSet::default(),
            fingerprint,
            order_violated: false,
            order_hasher: HashFn::from_seed(seed, 0x6F72_6465), // "orde"
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> GuardPolicy {
        self.policy
    }

    /// Counters so far (also published on the final report via
    /// [`MultiPassAlgorithm::guard_stats`]).
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// Unwrap the inner algorithm.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// The validator mode in force.
    pub fn mode(&self) -> ValidatorMode {
        self.mode
    }

    /// Borrow the inner algorithm (the batch engine reaches through the
    /// shared guard to manage its fan-out between passes).
    pub(crate) fn inner_ref(&self) -> &A {
        &self.inner
    }

    /// Mutably borrow the inner algorithm.
    pub(crate) fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Serialize the guard's *cross-pass* state: counters, the quarantine
    /// set, and the pass-1 order fingerprint. Everything else
    /// (`validator`, `suppress_owner`, `pass`, `fatal`) is per-pass state
    /// that `begin_pass` resets, and a pass boundary — the only place
    /// checkpoints happen — is by definition after such a reset point.
    pub(crate) fn save_guard_state(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.stats.faults_detected)?;
        write_usize(w, self.stats.items_repaired)?;
        write_usize(w, self.stats.edges_quarantined)?;
        write_usize(w, self.stats.validator_peak_bytes)?;
        write_usize(w, self.quarantined.len())?;
        for &key in &self.quarantined {
            write_u64(w, key)?;
        }
        match &self.fingerprint {
            OrderFingerprint::Off => write_u8(w, 0)?,
            OrderFingerprint::Exact { owners, .. } => {
                write_u8(w, 1)?;
                write_usize(w, owners.len())?;
                for o in owners {
                    crate::checkpoint::write_u32(w, o.0)?;
                }
            }
            OrderFingerprint::Rolling { pass0, .. } => {
                write_u8(w, 2)?;
                write_u64(w, *pass0)?;
            }
        }
        write_u8(w, self.order_violated as u8)
    }

    /// Restore the state written by [`Guarded::save_guard_state`] into a
    /// freshly constructed guard (same policy and mode). The per-pass
    /// cursors inside the fingerprint (`replay`, `current`) restart at
    /// zero, exactly as `begin_pass` leaves them.
    pub(crate) fn restore_guard_state(&mut self, r: &mut dyn Read) -> io::Result<()> {
        self.stats.faults_detected = read_usize(r)?;
        self.stats.items_repaired = read_usize(r)?;
        self.stats.edges_quarantined = read_usize(r)?;
        self.stats.validator_peak_bytes = read_usize(r)?;
        let n = read_usize(r)?;
        self.quarantined =
            FastSet::with_capacity_and_hasher(n.min(1 << 20), FastBuildHasher::default());
        for _ in 0..n {
            self.quarantined.insert(read_u64(r)?);
        }
        self.fingerprint = match read_u8(r)? {
            0 => OrderFingerprint::Off,
            1 => {
                let len = read_usize(r)?;
                let mut owners = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    owners.push(VertexId(crate::checkpoint::read_u32(r)?));
                }
                OrderFingerprint::Exact { owners, replay: 0 }
            }
            2 => OrderFingerprint::Rolling {
                pass0: read_u64(r)?,
                current: 0,
            },
            t => return Err(corrupt(format!("bad order fingerprint tag {t}"))),
        };
        self.order_violated = read_u8(r)? != 0;
        Ok(())
    }

    /// The guard's own state: validator, quarantine set and order
    /// fingerprint.
    fn validator_bytes(&self) -> usize {
        let fp = match &self.fingerprint {
            OrderFingerprint::Off | OrderFingerprint::Rolling { .. } => 16,
            OrderFingerprint::Exact { owners, .. } => {
                owners.len() * std::mem::size_of::<VertexId>()
            }
        };
        self.validator.space_bytes() + hashset_bytes(&self.quarantined) + fp
    }

    fn observe_validator_peak(&mut self) {
        let bytes = self.validator_bytes();
        self.stats.validator_peak_bytes = self.stats.validator_peak_bytes.max(bytes);
    }

    /// Run the validation/suppression state machine for one item and
    /// report whether it should be forwarded to the inner algorithm. Every
    /// guard side effect — fault counters, segment suppression, quarantine
    /// lookups, fatal latching — happens here, so [`Guarded::item`] and
    /// [`Guarded::feed_slice`] are the same machine at different forwarding
    /// granularities and their stats are identical by construction.
    fn admit(&mut self, src: VertexId, dst: VertexId) -> bool {
        if self.fatal.is_some() {
            return false;
        }
        let key = pack_edge(src, dst);
        if self.pass > 0 && self.quarantined.contains(&key) {
            // The partner direction never existed; drop the survivor so
            // later passes see the same repaired stream as pass 1 did
            // (post-quarantine). Only populated under the repair policy.
            self.validator.note_suppressed();
            return false;
        }
        if let Some(owner) = self.suppress_owner {
            if owner == src {
                self.validator.note_suppressed();
                if self.pass == 0 {
                    self.stats.items_repaired += 1;
                }
                return self.policy == GuardPolicy::Observe;
            }
            self.suppress_owner = None;
        }
        match self.validator.observe(StreamItem::new(src, dst)) {
            Ok(()) => true,
            Err(e) => {
                if self.pass == 0 {
                    self.stats.faults_detected += 1;
                }
                if matches!(e, StreamError::ListNotContiguous { .. }) {
                    // Suppress the rest of the displaced segment rather
                    // than re-reporting every item in it.
                    self.suppress_owner = Some(src);
                }
                match self.policy {
                    GuardPolicy::Strict => {
                        self.fatal = Some(e);
                        false
                    }
                    GuardPolicy::Repair => {
                        if self.pass == 0 {
                            self.stats.items_repaired += 1;
                        }
                        false
                    }
                    GuardPolicy::Observe => true,
                }
            }
        }
    }

    fn order_violation(&mut self, list_index: usize) {
        self.order_violated = true;
        self.stats.faults_detected += 1;
        let err = StreamError::PassOrderChanged {
            pass: self.pass,
            list_index,
        };
        match self.policy {
            // A reordered replay cannot be repaired: list positions are the
            // inner algorithm's coordinate system.
            GuardPolicy::Strict | GuardPolicy::Repair => self.fatal = Some(err),
            GuardPolicy::Observe => {}
        }
    }
}

impl<A: MultiPassAlgorithm> SpaceUsage for Guarded<A> {
    fn space_bytes(&self) -> usize {
        self.inner.space_bytes() + self.validator_bytes()
    }
}

impl<A: MultiPassAlgorithm> MultiPassAlgorithm for Guarded<A> {
    type Output = A::Output;

    fn passes(&self) -> usize {
        self.inner.passes()
    }

    fn requires_same_order(&self) -> bool {
        self.inner.requires_same_order()
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        self.validator.reset();
        self.suppress_owner = None;
        if let OrderFingerprint::Exact { replay, .. } = &mut self.fingerprint {
            *replay = 0;
        }
        if let OrderFingerprint::Rolling { current, .. } = &mut self.fingerprint {
            *current = 0;
        }
        self.inner.begin_pass(pass);
    }

    fn begin_list(&mut self, owner: VertexId) {
        let mut violation = None;
        match &mut self.fingerprint {
            OrderFingerprint::Off => {}
            OrderFingerprint::Exact { owners, replay } => {
                if self.pass == 0 {
                    owners.push(owner);
                } else if !self.order_violated {
                    let idx = *replay;
                    *replay += 1;
                    if owners.get(idx) != Some(&owner) {
                        violation = Some(idx);
                    }
                }
            }
            OrderFingerprint::Rolling { pass0, current } => {
                let next = self.order_hasher.hash(*current ^ owner.0 as u64);
                if self.pass == 0 {
                    *pass0 = next;
                }
                *current = next;
            }
        }
        if let Some(idx) = violation {
            self.order_violation(idx);
        }
        // Boundaries are always forwarded, even around suppressed segments:
        // for order-sensitive algorithms list positions must stay aligned
        // across passes, and suppression is replayed identically per pass.
        self.inner.begin_list(owner);
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        if self.admit(src, dst) {
            self.inner.item(src, dst);
        }
    }

    /// Validate a whole run once, then hand the admitted stretches to the
    /// inner algorithm as slices. On a clean run (the overwhelmingly common
    /// case) that is a single `feed_slice` of the full input, so all `R`
    /// instances behind a shared batch guard get the slice fast path while
    /// the stream is still validated exactly once.
    fn feed_slice(&mut self, items: &[StreamItem]) {
        let mut run_start = 0usize;
        for (i, it) in items.iter().enumerate() {
            if !self.admit(it.src, it.dst) {
                if run_start < i {
                    self.inner.feed_slice(&items[run_start..i]);
                }
                run_start = i + 1;
            }
        }
        if run_start < items.len() {
            self.inner.feed_slice(&items[run_start..]);
        }
    }

    fn end_list(&mut self, owner: VertexId) {
        self.observe_validator_peak();
        self.inner.end_list(owner);
    }

    fn end_pass(&mut self, pass: usize) {
        if pass == 0 {
            if let Err(e) = self.validator.finish() {
                let unmatched = self.validator.unmatched_edges();
                self.stats.faults_detected += unmatched.len().max(1);
                match self.policy {
                    GuardPolicy::Strict => self.fatal = Some(e),
                    GuardPolicy::Repair => {
                        if !unmatched.is_empty() {
                            // Exact mode: quarantine every unmatched edge.
                            for (s, d) in &unmatched {
                                self.quarantined.insert(pack_edge(*s, *d));
                            }
                            self.stats.edges_quarantined += unmatched.len();
                        } else if let StreamError::MissingReverse { src, dst } = e {
                            // Bounded mode, single straggler recovered from
                            // the sketch: still repairable.
                            self.quarantined.insert(pack_edge(src, dst));
                            self.stats.edges_quarantined += 1;
                        } else {
                            // Bounded mode, unattributable imbalance:
                            // nothing to drop, so repair cannot proceed.
                            self.fatal = Some(e);
                        }
                    }
                    GuardPolicy::Observe => {}
                }
            }
        } else if !self.order_violated {
            let violation = match &self.fingerprint {
                OrderFingerprint::Exact { owners, replay } => {
                    (*replay != owners.len()).then_some(*replay)
                }
                OrderFingerprint::Rolling { pass0, current } => {
                    (current != pass0).then_some(usize::MAX)
                }
                OrderFingerprint::Off => None,
            };
            if let Some(at) = violation {
                self.order_violation(at);
            }
        }
        self.observe_validator_peak();
        self.inner.end_pass(pass);
    }

    fn abort_error(&self) -> Option<StreamError> {
        self.fatal.clone()
    }

    fn abort_run(&self) -> Option<RunError> {
        self.inner.abort_run()
    }

    fn guard_stats(&self) -> Option<GuardStats> {
        Some(self.stats)
    }

    fn obs_counters(&self) -> Option<crate::obs::ObsCounters> {
        self.inner.obs_counters()
    }

    fn finish(self) -> A::Output {
        self.inner.finish()
    }
}

impl<A: MultiPassAlgorithm + Checkpoint> Checkpoint for Guarded<A> {
    /// A guarded algorithm checkpoints as policy + mode + the guard's
    /// cross-pass state + the inner algorithm's own checkpoint, so
    /// `Guarded<TwoPassTriangle>` (and friends) round-trip through
    /// [`Checkpoint`] like any other algorithm.
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        encode_policy(w, self.policy)?;
        encode_mode(w, self.mode)?;
        let mut guard_blob = Vec::new();
        self.save_guard_state(&mut guard_blob)?;
        write_bytes(w, &guard_blob)?;
        let mut inner_blob = Vec::new();
        self.inner.save(&mut inner_blob)?;
        write_bytes(w, &inner_blob)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let policy = decode_policy(r)?;
        let mode = decode_mode(r)?;
        let guard_blob = read_bytes(r)?;
        let inner_blob = read_bytes(r)?;
        let inner = A::restore(&mut inner_blob.as_slice())?;
        let mut guarded = Guarded::with_validator(inner, policy, mode);
        guarded.restore_guard_state(&mut guard_blob.as_slice())?;
        Ok(guarded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjlist::AdjListStream;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::order::StreamOrder;
    use crate::runner::{run_slice_passes, RunError};
    use adjstream_graph::gen;

    /// Counts items and list boundaries per pass; order-sensitivity is
    /// configurable so one type exercises both fingerprint paths.
    struct Probe {
        passes: usize,
        same_order: bool,
        items: usize,
        lists: usize,
    }

    impl Probe {
        fn new(passes: usize, same_order: bool) -> Self {
            Probe {
                passes,
                same_order,
                items: 0,
                lists: 0,
            }
        }
    }

    impl SpaceUsage for Probe {
        fn space_bytes(&self) -> usize {
            32
        }
    }

    impl MultiPassAlgorithm for Probe {
        type Output = (usize, usize);
        fn passes(&self) -> usize {
            self.passes
        }
        fn requires_same_order(&self) -> bool {
            self.same_order
        }
        fn begin_pass(&mut self, _p: usize) {}
        fn begin_list(&mut self, _o: VertexId) {
            self.lists += 1;
        }
        fn item(&mut self, _s: VertexId, _d: VertexId) {
            self.items += 1;
        }
        fn finish(self) -> (usize, usize) {
            (self.items, self.lists)
        }
    }

    fn clean_items(n: usize, m: usize, seed: u64) -> Vec<crate::item::StreamItem> {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnm(n, m, &mut rng);
        AdjListStream::new(&g, StreamOrder::shuffled(n, seed)).collect_items()
    }

    #[test]
    fn clean_stream_passes_all_policies_untouched() {
        let items = clean_items(20, 60, 4);
        for policy in [
            GuardPolicy::Strict,
            GuardPolicy::Repair,
            GuardPolicy::Observe,
        ] {
            let guarded = Guarded::new(Probe::new(2, false), policy);
            let ((n, _), report) = run_slice_passes(guarded, |_| &items[..]).unwrap();
            assert_eq!(n, 240, "{policy}");
            let stats = report.guard.unwrap();
            assert_eq!(stats.faults_detected, 0);
            assert_eq!(stats.items_repaired, 0);
            assert_eq!(stats.edges_quarantined, 0);
            assert!(stats.validator_peak_bytes > 0);
        }
    }

    #[test]
    fn strict_aborts_with_position() {
        let items = clean_items(20, 60, 4);
        let c = FaultPlan::new(9)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        let guarded = Guarded::new(Probe::new(1, false), GuardPolicy::Strict);
        let err = c.try_run(guarded).unwrap_err();
        let RunError::Invalid { pass: 0, error } = err else {
            panic!("expected Invalid, got {err:?}");
        };
        assert!(matches!(error, StreamError::SelfLoop { .. }));
        assert!(error.position().is_some());
    }

    #[test]
    fn repair_drops_offending_items_and_quarantines() {
        let items = clean_items(24, 80, 5);
        let c = FaultPlan::new(12)
            .with(FaultKind::DropDirection, 2)
            .with(FaultKind::DuplicateItem, 1)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        assert!(c.skipped().is_empty());
        let guarded = Guarded::new(Probe::new(2, false), GuardPolicy::Repair);
        let ((n, _), report) = c.try_run(guarded).unwrap();
        let stats = report.guard.unwrap();
        // 2 missing-reverse + 1 duplicate + 1 self-loop.
        assert_eq!(stats.faults_detected, 4);
        assert_eq!(stats.faults_detected, c.expected_detections());
        // The duplicate and the self-loop were dropped in pass 1.
        assert_eq!(stats.items_repaired, 2);
        assert_eq!(stats.edges_quarantined, 2);
        // Inner algorithm item count: pass 1 forwards all but the 2 dropped
        // items; pass 2 additionally suppresses the 2 quarantined survivors.
        let base = c.items().len();
        assert_eq!(n, (base - 2) + (base - 2 - 2));
    }

    #[test]
    fn repaired_stream_revalidates_clean() {
        // Whatever Repair forwards must itself satisfy the promise: pipe
        // the forwarded items of pass 2 into a fresh validator.
        struct Collect(Vec<crate::item::StreamItem>, usize);
        impl SpaceUsage for Collect {
            fn space_bytes(&self) -> usize {
                0
            }
        }
        impl MultiPassAlgorithm for Collect {
            type Output = Vec<crate::item::StreamItem>;
            fn passes(&self) -> usize {
                2
            }
            fn begin_pass(&mut self, p: usize) {
                self.1 = p;
            }
            fn item(&mut self, s: VertexId, d: VertexId) {
                if self.1 == 1 {
                    self.0.push(crate::item::StreamItem::new(s, d));
                }
            }
            fn finish(self) -> Self::Output {
                self.0
            }
        }
        let items = clean_items(30, 120, 8);
        let c = FaultPlan::new(3)
            .with(FaultKind::DropDirection, 2)
            .with(FaultKind::InjectSelfLoop, 1)
            .with(FaultKind::DuplicateItem, 1)
            .with(FaultKind::SplitList, 1)
            .apply(&items);
        let guarded = Guarded::new(Collect(Vec::new(), 0), GuardPolicy::Repair);
        let (pass2_items, _) = c.try_run(guarded).unwrap();
        assert!(crate::validate::validate_stream(pass2_items.into_iter()).is_ok());
    }

    #[test]
    fn observe_counts_without_modifying() {
        let items = clean_items(24, 80, 5);
        let c = FaultPlan::new(12)
            .with(FaultKind::DuplicateItem, 1)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        let guarded = Guarded::new(Probe::new(1, false), GuardPolicy::Observe);
        let ((n, _), report) = c.try_run(guarded).unwrap();
        let stats = report.guard.unwrap();
        assert_eq!(stats.faults_detected, 2);
        assert_eq!(stats.items_repaired, 0);
        assert_eq!(stats.edges_quarantined, 0);
        // Every item forwarded, including the malformed ones.
        assert_eq!(n, c.items().len());
    }

    #[test]
    fn reorder_fault_is_detected_for_order_sensitive_algorithms() {
        let items = clean_items(20, 60, 6);
        let c = FaultPlan::new(2)
            .with(FaultKind::ReorderPass, 1)
            .apply(&items);
        assert!(c.skipped().is_empty());
        // Order-sensitive inner: strict and repair abort, observe counts.
        for policy in [GuardPolicy::Strict, GuardPolicy::Repair] {
            let guarded = Guarded::new(Probe::new(2, true), policy);
            let err = c.try_run(guarded).unwrap_err();
            assert!(
                matches!(
                    err,
                    RunError::Invalid {
                        pass: 1,
                        error: StreamError::PassOrderChanged { pass: 1, .. }
                    }
                ),
                "{policy}: {err:?}"
            );
        }
        let guarded = Guarded::new(Probe::new(2, true), GuardPolicy::Observe);
        let (_, report) = c.try_run(guarded).unwrap();
        assert_eq!(report.guard.unwrap().faults_detected, 1);
        // Order-free inner: nobody cares about the replay order.
        let guarded = Guarded::new(Probe::new(2, false), GuardPolicy::Strict);
        let (_, report) = c.try_run(guarded).unwrap();
        assert_eq!(report.guard.unwrap().faults_detected, 0);
    }

    #[test]
    fn bounded_guard_detects_reorder_at_pass_end() {
        let items = clean_items(20, 60, 6);
        let c = FaultPlan::new(2)
            .with(FaultKind::ReorderPass, 1)
            .apply(&items);
        let guarded = Guarded::with_validator(
            Probe::new(2, true),
            GuardPolicy::Strict,
            ValidatorMode::Bounded { seed: 5, window: 8 },
        );
        let err = c.try_run(guarded).unwrap_err();
        assert!(matches!(
            err,
            RunError::Invalid {
                pass: 1,
                error: StreamError::PassOrderChanged {
                    pass: 1,
                    list_index: usize::MAX
                }
            }
        ));
    }

    #[test]
    fn bounded_repair_quarantines_single_straggler() {
        let items = clean_items(24, 80, 7);
        let c = FaultPlan::new(4)
            .with(FaultKind::DropDirection, 1)
            .apply(&items);
        let guarded = Guarded::with_validator(
            Probe::new(2, false),
            GuardPolicy::Repair,
            ValidatorMode::Bounded { seed: 5, window: 8 },
        );
        let ((n, _), report) = c.try_run(guarded).unwrap();
        let stats = report.guard.unwrap();
        assert_eq!(stats.faults_detected, 1);
        assert_eq!(stats.edges_quarantined, 1);
        assert_eq!(n, c.items().len() + (c.items().len() - 1));
    }

    #[test]
    fn bounded_repair_aborts_on_unattributable_imbalance() {
        let items = clean_items(24, 80, 7);
        let c = FaultPlan::new(4)
            .with(FaultKind::DropDirection, 2)
            .apply(&items);
        let guarded = Guarded::with_validator(
            Probe::new(2, false),
            GuardPolicy::Repair,
            ValidatorMode::Bounded { seed: 5, window: 8 },
        );
        let err = c.try_run(guarded).unwrap_err();
        assert!(matches!(
            err,
            RunError::Invalid {
                pass: 0,
                error: StreamError::UnbalancedEdges { .. }
            }
        ));
    }

    #[test]
    fn split_repair_suppresses_segment_and_quarantines_partners() {
        let items = clean_items(30, 100, 10);
        let c = FaultPlan::new(6)
            .with(FaultKind::SplitList, 1)
            .apply(&items);
        assert!(c.skipped().is_empty());
        let displaced = c.injected()[0].expected_detections - 1;
        let guarded = Guarded::new(Probe::new(2, false), GuardPolicy::Repair);
        let (_, report) = c.try_run(guarded).unwrap();
        let stats = report.guard.unwrap();
        assert_eq!(stats.faults_detected, 1 + displaced);
        assert_eq!(stats.items_repaired, displaced);
        assert_eq!(stats.edges_quarantined, displaced);
    }

    #[test]
    fn guard_runs_under_the_graph_runner_too() {
        use crate::runner::{PassOrders, Runner};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        let g = gen::gnm(20, 70, &mut rng);
        let guarded = Guarded::new(Probe::new(2, true), GuardPolicy::Strict);
        let ((n, _), report) =
            Runner::try_run(&g, guarded, &PassOrders::Same(StreamOrder::shuffled(20, 3))).unwrap();
        assert_eq!(n, 280);
        assert_eq!(report.guard.unwrap().faults_detected, 0);
    }
}
