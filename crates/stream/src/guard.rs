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
//! The policy rule itself lives in one place, `GuardPolicy::decide`:
//! given a violation and whether dropping it repairs the stream, it says
//! forward, drop, or fail with the error latched. `Guarded` and the update
//! guard ([`crate::update_guard::GuardedUpdate`]) only say what a
//! violation is and what dropping it means.
//!
//! [`guard_items`] is the one-pass guard for a resident stream that is
//! repaired once, upstream of a shard split. It admits and counts exactly
//! what a `Guarded` pass would, but keeps no storing validator: it runs
//! the local checks over the slice itself and sorts the symmetry keys on
//! a second thread meanwhile.
//!
//! [`RunError::Invalid`]: crate::runner::RunError::Invalid

use std::io::{self, Read, Write};

use adjstream_graph::VertexId;

use crate::checkpoint::{
    corrupt, read_bytes, read_u32, read_u64, read_u8, read_usize, write_bytes, write_u32,
    write_u64, write_u8, write_usize, Checkpoint,
};
use crate::hashing::{FastBuildHasher, FastSet, HashFn};
use crate::item::StreamItem;
use crate::meter::{hashset_bytes, SpaceUsage};
use crate::runner::{GuardStats, MultiPassAlgorithm, RunError};
use crate::validate::{once_keys, pack_edge, OnlineValidator, StreamError, ValidatorMode};

/// Serialize a [`GuardPolicy`] as a one-byte tag, its declaration index
/// (shared with the batch and update-guard checkpoints so every layer
/// agrees on the encoding).
pub(crate) fn encode_policy(w: &mut dyn Write, policy: GuardPolicy) -> io::Result<()> {
    write_u8(w, policy as u8)
}

/// Inverse of [`encode_policy`].
pub(crate) fn decode_policy(r: &mut dyn Read) -> io::Result<GuardPolicy> {
    let t = read_u8(r)?;
    GuardPolicy::ALL
        .get(usize::from(t))
        .copied()
        .ok_or_else(|| corrupt(format!("bad guard policy tag {t}")))
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

named_enum! {
    /// How a guard reacts to violations. The declaration order is the
    /// one-byte checkpoint tag; never reorder the variants.
    pub enum GuardPolicy {
        /// Abort the run at the first violation (typed error, never a panic).
        Strict = "strict",
        /// Drop offending items, quarantine unmatched edges, keep running.
        Repair = "repair",
        /// Forward everything untouched; only count violations.
        Observe = "observe",
    }
}

impl GuardPolicy {
    /// The one Strict/Repair/Observe rule every guard applies to a
    /// detected violation `error`. `repairable` says whether dropping the
    /// offending item (or value) restores the stream's contract. On
    /// [`Verdict::Fail`] the error is latched into `fatal`.
    pub(crate) fn decide<E>(self, error: E, repairable: bool, fatal: &mut Option<E>) -> Verdict {
        let verdict = match self {
            GuardPolicy::Observe => Verdict::Forward,
            GuardPolicy::Repair if repairable => Verdict::Drop,
            GuardPolicy::Strict | GuardPolicy::Repair => Verdict::Fail,
        };
        if verdict == Verdict::Fail {
            *fatal = Some(error);
        }
        verdict
    }
}

/// What a guard does with one violation, as ruled by
/// [`GuardPolicy::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Pass the offending item on unchanged (Observe).
    Forward,
    /// Drop the offending item, or the offending value such as a regressed
    /// timestamp, and continue (Repair).
    Drop,
    /// Stop with the violation latched (Strict, or Repair when dropping
    /// cannot restore the contract).
    Fail,
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
    /// contiguity violation, and that violation's verdict.
    suppress: Option<(VertexId, Verdict)>,
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
            suppress: None,
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

    /// Serialize the guard's *cross-pass* state: counters, the quarantine
    /// set, and the pass-1 order fingerprint. Everything else
    /// (`validator`, `suppress`, `pass`, `fatal`) is per-pass state
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
                    write_u32(w, o.0)?;
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
    /// zero, exactly as `begin_pass` leaves them. A count larger than the
    /// rest of `blob` can hold, or a repeated quarantine key, is rejected
    /// as corrupt before anything is allocated for it.
    pub(crate) fn restore_guard_state(&mut self, mut blob: &[u8]) -> io::Result<()> {
        let r = &mut blob;
        self.stats.faults_detected = read_usize(r)?;
        self.stats.items_repaired = read_usize(r)?;
        self.stats.edges_quarantined = read_usize(r)?;
        self.stats.validator_peak_bytes = read_usize(r)?;
        let n = read_count(r, 8)?;
        self.quarantined = FastSet::with_capacity_and_hasher(n, FastBuildHasher::default());
        for _ in 0..n {
            if !self.quarantined.insert(read_u64(r)?) {
                return Err(corrupt("duplicate quarantined edge in guard checkpoint"));
            }
        }
        self.fingerprint = match read_u8(r)? {
            0 => OrderFingerprint::Off,
            1 => {
                let len = read_count(r, 4)?;
                let owners = (0..len)
                    .map(|_| read_u32(r).map(VertexId))
                    .collect::<io::Result<_>>()?;
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

    /// Fold the guard's current bytes, plus `transient` bytes a call is
    /// about to allocate and free, into the peak.
    fn observe_validator_peak(&mut self, transient: usize) {
        let bytes = self.validator_bytes() + transient;
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
        if let Some((owner, verdict)) = self.suppress {
            if owner == src {
                self.validator.note_suppressed();
                if self.pass == 0 {
                    self.stats.items_repaired += 1;
                }
                return verdict == Verdict::Forward;
            }
            self.suppress = None;
        }
        let Err(e) = self.validator.observe(StreamItem::new(src, dst)) else {
            return true;
        };
        if self.pass == 0 {
            self.stats.faults_detected += 1;
        }
        let split = matches!(e, StreamError::ListNotContiguous { .. });
        let verdict = self.policy.decide(e, true, &mut self.fatal);
        if split {
            // The rest of the displaced segment shares this verdict
            // rather than re-reporting every item in it.
            self.suppress = Some((src, verdict));
        }
        match verdict {
            Verdict::Forward => true,
            Verdict::Drop => {
                if self.pass == 0 {
                    self.stats.items_repaired += 1;
                }
                false
            }
            Verdict::Fail => false,
        }
    }

    fn order_violation(&mut self, list_index: usize) {
        self.order_violated = true;
        self.stats.faults_detected += 1;
        let err = StreamError::PassOrderChanged {
            pass: self.pass,
            list_index,
        };
        // A reordered replay cannot be repaired: list positions are the
        // inner algorithm's coordinate system.
        self.policy.decide(err, false, &mut self.fatal);
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
        self.suppress = None;
        match &mut self.fingerprint {
            OrderFingerprint::Exact { replay, .. } => *replay = 0,
            OrderFingerprint::Rolling { current, .. } => *current = 0,
            OrderFingerprint::Off => {}
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
        self.observe_validator_peak(0);
        self.inner.end_list(owner);
    }

    fn end_pass(&mut self, pass: usize) {
        if pass == 0 {
            self.observe_validator_peak(self.validator.finish_bytes());
            let (verdict, unmatched) = self.validator.finish_with_unmatched();
            if let Err(e) = verdict {
                self.stats.faults_detected += unmatched.len().max(1);
                // Exact mode names every unmatched edge; bounded mode can
                // recover at most a single straggler from its sketch. An
                // unattributable imbalance leaves nothing to drop.
                let straggler = match e {
                    StreamError::MissingReverse { src, dst } if unmatched.is_empty() => {
                        Some(pack_edge(src, dst))
                    }
                    _ => None,
                };
                let quarantine: Vec<u64> = unmatched
                    .iter()
                    .map(|&(s, d)| pack_edge(s, d))
                    .chain(straggler)
                    .collect();
                let repairable = !quarantine.is_empty();
                if self.policy.decide(e, repairable, &mut self.fatal) == Verdict::Drop {
                    // Later passes suppress the quarantined survivors.
                    for &key in &quarantine {
                        self.quarantined.insert(key);
                    }
                    self.stats.edges_quarantined += quarantine.len();
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
        self.observe_validator_peak(0);
        self.inner.end_pass(pass);
    }

    fn abort_error(&self) -> Option<StreamError> {
        self.fatal.clone()
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
        guarded.restore_guard_state(&guard_blob)?;
        Ok(guarded)
    }
}

/// Run `items` once through a guard under `policy` and collect what it
/// admits — the repaired stream under Repair, the input unchanged under
/// Observe, the first violation as an error under Strict — with the
/// guard's counters. Repairing once, upstream of a shard split, lets every
/// shard replay the same items.
///
/// It admits, counts and fails exactly as a [`Guarded`] pass over `items`
/// would, without a storing validator. The calling thread runs the local
/// checks over the resident slice, copies out the admitted stretches and
/// records the canonical key of each item the checks did not accept;
/// meanwhile a second thread sorts the keys of the whole slice. A key
/// left with one item once the rejected keys are taken out is an
/// unmatched edge. Each counts as a fault, and under Strict the earliest
/// unmatched direction in the slice is the error, as
/// [`OnlineValidator::finish`] reports it. `validator_peak_bytes` counts
/// the local-check sets, the 8 B-per-item key buffer and 8 B per rejected
/// item.
///
/// The repaired stream is not promise-valid. The one pass drops what the
/// guard rejects as it arrives (a duplicate, a self-loop, a split list's
/// displaced segment), but a widowed edge, whose reverse never arrives,
/// is found unmatched only at the end of the pass, after its surviving
/// direction was admitted: it is quarantined and counted, yet stays in
/// the output, because there is no later pass to suppress it in.
pub fn guard_items(
    items: &[StreamItem],
    policy: GuardPolicy,
) -> Result<(Vec<StreamItem>, GuardStats), RunError> {
    let invalid = |error| RunError::Invalid { pass: 0, error };
    // The key buffer is allocated here, before the spawn, as in
    // `run_with_verdict`: a buffer the sorting thread allocated would stay
    // cached in that thread's malloc arena after it is freed.
    let mut keys = Vec::with_capacity(items.len());
    let key_bytes = keys.capacity() * std::mem::size_of::<u64>();
    std::thread::scope(|scope| {
        let sorted = scope.spawn(move || {
            keys.extend(items.iter().map(|it| pack_edge(it.src, it.dst)));
            keys.sort_unstable();
            keys
        });
        let local = check_locally(items, policy);
        let keys = sorted
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let LocalPass {
            admitted,
            mut rejected,
            mut stats,
        } = local.map_err(invalid)?;
        stats.validator_peak_bytes += key_bytes + rejected.capacity() * std::mem::size_of::<u64>();
        rejected.sort_unstable();
        let once = once_keys(&keys, &rejected);
        if !once.is_empty() {
            stats.faults_detected += once.len();
            match policy.decide((), true, &mut None) {
                Verdict::Drop => stats.edges_quarantined += once.len(),
                Verdict::Forward => {}
                // Strict stops at the first local violation, so here it
                // rejected nothing and the slice is the accepted stream.
                Verdict::Fail => {
                    let first = items
                        .iter()
                        .find(|it| once.binary_search(&pack_edge(it.src, it.dst)).is_ok())
                        .expect("an unmatched key has an accepted item");
                    return Err(invalid(StreamError::MissingReverse {
                        src: first.src,
                        dst: first.dst,
                    }));
                }
            }
        }
        Ok((admitted, stats))
    })
}

/// What the local checks of one pass admit, before the symmetry step.
struct LocalPass {
    /// The admitted items, in stream order.
    admitted: Vec<StreamItem>,
    /// Canonical keys of the items the validator did not accept: the
    /// dropped ones, and under Observe the forwarded violations too.
    rejected: Vec<u64>,
    /// The counters so far; `validator_peak_bytes` holds the local-check
    /// sets, whose capacity only grows.
    stats: GuardStats,
}

/// The local half of a [`Guarded`] pass over `items`: the same checks,
/// the same split-segment suppression and the same policy rule as
/// `Guarded::admit`, with nothing stored per accepted item. Under Strict
/// it stops at the first violation.
fn check_locally(items: &[StreamItem], policy: GuardPolicy) -> Result<LocalPass, StreamError> {
    let mut validator = OnlineValidator::exact();
    let mut admitted = Vec::with_capacity(items.len());
    let mut rejected = Vec::new();
    let mut stats = GuardStats::default();
    let mut fatal = None;
    // Owner of a split list's displaced segment, and its verdict.
    let mut suppress: Option<(VertexId, Verdict)> = None;
    let mut stretch = 0;
    for (i, &item) in items.iter().enumerate() {
        let verdict = match suppress {
            Some((owner, verdict)) if owner == item.src => {
                validator.note_suppressed();
                stats.items_repaired += 1;
                verdict
            }
            _ => {
                suppress = None;
                let Err(e) = validator.check_local(item) else {
                    continue;
                };
                stats.faults_detected += 1;
                let split = matches!(e, StreamError::ListNotContiguous { .. });
                let verdict = policy.decide(e, true, &mut fatal);
                if split {
                    suppress = Some((item.src, verdict));
                }
                if verdict == Verdict::Drop {
                    stats.items_repaired += 1;
                }
                verdict
            }
        };
        match verdict {
            Verdict::Forward => {}
            Verdict::Drop => {
                admitted.extend_from_slice(&items[stretch..i]);
                stretch = i + 1;
            }
            Verdict::Fail => return Err(fatal.expect("a failed verdict is latched")),
        }
        rejected.push(pack_edge(item.src, item.dst));
    }
    admitted.extend_from_slice(&items[stretch..]);
    stats.validator_peak_bytes = validator.space_bytes();
    Ok(LocalPass {
        admitted,
        rejected,
        stats,
    })
}

/// Read a count of `width`-byte entries, rejecting one the rest of `r`
/// cannot hold.
fn read_count(r: &mut &[u8], width: usize) -> io::Result<usize> {
    let n = read_usize(r)?;
    if n > r.len() / width {
        return Err(corrupt(format!(
            "count {n} exceeds the {} bytes left in the guard checkpoint",
            r.len()
        )));
    }
    Ok(n)
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

    #[test]
    fn restore_rejects_oversized_counts_and_duplicate_quarantine_keys() {
        fn words(ws: &[u64]) -> Vec<u8> {
            ws.iter().flat_map(|w| w.to_le_bytes()).collect()
        }
        let restore = |blob: &[u8]| {
            Guarded::new(Probe::new(2, true), GuardPolicy::Repair).restore_guard_state(blob)
        };
        // Four counters, a quarantine of two keys, the order fingerprint.
        let mut good = words(&[3, 1, 2, 64, 2, 7, 9]);
        good.extend([1]);
        good.extend(words(&[1]));
        good.extend(5u32.to_le_bytes());
        good.push(0);
        restore(&good).expect("well-formed blob");

        let mut huge_quarantine = words(&[3, 1, 2, 64, 1 << 40, 7]);
        huge_quarantine.extend([0, 0]);
        let mut huge_owners = words(&[3, 1, 2, 64, 0]);
        huge_owners.push(1);
        huge_owners.extend(words(&[1 << 40]));
        huge_owners.extend(5u32.to_le_bytes());
        let mut duplicate = words(&[3, 1, 2, 64, 2, 7, 7]);
        duplicate.extend([0, 0]);
        for (blob, want) in [
            (huge_quarantine, "count 1099511627776 exceeds"),
            (huge_owners, "count 1099511627776 exceeds"),
            (duplicate, "duplicate quarantined edge"),
        ] {
            let err = restore(&blob).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    /// The storing path `guard_items` replaced, kept as its reference: one
    /// guarded pass over a collector of the admitted items.
    fn guard_items_reference(
        items: &[StreamItem],
        policy: GuardPolicy,
    ) -> Result<(Vec<StreamItem>, GuardStats), RunError> {
        let guard = Guarded::new(Admitted(Vec::new()), policy);
        let (admitted, report) = run_slice_passes(guard, |_pass| items)?;
        Ok((admitted, report.guard.unwrap_or_default()))
    }

    struct Admitted(Vec<StreamItem>);

    impl SpaceUsage for Admitted {
        fn space_bytes(&self) -> usize {
            self.0.len() * std::mem::size_of::<StreamItem>()
        }
    }

    impl MultiPassAlgorithm for Admitted {
        type Output = Vec<StreamItem>;
        fn passes(&self) -> usize {
            1
        }
        fn begin_pass(&mut self, _pass: usize) {}
        fn item(&mut self, src: VertexId, dst: VertexId) {
            self.0.push(StreamItem::new(src, dst));
        }
        fn finish(self) -> Vec<StreamItem> {
            self.0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// `guard_items` admits, counts and fails exactly as the guarded
        /// pass it replaced, under every policy and any composed plan.
        /// Only `validator_peak_bytes` differs: the two keep different
        /// state.
        #[test]
        fn guard_items_matches_the_guarded_pass(
            n in 6usize..40,
            m_raw in 0usize..140,
            gseed in proptest::prelude::any::<u64>(),
            fseed in proptest::prelude::any::<u64>(),
            counts in proptest::prop::collection::vec(
                0usize..3,
                FaultKind::ALL.len()..FaultKind::ALL.len() + 1,
            ),
        ) {
            let items = clean_items(n, m_raw.min(n * (n - 1) / 2), gseed);
            let plan = FaultKind::ALL
                .into_iter()
                .zip(counts)
                .fold(FaultPlan::new(fseed), |plan, (kind, count)| plan.with(kind, count));
            let c = plan.apply(&items);
            let semantic = |result: Result<(Vec<StreamItem>, GuardStats), RunError>| {
                result.map(|(admitted, stats)| {
                    (admitted, GuardStats { validator_peak_bytes: 0, ..stats })
                })
            };
            for policy in GuardPolicy::ALL {
                let want = semantic(guard_items_reference(c.items(), policy));
                let got = semantic(guard_items(c.items(), policy));
                proptest::prop_assert_eq!(got, want, "{} under {}", plan_label(&c), policy);
            }
        }
    }

    fn plan_label(c: &crate::fault::CorruptedStream) -> String {
        let kinds: Vec<String> = c.injected().iter().map(|f| f.kind.to_string()).collect();
        kinds.join(",")
    }

    #[test]
    fn guard_items_repairs_once_and_reports_the_guard_counters() {
        let items = clean_items(24, 80, 5);
        let c = FaultPlan::new(12)
            .with(FaultKind::DropDirection, 2)
            .with(FaultKind::DuplicateItem, 1)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        let (fixed, stats) = guard_items(c.items(), GuardPolicy::Repair).unwrap();
        assert_eq!(stats.faults_detected, c.expected_detections());
        // The duplicate and the self-loop are dropped; a single pass
        // quarantines the two widowed edges but has no later pass to
        // suppress them in.
        assert_eq!(fixed.len(), c.items().len() - 2);
        let (all, observed) = guard_items(c.items(), GuardPolicy::Observe).unwrap();
        assert_eq!(all, c.items());
        assert_eq!(observed.faults_detected, stats.faults_detected);
        let err = guard_items(c.items(), GuardPolicy::Strict).unwrap_err();
        assert!(matches!(err, RunError::Invalid { pass: 0, .. }), "{err:?}");
    }
}
