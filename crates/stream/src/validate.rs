//! Validation of the adjacency-list promise.
//!
//! The model *promises* a particular stream shape; a production system must
//! reject malformed inputs rather than silently miscount on them. One
//! checker enforces that promise, with two offline entry points:
//!
//! * [`OnlineValidator`] — the incremental checker that runs *inside*
//!   ingestion (see [`crate::guard::Guarded`]): items are fed one at a time,
//!   each either accepted or rejected with a [`StreamError`], and the
//!   validator's own state is metered through [`SpaceUsage`] so experiments
//!   can account for its overhead. [Exact mode](OnlineValidator::exact)
//!   runs the local checks per item and keeps each accepted item's
//!   neighbour as a `u32` in stream order, plus one `(owner, length)` per
//!   list (4 B per item, 8 B per list); at [`finish`](OnlineValidator::finish)
//!   it decides symmetry with one sort of packed canonical edge keys
//!   (`min << 32 | max`, a transient 8 B per item) and reports the earliest
//!   unmatched direction. Nothing it allocates is sized by a vertex id.
//!   [Bounded mode](OnlineValidator::bounded) keeps only open-list state, a
//!   recent-list window, and a seeded edge-parity sketch, trading split-list
//!   completeness for `O(Δ + window)` memory.
//! * [`validate_stream`] — exact mode over a whole item sequence,
//!   reserved once from its size hint, for streams that arrive as an
//!   iterator.
//! * [`validate_slice`] — the slice entry to the same exact core, for a
//!   stream already resident as `&[StreamItem]`: the same local checks and
//!   the same symmetry sort, but the stream order is read back from the
//!   slice, so it keeps no neighbour copy and no list table — only the
//!   local-check sets and the 8 B-per-item sort buffer. Every resident
//!   check uses it ([`crate::trace::ItemTrace::new`] and so every
//!   validating decode), and [`crate::runner::run_with_verdict`] runs it
//!   on a second thread while an algorithm's passes run, with the sort
//!   buffer allocated by the calling thread.
//!
//! The online mode stores what it accepted because a repairing
//! [`Guarded`](crate::guard::Guarded) drops items and its end-of-pass
//! symmetry step needs the admitted order (only its first pass stores;
//! later passes run the local checks alone); a resident check stops at its
//! first local violation, so what it accepted is the slice itself. The
//! one-pass [`guard_items`](crate::guard::guard_items) stores nothing
//! either: it runs the local checks over its slice, sorts the keys of the
//! whole slice on a second thread, and takes the keys of the items it
//! rejected back out of the sorted multiset before looking for unmatched
//! ones.
//!
//! The checked promise, for an arbitrary item sequence:
//!
//! 1. no self-loops,
//! 2. all items with the same source are contiguous (the adjacency-list
//!    promise),
//! 3. no neighbor repeats within one list (simple graph),
//! 4. each undirected edge appears exactly twice, once per direction.

use std::collections::VecDeque;

use adjstream_graph::VertexId;

use crate::hashing::{FastSet, HashFn};
use crate::item::StreamItem;
use crate::meter::{hashset_bytes, SpaceUsage};

/// Ways a purported adjacency list stream can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An item `vv`.
    SelfLoop {
        /// Offending vertex.
        vertex: VertexId,
        /// Item index in the stream.
        position: usize,
    },
    /// A source vertex's list resumed after other lists intervened.
    ListNotContiguous {
        /// The vertex whose list was split.
        vertex: VertexId,
        /// Item index where the list resumed.
        position: usize,
    },
    /// The same neighbor occurred twice in one list (multi-edge).
    DuplicateNeighbor {
        /// List owner.
        src: VertexId,
        /// Repeated neighbor.
        dst: VertexId,
        /// Item index of the repeat.
        position: usize,
    },
    /// At end of stream, edge `{u, v}` appeared in only one direction.
    MissingReverse {
        /// The direction that did appear.
        src: VertexId,
        /// Its neighbor.
        dst: VertexId,
    },
    /// At end of stream, the bounded validator's edge-parity sketch was
    /// non-zero but could not be attributed to a single edge: two or more
    /// directed items lack their reverse.
    UnbalancedEdges {
        /// The sketch residue (nonzero XOR of unmatched edge hashes).
        parity: u64,
    },
    /// A later pass replayed a different list order than pass 1 even though
    /// the algorithm declared [`requires_same_order`]. Reported by the
    /// guarded runner, not by single-pass validation.
    ///
    /// [`requires_same_order`]: crate::runner::MultiPassAlgorithm::requires_same_order
    PassOrderChanged {
        /// The 0-based pass whose order diverged from pass 1's.
        pass: usize,
        /// Index of the first diverging adjacency list.
        list_index: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::SelfLoop { vertex, position } => {
                write!(f, "self-loop at vertex {vertex} (item {position})")
            }
            StreamError::ListNotContiguous { vertex, position } => write!(
                f,
                "adjacency list of {vertex} is not contiguous (resumed at item {position})"
            ),
            StreamError::DuplicateNeighbor { src, dst, position } => write!(
                f,
                "neighbor {dst} repeated in list of {src} (item {position})"
            ),
            StreamError::MissingReverse { src, dst } => {
                write!(f, "edge {src}→{dst} never appeared as {dst}→{src}")
            }
            StreamError::UnbalancedEdges { parity } => write!(
                f,
                "edge-parity sketch nonzero ({parity:#x}): two or more directed items lack their reverse"
            ),
            StreamError::PassOrderChanged { pass, list_index } => write!(
                f,
                "pass {} replayed a different list order than pass 1 (first divergence at list {list_index})",
                pass + 1
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl StreamError {
    /// The item index the error was detected at, for errors tied to one
    /// item. End-of-stream errors ([`StreamError::MissingReverse`],
    /// [`StreamError::UnbalancedEdges`]) have no single item and return
    /// `None`.
    pub fn position(&self) -> Option<usize> {
        match self {
            StreamError::SelfLoop { position, .. }
            | StreamError::ListNotContiguous { position, .. }
            | StreamError::DuplicateNeighbor { position, .. } => Some(*position),
            StreamError::MissingReverse { .. }
            | StreamError::UnbalancedEdges { .. }
            | StreamError::PassOrderChanged { .. } => None,
        }
    }
}

/// Pack the canonical (unordered) form of `{a, b}` into a `u64`.
#[inline]
pub(crate) fn pack_edge(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    ((lo as u64) << 32) | hi as u64
}

/// Validate an item sequence against the adjacency-list promise.
///
/// Returns the number of undirected edges on success. This is the iterator
/// entry point to [`OnlineValidator`]'s exact mode: it reserves the
/// stream's size hint, observes every item and finishes, so it stops at
/// the first violation and returns exactly what the online checker does.
pub fn validate_stream<I>(items: I) -> Result<usize, StreamError>
where
    I: IntoIterator<Item = StreamItem>,
{
    let items = items.into_iter();
    let mut validator = OnlineValidator::exact();
    validator.reserve(items.size_hint().0);
    validate_online(&mut validator, items)
}

/// Validate a resident item slice against the adjacency-list promise, in
/// place.
///
/// The slice entry to the exact core: the same local checks as
/// [`OnlineValidator::observe`] and the same symmetry sort as its
/// [`finish`](OnlineValidator::finish), so it returns exactly what
/// [`validate_stream`] returns on the same items. It stops at the first
/// local violation, so when the symmetry step runs every item was
/// accepted and `items` itself is the stream order to rescan: nothing is
/// copied per item but the 8 B canonical key the sort needs.
pub fn validate_slice(items: &[StreamItem]) -> Result<usize, StreamError> {
    validate_slice_with(items, Vec::new())
}

/// [`validate_slice`] sorting in a caller-supplied key buffer, grown to
/// one `u64` per item if it is smaller. A caller that validates on
/// another thread allocates the buffer before spawning it, so the buffer
/// comes from (and returns to) the caller's allocator arena.
pub(crate) fn validate_slice_with(
    items: &[StreamItem],
    keys: Vec<u64>,
) -> Result<usize, StreamError> {
    let mut local = OnlineValidator::exact();
    for &item in items {
        local.check_local(item)?;
    }
    symmetry(keys, || items.iter().map(|it| (it.src, it.dst))).0
}

/// The exact core's symmetry step over an accepted stream, replayed by
/// `stream` in stream order. The local checks leave every directed pair at
/// most once, so each canonical key must occur exactly twice: sort the
/// keys once, keep those that occur once, then rescan the stream for the
/// accepted items whose key was kept. Those are the unmatched directions
/// in first-appearance order; the first is the error.
fn symmetry<I>(
    mut keys: Vec<u64>,
    stream: impl Fn() -> I,
) -> (Result<usize, StreamError>, Vec<(VertexId, VertexId)>)
where
    I: Iterator<Item = (VertexId, VertexId)>,
{
    keys.clear();
    keys.extend(stream().map(|(src, dst)| pack_edge(src, dst)));
    keys.sort_unstable();
    let once = once_keys(&keys, &[]);
    let accepted = keys.len();
    drop(keys);
    if once.is_empty() {
        return (Ok(accepted / 2), Vec::new());
    }
    let unmatched: Vec<(VertexId, VertexId)> = stream()
        .filter(|&(src, dst)| once.binary_search(&pack_edge(src, dst)).is_ok())
        .take(once.len())
        .collect();
    let (src, dst) = unmatched[0];
    (Err(StreamError::MissingReverse { src, dst }), unmatched)
}

/// The keys that occur exactly once in the sorted multiset `sorted` after
/// the sorted sub-multiset `minus` is taken out of it.
pub(crate) fn once_keys(sorted: &[u64], minus: &[u64]) -> Vec<u64> {
    let mut minus = minus.iter().peekable();
    sorted
        .chunk_by(|a, b| a == b)
        .filter_map(|run| {
            let key = run[0];
            let mut left = run.len();
            while minus.next_if_eq(&&key).is_some() {
                left -= 1;
            }
            (left == 1).then_some(key)
        })
        .collect()
}

/// Which bookkeeping strategy an [`OnlineValidator`] uses; see its
/// [`exact`](OnlineValidator::exact) and
/// [`bounded`](OnlineValidator::bounded) constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValidatorMode {
    Exact,
    Bounded {
        /// Seed of the sketch hash function.
        seed: u64,
        /// How many recently closed lists are remembered for split
        /// detection.
        window: usize,
    },
}

/// Incremental checker of the adjacency-list promise.
///
/// Feed every stream item to [`observe`](Self::observe); each call either
/// accepts the item (committing it to the validator's state) or rejects it
/// with the violation. Rejected items are **not** committed, so a caller
/// that drops them (repair mode) leaves the validator consistent with the
/// repaired stream. After the last item, [`finish`](Self::finish) runs the
/// end-of-stream reverse-edge check.
#[derive(Debug, Clone)]
pub struct OnlineValidator {
    mode: ValidatorMode,
    position: usize,
    current: Option<VertexId>,
    current_seen: FastSet<u32>,
    // Exact mode.
    finished: FastSet<u32>,
    /// Neighbour of every accepted item, in stream order.
    neighbours: Vec<u32>,
    /// `(owner, length)` of every opened list, in stream order: each list
    /// holds the next `length` entries of `neighbours`. A list's
    /// neighbours are distinct ids other than its owner, so its length
    /// always fits a `u32`.
    lists: Vec<(u32, u32)>,
    // Bounded mode.
    recent: VecDeque<u32>,
    recent_set: FastSet<u32>,
    sketch_hash: u64,
    sketch_key: u64,
    sketch_items: usize,
    hasher: HashFn,
}

impl OnlineValidator {
    /// An exact validator: every violation is found, each local one at
    /// its earliest detectable item and a missing reverse at the end as
    /// the earliest unmatched direction. Memory: one set entry per list
    /// owner and per neighbour of the open list, 4 B per accepted item and
    /// 8 B per list while streaming, plus an 8 B-per-item sort buffer
    /// while [`finish`](Self::finish) runs. [`validate_stream`] runs one
    /// over a whole sequence.
    pub fn exact() -> Self {
        Self::new(ValidatorMode::Exact)
    }

    /// A bounded-memory validator: open-list state, a window of the
    /// `window` most recently closed lists and an edge-parity sketch
    /// seeded by `seed`, in `O(Δ + window)` memory. It detects self-loops
    /// and duplicate neighbours exactly, a split list only when the list
    /// resumes within `window` closed lists, and missing reverse edges
    /// with probability `1 - 2^{-64}` via the sketch, naming the edge
    /// exactly when a single direction is unmatched and reporting
    /// [`StreamError::UnbalancedEdges`] otherwise.
    pub fn bounded(seed: u64, window: usize) -> Self {
        Self::new(ValidatorMode::Bounded { seed, window })
    }

    fn new(mode: ValidatorMode) -> Self {
        let seed = match mode {
            ValidatorMode::Bounded { seed, .. } => seed,
            ValidatorMode::Exact => 0,
        };
        OnlineValidator {
            mode,
            position: 0,
            current: None,
            current_seen: FastSet::default(),
            finished: FastSet::default(),
            neighbours: Vec::new(),
            lists: Vec::new(),
            recent: VecDeque::new(),
            recent_set: FastSet::default(),
            sketch_hash: 0,
            sketch_key: 0,
            sketch_items: 0,
            hasher: HashFn::from_seed(seed, 0x7A11_DA7E),
        }
    }

    /// Index the next observed item will occupy.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Forget everything; ready to validate a fresh pass. Buffers keep
    /// their capacity, so a multi-pass guard does not regrow them every
    /// pass.
    pub fn reset(&mut self) {
        self.position = 0;
        self.current = None;
        self.current_seen.clear();
        self.finished.clear();
        self.neighbours.clear();
        self.lists.clear();
        self.recent.clear();
        self.recent_set.clear();
        self.sketch_hash = 0;
        self.sketch_key = 0;
        self.sketch_items = 0;
    }

    /// Make room for `items` more accepted items, so a caller that knows
    /// the stream length grows the exact mode's buffer once.
    pub(crate) fn reserve(&mut self, items: usize) {
        if self.mode == ValidatorMode::Exact {
            self.neighbours.reserve(items);
        }
    }

    /// Record that one stream position was consumed without being shown to
    /// the validator (a repaired/suppressed item), keeping subsequently
    /// reported positions aligned with the raw stream.
    pub fn note_suppressed(&mut self) {
        self.position += 1;
    }

    /// Check `item` and, if it honors the promise so far, commit it.
    ///
    /// On `Err` the item is **not** committed: the validator's state is
    /// exactly as if the item had never arrived (its stream position is
    /// still consumed).
    #[inline]
    pub fn observe(&mut self, item: StreamItem) -> Result<(), StreamError> {
        let opened = self.check_local(item)?;
        self.commit(item, opened);
        Ok(())
    }

    /// Commit an `item` that [`check_local`](Self::check_local) accepted,
    /// `opened` being what it returned: what the symmetry step of
    /// [`finish`](Self::finish) reads.
    #[inline]
    pub(crate) fn commit(&mut self, item: StreamItem, opened: bool) {
        match self.mode {
            ValidatorMode::Exact => {
                if opened {
                    self.lists.push((item.src.0, 0));
                }
                self.neighbours.push(item.dst.0);
                let (_, len) = self
                    .lists
                    .last_mut()
                    .expect("an accepted item's list is open");
                *len += 1;
            }
            ValidatorMode::Bounded { .. } => {
                let key = pack_edge(item.src, item.dst);
                self.sketch_hash ^= self.hasher.hash(key);
                self.sketch_key ^= key;
                self.sketch_items += 1;
            }
        }
    }

    /// The local checks of [`observe`](Self::observe) — self-loop,
    /// contiguity, within-list duplicate — with the list bookkeeping they
    /// need, but nothing stored per accepted item. `Ok(true)` when `item`
    /// opened a new list.
    #[inline]
    pub(crate) fn check_local(&mut self, item: StreamItem) -> Result<bool, StreamError> {
        let position = self.position;
        self.position += 1;
        if item.src == item.dst {
            return Err(StreamError::SelfLoop {
                vertex: item.src,
                position,
            });
        }
        let opened = self.current != Some(item.src);
        if opened {
            // The previous list genuinely ended the moment a different
            // source arrived, whether or not the new item survives.
            if let Some(prev) = self.current {
                self.close_list(prev);
            }
            self.current_seen.clear();
            let split = match self.mode {
                ValidatorMode::Exact => self.finished.contains(&item.src.0),
                ValidatorMode::Bounded { .. } => self.recent_set.contains(&item.src.0),
            };
            if split {
                // The offending list stays closed; current remains None so
                // a following item of the same source re-reports (callers
                // quarantine the segment instead, see `guard`).
                self.current = None;
                return Err(StreamError::ListNotContiguous {
                    vertex: item.src,
                    position,
                });
            }
            self.current = Some(item.src);
        }
        if !self.current_seen.insert(item.dst.0) {
            return Err(StreamError::DuplicateNeighbor {
                src: item.src,
                dst: item.dst,
                position,
            });
        }
        Ok(opened)
    }

    fn close_list(&mut self, owner: VertexId) {
        match self.mode {
            ValidatorMode::Exact => {
                self.finished.insert(owner.0);
            }
            ValidatorMode::Bounded { window, .. } => {
                if window > 0 {
                    if self.recent.len() == window {
                        if let Some(old) = self.recent.pop_front() {
                            self.recent_set.remove(&old);
                        }
                    }
                    self.recent.push_back(owner.0);
                    self.recent_set.insert(owner.0);
                }
            }
        }
    }

    /// End-of-stream check. Returns the number of undirected edges on
    /// success (exact mode counts matches; bounded mode derives it from the
    /// accepted item count).
    pub fn finish(&self) -> Result<usize, StreamError> {
        self.finish_with_unmatched().0
    }

    /// Every edge still missing its reverse direction (exact mode), as
    /// `(src, dst)` of the direction that appeared, ordered by first
    /// appearance. Empty in bounded mode — the sketch cannot enumerate.
    pub fn unmatched_edges(&self) -> Vec<(VertexId, VertexId)> {
        self.finish_with_unmatched().1
    }

    /// [`finish`](Self::finish) and [`unmatched_edges`](Self::unmatched_edges)
    /// from one symmetry check. The list is empty on success.
    pub(crate) fn finish_with_unmatched(
        &self,
    ) -> (Result<usize, StreamError>, Vec<(VertexId, VertexId)>) {
        if let ValidatorMode::Bounded { .. } = self.mode {
            return (self.finish_bounded(), Vec::new());
        }
        symmetry(Vec::with_capacity(self.neighbours.len()), || {
            self.accepted_lists()
                .flat_map(|(owner, list)| list.iter().map(move |&dst| (owner, VertexId(dst))))
        })
    }

    /// Every list as its owner and accepted neighbours, in stream order
    /// (exact mode).
    fn accepted_lists(&self) -> impl Iterator<Item = (VertexId, &[u32])> + '_ {
        let mut rest = &self.neighbours[..];
        self.lists.iter().map(move |&(owner, len)| {
            let (list, tail) = rest.split_at(len as usize);
            rest = tail;
            (VertexId(owner), list)
        })
    }

    fn finish_bounded(&self) -> Result<usize, StreamError> {
        if self.sketch_hash == 0 {
            Ok(self.sketch_items / 2)
        } else if self.sketch_key != 0 && self.hasher.hash(self.sketch_key) == self.sketch_hash {
            // Exactly one unmatched direction: the key XOR is that
            // edge itself (verified against the hash XOR).
            Err(StreamError::MissingReverse {
                src: VertexId((self.sketch_key >> 32) as u32),
                dst: VertexId(self.sketch_key as u32),
            })
        } else {
            Err(StreamError::UnbalancedEdges {
                parity: self.sketch_hash,
            })
        }
    }

    /// Bytes [`finish`](Self::finish) allocates on top of
    /// [`space_bytes`](SpaceUsage::space_bytes) while it runs: the exact
    /// mode's sort buffer, one canonical `u64` per accepted item.
    pub(crate) fn finish_bytes(&self) -> usize {
        self.neighbours.len() * std::mem::size_of::<u64>()
    }
}

impl SpaceUsage for OnlineValidator {
    fn space_bytes(&self) -> usize {
        hashset_bytes(&self.current_seen)
            + hashset_bytes(&self.finished)
            + self.neighbours.capacity() * std::mem::size_of::<u32>()
            + self.lists.capacity() * std::mem::size_of::<(u32, u32)>()
            + hashset_bytes(&self.recent_set)
            + self.recent.capacity() * std::mem::size_of::<u32>()
            + 104 // sketch words, cursors, hasher keys, buffer headers
    }
}

/// Drive a full item sequence through an [`OnlineValidator`] (observe every
/// item, then finish). Stops at the first violation.
pub fn validate_online<I>(validator: &mut OnlineValidator, items: I) -> Result<usize, StreamError>
where
    I: IntoIterator<Item = StreamItem>,
{
    for it in items {
        validator.observe(it)?;
    }
    validator.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjlist::AdjListStream;
    use crate::order::StreamOrder;
    use adjstream_graph::gen;

    fn it(s: u32, d: u32) -> StreamItem {
        StreamItem::new(VertexId(s), VertexId(d))
    }

    #[test]
    fn accepts_generated_streams() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::gnm(30, 100, &mut rng);
        for order in [
            StreamOrder::natural(30),
            StreamOrder::reversed(30),
            StreamOrder::shuffled(30, 7),
        ] {
            let s = AdjListStream::new(&g, order);
            assert_eq!(validate_stream(s.items()), Ok(100));
        }
    }

    #[test]
    fn rejects_split_list() {
        // v0's list split by v1's list.
        let items = vec![it(0, 1), it(1, 0), it(1, 2), it(0, 2), it(2, 1), it(2, 0)];
        assert_eq!(
            validate_stream(items),
            Err(StreamError::ListNotContiguous {
                vertex: VertexId(0),
                position: 3
            })
        );
    }

    #[test]
    fn rejects_missing_reverse() {
        let items = vec![it(0, 1), it(0, 2), it(1, 0)];
        assert_eq!(
            validate_stream(items),
            Err(StreamError::MissingReverse {
                src: VertexId(0),
                dst: VertexId(2)
            })
        );
    }

    #[test]
    fn rejects_self_loop() {
        let items = vec![it(0, 0)];
        assert_eq!(
            validate_stream(items),
            Err(StreamError::SelfLoop {
                vertex: VertexId(0),
                position: 0
            })
        );
    }

    #[test]
    fn rejects_duplicate_neighbor() {
        let items = vec![it(0, 1), it(0, 1)];
        assert_eq!(
            validate_stream(items),
            Err(StreamError::DuplicateNeighbor {
                src: VertexId(0),
                dst: VertexId(1),
                position: 1
            })
        );
    }

    #[test]
    fn empty_stream_is_valid() {
        assert_eq!(validate_stream(Vec::new()), Ok(0));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = StreamError::MissingReverse {
            src: VertexId(3),
            dst: VertexId(8),
        };
        assert!(e.to_string().contains("3→8"));
    }

    #[test]
    fn missing_reverse_reports_earliest_unmatched_direction() {
        // Lists: 0: [1, 2, 3]; 1: [0]; but 2 and 3 never reciprocate.
        // Earliest unmatched direction is 0→2 (position 1).
        let items = vec![it(0, 1), it(0, 2), it(0, 3), it(1, 0)];
        assert_eq!(
            validate_stream(items),
            Err(StreamError::MissingReverse {
                src: VertexId(0),
                dst: VertexId(2)
            })
        );
        // Position order, not canonical-key order: 5→9 (position 0, key
        // {5, 9}) beats the later 7→2 (position 3, smaller key {2, 7}).
        let items = vec![it(5, 9), it(5, 1), it(1, 5), it(7, 2)];
        assert_eq!(
            validate_stream(items),
            Err(StreamError::MissingReverse {
                src: VertexId(5),
                dst: VertexId(9)
            })
        );
    }

    // ---- OnlineValidator: exact mode ----

    fn online_exact<I: IntoIterator<Item = StreamItem>>(items: I) -> Result<usize, StreamError> {
        let mut v = OnlineValidator::exact();
        validate_online(&mut v, items)
    }

    #[test]
    fn exact_mode_accepts_generated_streams_and_counts_edges() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::gnm(40, 150, &mut rng);
        let s = AdjListStream::new(&g, StreamOrder::shuffled(40, 11));
        assert_eq!(online_exact(s.items()), Ok(150));
    }

    #[test]
    fn exact_mode_matches_offline_on_malformed_streams() {
        let cases: Vec<Vec<StreamItem>> = vec![
            vec![it(0, 0)],
            vec![it(0, 1), it(0, 1)],
            vec![it(0, 1), it(1, 0), it(1, 2), it(0, 2), it(2, 1), it(2, 0)],
            vec![it(0, 1), it(0, 2), it(1, 0)],
            vec![it(0, 1), it(0, 2), it(0, 3), it(1, 0)],
            vec![],
            vec![it(5, 6), it(6, 5)],
        ];
        for items in cases {
            let offline = validate_stream(items.iter().copied());
            assert_eq!(
                online_exact(items.iter().copied()),
                offline,
                "items {items:?}"
            );
            assert_eq!(validate_slice(&items), offline, "items {items:?}");
            // A caller's buffer is cleared before use: a stale {0, 2} key
            // would otherwise match the missing reverse of 0→2.
            let stale = vec![pack_edge(VertexId(0), VertexId(2))];
            assert_eq!(
                validate_slice_with(&items, stale),
                offline,
                "items {items:?}"
            );
        }
    }

    #[test]
    fn rejected_items_are_not_committed() {
        let mut v = OnlineValidator::exact();
        v.observe(it(0, 1)).unwrap();
        // Duplicate rejected...
        assert!(v.observe(it(0, 1)).is_err());
        // ...so the edge is still just singly-pending, and a later reverse
        // match still succeeds.
        v.observe(it(1, 0)).unwrap();
        assert_eq!(v.finish(), Ok(1));
        assert_eq!(v.position(), 3);
    }

    #[test]
    fn unmatched_edges_enumerates_in_first_appearance_order() {
        let mut v = OnlineValidator::exact();
        for i in [it(0, 1), it(0, 2), it(1, 0), it(2, 3)] {
            v.observe(i).unwrap();
        }
        assert_eq!(
            v.unmatched_edges(),
            vec![(VertexId(0), VertexId(2)), (VertexId(2), VertexId(3))]
        );
    }

    // ---- OnlineValidator: bounded mode ----

    #[test]
    fn bounded_mode_accepts_valid_streams() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let g = gen::gnm(40, 150, &mut rng);
        let s = AdjListStream::new(&g, StreamOrder::shuffled(40, 12));
        let mut v = OnlineValidator::bounded(99, 8);
        assert_eq!(validate_online(&mut v, s.items()), Ok(150));
    }

    #[test]
    fn bounded_mode_detects_single_missing_reverse_with_attribution() {
        // 0: [1, 2]; 1: [0]; 2 never reciprocates.
        let items = vec![it(0, 1), it(0, 2), it(1, 0)];
        let mut v = OnlineValidator::bounded(7, 4);
        assert_eq!(
            validate_online(&mut v, items),
            Err(StreamError::MissingReverse {
                src: VertexId(0),
                dst: VertexId(2)
            })
        );
    }

    #[test]
    fn bounded_mode_flags_multiple_unmatched_as_parity() {
        let items = vec![it(0, 1), it(0, 2), it(0, 3), it(1, 0)];
        let mut v = OnlineValidator::bounded(7, 4);
        assert!(matches!(
            validate_online(&mut v, items),
            Err(StreamError::UnbalancedEdges { .. })
        ));
    }

    #[test]
    fn bounded_mode_detects_splits_within_window() {
        let items = vec![it(0, 1), it(1, 0), it(1, 2), it(0, 2), it(2, 1), it(2, 0)];
        let mut v = OnlineValidator::bounded(3, 4);
        assert_eq!(
            validate_online(&mut v, items.iter().copied()),
            Err(StreamError::ListNotContiguous {
                vertex: VertexId(0),
                position: 3
            })
        );
        // Window 0 remembers nothing: the split escapes the contiguity
        // check (and here the duplicated {0,2} content happens to cancel in
        // the parity sketch two different ways — the stream is edge-balanced).
        let mut v0 = OnlineValidator::bounded(3, 0);
        assert_eq!(validate_online(&mut v0, items), Ok(3));
    }

    #[test]
    fn bounded_mode_space_stays_small() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::gnm(400, 3000, &mut rng);
        let s = AdjListStream::new(&g, StreamOrder::shuffled(400, 13));
        let mut exact = OnlineValidator::exact();
        let mut bounded = OnlineValidator::bounded(1, 16);
        let mut exact_peak = 0;
        let mut bounded_peak = 0;
        for item in s.items() {
            exact.observe(item).unwrap();
            bounded.observe(item).unwrap();
            exact_peak = exact_peak.max(exact.space_bytes());
            bounded_peak = bounded_peak.max(bounded.space_bytes());
        }
        assert_eq!(exact.finish(), Ok(3000));
        assert_eq!(bounded.finish(), Ok(3000));
        assert!(
            bounded_peak * 4 < exact_peak,
            "bounded {bounded_peak} vs exact {exact_peak}"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut v = OnlineValidator::exact();
        v.observe(it(0, 1)).unwrap();
        assert!(v.finish().is_err());
        let bytes = v.space_bytes();
        v.reset();
        assert_eq!(v.position(), 0);
        assert_eq!(v.finish(), Ok(0));
        assert_eq!(v.space_bytes(), bytes, "reset must keep capacity");
        v.observe(it(1, 0)).unwrap();
        assert_eq!(v.unmatched_edges(), vec![(VertexId(1), VertexId(0))]);
    }
}
