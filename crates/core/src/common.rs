//! Shared machinery: the pair-completion watcher and sampling configuration.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_u32, read_u64, read_usize, write_u32, write_u64, write_usize, Checkpoint,
};
use adjstream_stream::hashing::{FastBuildHasher, FastMap, FastSet};
use adjstream_stream::meter::{hashmap_bytes, vec_bytes, SpaceUsage};
use adjstream_stream::obs::ObsCounters;

/// How the first-pass edge sample `S` is drawn (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeSampling {
    /// Hash-threshold (Bernoulli) sampling: every edge independently with
    /// probability `p`. `|S| ~ Binomial(m, p)`; no evictions, so downstream
    /// reservoirs are exactly uniform.
    Threshold {
        /// Inclusion probability.
        p: f64,
    },
    /// Bottom-k hashing: `S` is exactly the `k` smallest-hashed edges — the
    /// paper's fixed-size uniform subset. Evictions mid-pass purge dependent
    /// state.
    BottomK {
        /// Sample size `m′`.
        k: usize,
    },
}

/// Push `val` onto `map[key]`, returning the byte-accounting delta of the
/// map's inner vectors' buffers: `elem_bytes` per unit of capacity growth.
/// Each `Vec` header is already in the map's own entry, which
/// [`hashmap_bytes`] meters. Callers accumulate the deltas (and subtract
/// `capacity · elem_bytes` on entry removal) so
/// [`SpaceUsage::space_bytes`] stays O(1) instead of rescanning every value
/// — the rescan was the dominant cost of peak metering on large budgets.
/// The vacant arm reproduces `entry(k).or_default().push(v)` exactly, so
/// capacities (and hence reported bytes) are identical to the old scan.
pub(crate) fn push_map_vec<K, T, S>(
    map: &mut HashMap<K, Vec<T>, S>,
    key: K,
    val: T,
    elem_bytes: usize,
) -> usize
where
    K: Eq + std::hash::Hash,
    S: std::hash::BuildHasher,
{
    use std::collections::hash_map::Entry;
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            let v = e.get_mut();
            let before = v.capacity();
            v.push(val);
            (v.capacity() - before) * elem_bytes
        }
        Entry::Vacant(e) => {
            let v = e.insert(Vec::new());
            v.push(val);
            v.capacity() * elem_bytes
        }
    }
}

/// Watches vertex pairs for *completion*: a watched pair `{a, b}` completes
/// in the adjacency list of `z` when both `a` and `b` occur in that list
/// (equivalently, `z` is adjacent to both — so `z` closes a triangle over an
/// edge `{a,b}`, or a 4-cycle over a wedge with leaves `{a,b}`).
///
/// This is the "two extra bits per edge" flagging technique of Section 3.3.1
/// generalized to arbitrary vertex pairs (Section 4 watches wedge leaf pairs
/// that need not be edges). Pairs are refcounted so several consumers can
/// watch the same pair; completion is reported once per (pair, list).
///
/// Layout: a slot table. `index` finds a packed pair's slot in `slots`,
/// which holds the pair's endpoints and refcount; `epochs` holds
/// each slot's per-list hit epoch in a dense array of its own; `incident`
/// lists, per vertex, the slots of the pairs containing it: the first two
/// in the map entry itself, and the rest of a longer list in a `spill`
/// vector under the same vertex. Most vertices are in one or two
/// watched pairs, so most lists need no heap vector at all.
/// [`PairWatcher::on_item`] makes one map probe per item and then indexes
/// `epochs` directly, so the completion flag is an array read, not a hash
/// lookup, and a slot's pair is read only when it completes. Released
/// slots form a last-in first-out chain through the vacant slots. A slot
/// names one pair for as long as the pair is watched, and each completion
/// is reported with its slot, so a caller can index per-pair state by it.
/// Completion order = incident order: completions fire in the order of
/// the item's incident list, which grows by push on watch and shrinks by
/// `swap_remove` on the last unwatch.
#[derive(Debug, Default)]
pub struct PairWatcher {
    /// packed pair → slot in `slots`.
    index: PairIndex,
    /// Watched pairs by slot. A vacant slot has no refs, and its `lo`
    /// names the next vacant slot of the free chain.
    slots: Vec<Watched>,
    /// Per slot: epoch of the pair's last single hit; completion when an
    /// endpoint arrives while this equals the current list's epoch.
    epochs: Vec<u32>,
    /// The most recently released slot, reused first.
    free_head: Option<u32>,
    /// vertex → slots of the pairs containing it, in completion order.
    incident: FastMap<u32, Incident>,
    /// vertex → the slots of its incident list past the first [`INLINE`],
    /// for the lists that are longer.
    spill: FastMap<u32, Vec<u32>>,
    /// Bytes of the `spill` vectors' buffers, maintained incrementally;
    /// their headers are in `spill`'s entries.
    spill_bytes: usize,
    epoch: u32,
    /// Lifetime watch registrations (refcount acquisitions).
    watches_started: u64,
    /// Lifetime watch releases (refcount drops).
    watches_retired: u64,
}

/// One slot of the [`PairWatcher`] table.
#[derive(Debug, Clone, Copy)]
struct Watched {
    /// The pair's lower endpoint; in a vacant slot, the next vacant slot
    /// or [`NO_SLOT`].
    lo: u32,
    /// The pair's higher endpoint.
    hi: u32,
    /// Number of watchers; zero in a vacant slot.
    refs: u32,
}

impl Watched {
    /// The packed pair.
    fn key(self) -> u64 {
        (u64::from(self.lo) << 32) | u64::from(self.hi)
    }
}

/// No slot: the end of the free chain.
const NO_SLOT: u32 = u32::MAX;

/// Slot ids an incident list holds in place; a longer list keeps the rest
/// in the watcher's `spill`.
const INLINE: usize = 2;

/// One vertex's incident list: its length, and its first [`INLINE`] slot
/// ids in place.
#[derive(Debug, Clone, Copy)]
struct Incident {
    /// Slot ids in the list, in place and spilled.
    len: u32,
    /// The first `min(len, INLINE)` slot ids.
    head: [u32; INLINE],
}

// An incident entry is no larger than a `(vertex, Vec<u32>)` entry, the
// size `PairWatcher::restore` computes its capped reserve from.
const _: () =
    assert!(std::mem::size_of::<(u32, Incident)>() <= std::mem::size_of::<(u32, Vec<u32>)>());

impl Incident {
    /// The slot ids held in place.
    fn head(&self) -> &[u32] {
        &self.head[..(self.len as usize).min(INLINE)]
    }

    /// The slot ids past the first [`INLINE`]: `spill`'s entry for the
    /// list's vertex `v`, if the list is that long.
    fn tail<'a>(&self, v: u32, spill: &'a FastMap<u32, Vec<u32>>) -> &'a [u32] {
        if self.len as usize > INLINE {
            &spill[&v]
        } else {
            &[]
        }
    }
}

/// The [`PairWatcher`]'s pair → slot index: an open-addressed table of slot
/// ids under linear probing, 4 bytes a bucket. A bucket holds no key: the
/// pair is read from its slot, so every call passes the slot table, whose
/// occupied slots must hold the pairs the index names. Deletion shifts the
/// rest of the probe run back, so the table never holds tombstones.
#[derive(Debug, Default)]
struct PairIndex {
    /// Slot ids, or [`NO_SLOT`] in an empty bucket. The length is zero or
    /// a power of two, and at most 3/4 of the buckets are full.
    buckets: Vec<u32>,
    /// Full buckets.
    len: usize,
}

/// Buckets of a [`PairIndex`]'s first table.
const MIN_BUCKETS: usize = 8;

impl PairIndex {
    /// The bucket where the probe for `key` starts.
    fn home(&self, key: u64) -> usize {
        use std::hash::BuildHasher;
        FastBuildHasher::default().hash_one(key) as usize & (self.buckets.len() - 1)
    }

    /// The bucket holding `key`'s slot, or `None`.
    fn bucket(&self, key: u64, slots: &[Watched]) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.buckets[i] {
                NO_SLOT => return None,
                slot if slots[slot as usize].key() == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot of `key`, or `None`.
    fn get(&self, key: u64, slots: &[Watched]) -> Option<u32> {
        self.bucket(key, slots).map(|i| self.buckets[i])
    }

    /// Add `slot`, whose pair the index does not hold yet.
    fn insert(&mut self, slot: u32, slots: &[Watched]) {
        if (self.len + 1) * 4 > self.buckets.len() * 3 {
            self.grow(slots);
        }
        self.place(slot, slots);
        self.len += 1;
    }

    /// Put `slot` in the first empty bucket of its pair's probe run.
    fn place(&mut self, slot: u32, slots: &[Watched]) {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(slots[slot as usize].key());
        while self.buckets[i] != NO_SLOT {
            i = (i + 1) & mask;
        }
        self.buckets[i] = slot;
    }

    /// Double the table (or make the first one) and re-place every slot.
    fn grow(&mut self, slots: &[Watched]) {
        let size = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![NO_SLOT; size]);
        for slot in old.into_iter().filter(|&s| s != NO_SLOT) {
            self.place(slot, slots);
        }
    }

    /// Empty the full bucket `found`. Each later entry of the probe run
    /// moves back into the gap if its home bucket allows, so every
    /// remaining key stays reachable from its home.
    fn remove(&mut self, found: usize, slots: &[Watched]) {
        let mask = self.buckets.len() - 1;
        let (mut hole, mut i) = (found, found);
        loop {
            i = (i + 1) & mask;
            let moved = self.buckets[i];
            if moved == NO_SLOT {
                break;
            }
            let home = self.home(slots[moved as usize].key());
            // The hole lies on the probe path from `home` to `i`.
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.buckets[hole] = moved;
                hole = i;
            }
        }
        self.buckets[hole] = NO_SLOT;
        self.len -= 1;
    }
}

/// Pack an unordered vertex pair (canonical ascending).
#[inline]
pub fn pack_pair(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
    ((lo.0 as u64) << 32) | hi.0 as u64
}

/// Unpack a canonical vertex pair.
#[inline]
pub fn unpack_pair(p: u64) -> (VertexId, VertexId) {
    (VertexId((p >> 32) as u32), VertexId(p as u32))
}

impl PairWatcher {
    /// An empty watcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin watching the pair `{a, b}` (increments its refcount), and
    /// return its slot.
    pub fn watch(&mut self, a: VertexId, b: VertexId) -> u32 {
        self.watches_started += 1;
        let key = pack_pair(a, b);
        if let Some(slot) = self.index.get(key, &self.slots) {
            self.slots[slot as usize].refs += 1;
            return slot;
        }
        let (lo, hi) = unpack_pair(key);
        let fresh = Watched {
            lo: lo.0,
            hi: hi.0,
            refs: 1,
        };
        // An epoch unequal to the current one: the pair has not been hit in
        // this list, even if its slot was released mid-list and reused.
        let unhit = self.epoch.wrapping_sub(1);
        let slot = match self.free_head {
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NO_SLOT)
                    .expect("fewer than 2^32 - 1 watched pairs");
                self.slots.push(fresh);
                self.epochs.push(unhit);
                slot
            }
            Some(slot) => {
                let vacant = &mut self.slots[slot as usize];
                self.free_head = Some(vacant.lo).filter(|&next| next != NO_SLOT);
                *vacant = fresh;
                self.epochs[slot as usize] = unhit;
                slot
            }
        };
        self.index.insert(slot, &self.slots);
        self.push_incident(lo.0, slot);
        self.push_incident(hi.0, slot);
        slot
    }

    /// Append `slot` to `v`'s incident list, as `Vec::push` would.
    fn push_incident(&mut self, v: u32, slot: u32) {
        use std::collections::hash_map::Entry;
        match self.incident.entry(v) {
            Entry::Vacant(e) => {
                let mut head = [NO_SLOT; INLINE];
                head[0] = slot;
                e.insert(Incident { len: 1, head });
            }
            Entry::Occupied(mut e) => {
                let list = e.get_mut();
                let len = list.len as usize;
                if len < INLINE {
                    list.head[len] = slot;
                } else {
                    let tail = self.spill.entry(v).or_default();
                    let before = tail.capacity();
                    tail.push(slot);
                    self.spill_bytes += (tail.capacity() - before) * 4;
                }
                list.len += 1;
            }
        }
    }

    /// Remove the first `slot` from `v`'s incident list as
    /// `Vec::swap_remove` would: the list's last slot id takes its place.
    fn remove_incident(&mut self, v: u32, slot: u32) {
        let list = self.incident.get_mut(&v).expect("incident list exists");
        let last = list.len as usize - 1;
        let mut tail =
            (last >= INLINE).then(|| self.spill.get_mut(&v).expect("a long list spills"));
        let pos = list
            .head()
            .iter()
            .chain(tail.iter().flat_map(|t| t.iter()))
            .position(|&s| s == slot)
            .expect("pair in list");
        let moved = match &mut tail {
            Some(t) => t.pop().expect("a spill is not empty"),
            None => list.head[last],
        };
        if pos < last {
            match pos.checked_sub(INLINE) {
                None => list.head[pos] = moved,
                Some(i) => tail.as_mut().expect("the list spills past `pos`")[i] = moved,
            }
        }
        list.len -= 1;
        if list.len == 0 {
            self.incident.remove(&v);
        }
        if tail.is_some_and(|t| t.is_empty()) {
            let dead = self.spill.remove(&v).expect("just seen");
            self.spill_bytes -= dead.capacity() * 4;
        }
    }

    /// Stop one watch of `{a, b}`; fully unregisters at refcount zero.
    pub fn unwatch(&mut self, a: VertexId, b: VertexId) {
        self.watches_retired += 1;
        let key = pack_pair(a, b);
        let bucket = self
            .index
            .bucket(key, &self.slots)
            .expect("unwatch of unwatched pair");
        let slot = self.index.buckets[bucket];
        let watched = &mut self.slots[slot as usize];
        watched.refs -= 1;
        if watched.refs == 0 {
            let (lo, hi) = (watched.lo, watched.hi);
            // The index reads the pair from its slot, so it lets go of the
            // slot before the free chain takes it.
            self.index.remove(bucket, &self.slots);
            self.slots[slot as usize].lo = self.free_head.replace(slot).unwrap_or(NO_SLOT);
            self.remove_incident(lo, slot);
            self.remove_incident(hi, slot);
        }
    }

    /// The slot of the watched pair packed as `key`, which
    /// [`PairWatcher::on_item`] reports with its completions.
    pub fn slot(&self, key: u64) -> Option<u32> {
        self.index.get(key, &self.slots)
    }

    /// Rebuild the watcher from its contents alone: the watched pairs
    /// renumbered densely in slot order, every table sized for what it
    /// holds and filled in vertex order, and no pair hit. Two watchers with
    /// the same pairs, refcounts and incident lists compact to the same
    /// layout, whatever their histories, so they meter the same bytes
    /// from then on; a watcher restored from this one's save is such a
    /// one. Incident order is kept, so completions come in the same order.
    /// Call it between lists. Returns each new slot's old slot.
    pub fn compact(&mut self) -> Vec<u32> {
        let old: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&s| self.slots[s as usize].refs > 0)
            .collect();
        let mut new_of = vec![NO_SLOT; self.slots.len()];
        for (new, &o) in old.iter().enumerate() {
            new_of[o as usize] = new as u32;
        }
        self.slots = old.iter().map(|&o| self.slots[o as usize]).collect();
        self.epochs = vec![u32::MAX; old.len()];
        self.epoch = 0;
        self.free_head = None;
        self.index = PairIndex::default();
        for slot in 0..old.len() as u32 {
            self.index.insert(slot, &self.slots);
        }
        // A hash map's layout, and so its capacity as its entries come and
        // go, depends on the order its keys went in.
        let renumber =
            |slots: &[u32]| -> Vec<u32> { slots.iter().map(|&s| new_of[s as usize]).collect() };
        let mut lists: Vec<(u32, Incident)> = self.incident.drain().collect();
        lists.sort_unstable_by_key(|&(v, _)| v);
        let mut spill = std::mem::take(&mut self.spill);
        self.incident = FastMap::with_capacity_and_hasher(lists.len(), FastBuildHasher::default());
        self.spill_bytes = 0;
        for (v, mut list) in lists {
            let head = renumber(list.head());
            list.head[..head.len()].copy_from_slice(&head);
            self.incident.insert(v, list);
            if let Some(tail) = spill.remove(&v) {
                let tail = renumber(&tail);
                self.spill_bytes += tail.capacity() * 4;
                self.spill.insert(v, tail);
            }
        }
        old
    }

    /// The pair watched at `slot`, packed, or `None` for a vacant slot.
    pub fn pair(&self, slot: u32) -> Option<u64> {
        self.slots
            .get(slot as usize)
            .filter(|w| w.refs > 0)
            .map(|w| w.key())
    }

    /// The watch count of the pair packed as `key`: zero if unwatched.
    pub fn refs(&self, key: u64) -> u32 {
        self.slot(key)
            .map_or(0, |slot| self.slots[slot as usize].refs)
    }

    /// Number of distinct watched pairs.
    pub fn watched_pairs(&self) -> usize {
        self.index.len
    }

    /// Lifetime watch/unwatch counters, in [`ObsCounters`] shape (only the
    /// watcher fields are populated; callers merge in their own).
    pub fn obs_counters(&self) -> ObsCounters {
        ObsCounters {
            watches_started: self.watches_started,
            watches_retired: self.watches_retired,
            ..ObsCounters::default()
        }
    }

    /// A new adjacency list is starting: reset per-list hit state.
    pub fn begin_list(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Process one item `src → x` of the current list; invoke
    /// `completed(key, slot)` for every watched pair whose second endpoint
    /// this is (i.e. both endpoints now seen in the current list), with the
    /// packed pair and its slot.
    pub fn on_item<F: FnMut(u64, u32)>(&mut self, x: VertexId, mut completed: F) {
        let Some(list) = self.incident.get(&x.0) else {
            return;
        };
        let mut visit = |slot: u32| {
            let epoch = &mut self.epochs[slot as usize];
            if *epoch == self.epoch {
                // Second endpoint within the same list: completion. Bump
                // past the epoch so a (malformed) triple hit wouldn't
                // re-report; valid streams never do this.
                *epoch = self.epoch.wrapping_add(u32::MAX / 2);
                completed(self.slots[slot as usize].key(), slot);
            } else {
                *epoch = self.epoch;
            }
        };
        for &slot in list.head() {
            visit(slot);
        }
        for &slot in list.tail(x.0, &self.spill) {
            visit(slot);
        }
    }
}

/// Bytes [`read_seq`] reserves at most before reading any element.
const READ_SEQ_RESERVE_BYTES: usize = 1 << 20;

/// Elements of type `T` (a map's `(key, value)`) to reserve for a saved
/// count of `n`: [`read_seq`] and every restore that preallocates from a
/// saved count reserve this many.
pub(crate) fn seq_reserve<T>(n: usize) -> usize {
    n.min(READ_SEQ_RESERVE_BYTES / std::mem::size_of::<T>().max(1))
}

/// Read a length-prefixed sequence of `elem`s. Preallocation is capped at
/// [`READ_SEQ_RESERVE_BYTES`], so a corrupt length reserves at most that
/// much; beyond it the vector grows only as elements are actually read.
pub(crate) fn read_seq<T>(
    r: &mut dyn Read,
    mut elem: impl FnMut(&mut dyn Read) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let n = read_usize(r)?;
    let mut out = Vec::with_capacity(seq_reserve::<T>(n));
    for _ in 0..n {
        out.push(elem(r)?);
    }
    Ok(out)
}

/// Count elements shared by two neighbor sets, probing the smaller list
/// against a hash set of the larger — the common-neighbor step of the
/// local sampling estimators (TRIÈST-style and random-order). Extracted so
/// the callers share one scratch-set idiom instead of rebuilding it ad hoc.
pub(crate) fn count_common_neighbors(a: &[u32], b: &[u32]) -> u64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let large: FastSet<u32> = large.iter().copied().collect();
    small.iter().filter(|x| large.contains(x)).count() as u64
}

impl SpaceUsage for PairWatcher {
    fn space_bytes(&self) -> usize {
        vec_bytes(&self.index.buckets)
            + vec_bytes(&self.slots)
            + vec_bytes(&self.epochs)
            + hashmap_bytes(&self.incident)
            + hashmap_bytes(&self.spill)
            + self.spill_bytes
    }
}

/// Pass-boundary serialization, in pair keys rather than slot ids. The
/// per-list hit epochs are deliberately *not* saved: at an adjacency-list
/// boundary a stale hit is behaviorally identical to no hit (the next
/// `begin_list` bumps the epoch, so both set the current epoch on the first
/// sighting), and dropping them keeps the checkpoint free of mid-list
/// state. The `incident` vectors are saved in order — completion callbacks
/// fire in that order, which downstream reservoirs observe.
impl Checkpoint for PairWatcher {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.index.len)?;
        for watched in self.slots.iter().filter(|w| w.refs > 0) {
            write_u64(w, watched.key())?;
            write_u32(w, watched.refs)?;
        }
        write_usize(w, self.incident.len())?;
        for (&v, list) in &self.incident {
            write_u32(w, v)?;
            write_usize(w, list.len as usize)?;
            for &slot in list.head().iter().chain(list.tail(v, &self.spill)) {
                write_u64(w, self.slots[slot as usize].key())?;
            }
        }
        write_u64(w, self.watches_started)?;
        write_u64(w, self.watches_retired)?;
        Ok(())
    }

    /// Rebuilds the slot table and checks the incident index: every watched
    /// pair is listed exactly once under each of its endpoints and nowhere
    /// else, so a later `unwatch` always finds what it removes.
    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let n = read_usize(r)?;
        // Reserved as one 16-byte slot and epoch, so `slots` and `epochs`
        // share one capacity.
        let mut slots = Vec::with_capacity(seq_reserve::<(Watched, u32)>(n));
        let mut index = PairIndex::default();
        for _ in 0..n {
            let key = read_u64(r)?;
            let refs = read_u32(r)?;
            if refs == 0 {
                return Err(corrupt("watched pair with zero refcount"));
            }
            if index.get(key, &slots).is_some() {
                return Err(corrupt("pair watched twice"));
            }
            let slot = u32::try_from(slots.len())
                .ok()
                .filter(|&s| s != NO_SLOT)
                .ok_or_else(|| corrupt("too many watched pairs"))?;
            let (lo, hi) = unpack_pair(key);
            slots.push(Watched {
                lo: lo.0,
                hi: hi.0,
                refs,
            });
            index.insert(slot, &slots);
        }
        // Per slot: bit 0 once listed under its low endpoint, bit 1 under
        // its high one (a pair {v, v} is listed twice under v).
        let mut listed = vec![0u8; slots.len()];
        let n = read_usize(r)?;
        let mut incident: FastMap<u32, Incident> = FastMap::default();
        // Reserved as for the `(vertex, Vec)` entries the index once held:
        // the reserve sets the table's capacity, which orders the lists
        // the next `save` writes.
        incident.reserve(seq_reserve::<(u32, Vec<u32>)>(n));
        let mut spill = FastMap::default();
        let mut spill_bytes = 0;
        for _ in 0..n {
            let v = read_u32(r)?;
            let mut list = read_seq(r, |r| {
                let key = read_u64(r)?;
                let slot = index
                    .get(key, &slots)
                    .ok_or_else(|| corrupt("incident pair is not watched"))?;
                let (lo, hi) = unpack_pair(key);
                let seen = &mut listed[slot as usize];
                if v == lo.0 && *seen & 1 == 0 {
                    *seen |= 1;
                } else if v == hi.0 && *seen & 2 == 0 {
                    *seen |= 2;
                } else {
                    return Err(corrupt(
                        "incident pair listed twice or under a non-endpoint",
                    ));
                }
                Ok(slot)
            })?;
            let len = u32::try_from(list.len()).map_err(|_| corrupt("incident list too long"))?;
            let mut head = [NO_SLOT; INLINE];
            let in_place = list.len().min(INLINE);
            head[..in_place].copy_from_slice(&list[..in_place]);
            if incident.insert(v, Incident { len, head }).is_some() {
                return Err(corrupt("vertex with two incident lists"));
            }
            if list.len() > INLINE {
                let tail = list.split_off(INLINE);
                spill_bytes += tail.capacity() * 4;
                spill.insert(v, tail);
            }
        }
        if listed.iter().any(|&seen| seen != 3) {
            return Err(corrupt("incident index does not cover the watched pairs"));
        }
        let watches_started = read_u64(r)?;
        let watches_retired = read_u64(r)?;
        let mut epochs = Vec::with_capacity(slots.capacity());
        epochs.resize(slots.len(), u32::MAX);
        Ok(PairWatcher {
            index,
            slots,
            epochs,
            free_head: None,
            incident,
            spill,
            spill_bytes,
            epoch: 0,
            watches_started,
            watches_retired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn completions(w: &mut PairWatcher, list: &[u32]) -> Vec<u64> {
        let mut out = Vec::new();
        w.begin_list();
        for &x in list {
            w.on_item(v(x), |k, _| out.push(k));
        }
        out
    }

    /// A length of 2^40 over an input that ends at once is a typed EOF,
    /// not a panic or an allocation failure, and reserves at most the
    /// byte budget whatever the element size.
    #[test]
    fn read_seq_with_a_huge_length_and_no_elements_is_eof() {
        assert_eq!(seq_reserve::<u32>(1000), 1000);
        assert_eq!(seq_reserve::<u32>(1 << 40) * 4, READ_SEQ_RESERVE_BYTES);
        assert!(seq_reserve::<[u8; 84]>(1 << 40) * 84 <= READ_SEQ_RESERVE_BYTES);
        assert_eq!(seq_reserve::<()>(1 << 40), READ_SEQ_RESERVE_BYTES);
        let mut bytes = Vec::new();
        write_usize(&mut bytes, 1 << 40).unwrap();
        let err = read_seq(&mut &bytes[..], read_u32).expect_err("no element follows");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A two-pass slab record's size.
        let err = read_seq(&mut &bytes[..], |r| {
            let mut record = [0u8; 84];
            r.read_exact(&mut record)?;
            Ok(record)
        })
        .expect_err("no element follows");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A watcher checkpoint whose watched-pair count is 2^40 and which
    /// ends right after it is a typed error: restore reserves under the
    /// byte rule and then finds no pair to read.
    #[test]
    fn pair_watcher_restore_with_a_huge_count_and_no_pairs_is_eof() {
        let mut bytes = Vec::new();
        write_usize(&mut bytes, 1 << 40).unwrap();
        let err = PairWatcher::restore(&mut &bytes[..]).expect_err("no pair follows");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn detects_completion_when_both_endpoints_in_list() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        assert_eq!(
            completions(&mut w, &[3, 1, 4, 2, 5]),
            vec![pack_pair(v(1), v(2))]
        );
    }

    #[test]
    fn no_completion_with_single_endpoint() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        assert!(completions(&mut w, &[1, 3, 4]).is_empty());
        // State resets between lists: endpoint in a *different* list does
        // not pair with the earlier one.
        assert!(completions(&mut w, &[2, 5]).is_empty());
    }

    #[test]
    fn reports_once_per_list_and_pair() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        w.watch(v(1), v(2)); // refcount 2, still one report
        assert_eq!(completions(&mut w, &[1, 2]).len(), 1);
        // And again in a later list.
        assert_eq!(completions(&mut w, &[2, 1]).len(), 1);
    }

    #[test]
    fn multiple_pairs_on_shared_vertex() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        w.watch(v(1), v(3));
        let got = completions(&mut w, &[2, 3, 1]);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&pack_pair(v(1), v(2))));
        assert!(got.contains(&pack_pair(v(1), v(3))));
    }

    #[test]
    fn unwatch_respects_refcounts() {
        let mut w = PairWatcher::new();
        w.watch(v(1), v(2));
        w.watch(v(1), v(2));
        w.unwatch(v(1), v(2));
        assert!(w.slot(pack_pair(v(1), v(2))).is_some());
        assert_eq!(completions(&mut w, &[1, 2]).len(), 1);
        w.unwatch(v(1), v(2));
        assert_eq!(w.slot(pack_pair(v(1), v(2))), None);
        assert!(completions(&mut w, &[1, 2]).is_empty());
        assert_eq!(w.watched_pairs(), 0);
    }

    #[test]
    #[should_panic(expected = "unwatch of unwatched")]
    fn unwatch_unknown_pair_panics() {
        let mut w = PairWatcher::new();
        w.unwatch(v(8), v(9));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let k = pack_pair(v(7), v(3));
        assert_eq!(unpack_pair(k), (v(3), v(7)));
        assert_eq!(k, pack_pair(v(3), v(7)));
    }

    #[test]
    fn space_reporting_grows_and_shrinks() {
        let mut w = PairWatcher::new();
        let empty = w.space_bytes();
        for i in 0..100 {
            w.watch(v(i), v(i + 1000));
        }
        assert!(w.space_bytes() > empty);
    }

    /// The incremental inner-vec accounting must equal a full rescan at
    /// every point of a churny watch/unwatch history.
    #[test]
    fn incremental_accounting_matches_rescan() {
        let rescan =
            |w: &PairWatcher| -> usize { w.spill.values().map(|v| v.capacity() * 4).sum() };
        let mut w = PairWatcher::new();
        // Shared vertices force inner vecs to grow past their first
        // allocation; refcounted duplicates exercise the no-op paths.
        for i in 0..200u32 {
            w.watch(v(i % 7), v(100 + i));
            w.watch(v(i % 7), v(100 + i));
            assert_eq!(w.spill_bytes, rescan(&w), "after watch {i}");
        }
        for i in (0..200u32).rev() {
            w.unwatch(v(i % 7), v(100 + i));
            w.unwatch(v(i % 7), v(100 + i));
            assert_eq!(w.spill_bytes, rescan(&w), "after unwatch {i}");
        }
        assert_eq!(w.spill_bytes, 0);
        assert!(w.incident.is_empty() && w.spill.is_empty());
    }

    /// FNV-1a over a watcher's saved bytes.
    fn save_digest(w: &PairWatcher) -> u64 {
        let mut bytes = Vec::new();
        w.save(&mut bytes).unwrap();
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Pins the bytes a watcher saves before and after a restore followed
    /// by more watches and unwatches. The restored incident index holds
    /// more vertices than `seq_reserve` lets its restore reserve room for,
    /// so it grows while restoring, and some hub lists are long: the order
    /// of the index, of each list and so of these bytes depend on the
    /// restore's reserve and on push and `swap_remove` order. The pairs are
    /// saved in slot order, so they pin the free chain's reuse order too.
    #[test]
    fn watcher_save_after_restore_and_edits_is_pinned() {
        use adjstream_stream::hashing::SplitMix64;
        const HUB: u32 = 1 << 20;
        let mut rng = SplitMix64::new(32);
        let mut w = PairWatcher::new();
        let mut live: Vec<u64> = Vec::new();
        let watch = |w: &mut PairWatcher, live: &mut Vec<u64>, a: u32, b: u32| {
            w.watch(v(a), v(b));
            live.push(pack_pair(v(a), v(b)));
        };
        let unwatch = |w: &mut PairWatcher, live: &mut Vec<u64>, pick: u64| {
            let key = live.swap_remove(pick as usize % live.len());
            let (lo, hi) = unpack_pair(key);
            w.unwatch(hi, lo);
        };
        // 40k disjoint pairs: 80k one-pair vertices.
        for i in 0..40_000u32 {
            watch(&mut w, &mut live, 2 * i, 2 * i + 1);
        }
        // Twelve hubs of 5 to 60 pairs each, some pairs watched twice.
        for h in 0..12u32 {
            for _ in 0..5 + 5 * h {
                let other = (rng.next_u64() % 80_000) as u32;
                watch(&mut w, &mut live, HUB + h, other);
                if rng.next_u64().is_multiple_of(4) {
                    watch(&mut w, &mut live, other, HUB + h);
                }
            }
        }
        for _ in 0..6_000 {
            unwatch(&mut w, &mut live, rng.next_u64());
        }
        let before = save_digest(&w);
        let mut bytes = Vec::new();
        w.save(&mut bytes).unwrap();
        let mut w = PairWatcher::restore(&mut &bytes[..]).unwrap();
        let restored = save_digest(&w);
        assert!(w.incident.len() > 60_000, "{}", w.incident.len());
        for i in 0..3_000u32 {
            match rng.next_u64() % 3 {
                0 => unwatch(&mut w, &mut live, rng.next_u64()),
                1 => {
                    let h = HUB + (rng.next_u64() % 14) as u32;
                    watch(&mut w, &mut live, h, (rng.next_u64() % 80_000) as u32);
                }
                _ => watch(
                    &mut w,
                    &mut live,
                    200_000 + i,
                    (rng.next_u64() % 80_000) as u32,
                ),
            }
        }
        assert_eq!(
            [before, restored, save_digest(&w)],
            [0xF16D32F29BC99AAF, 0xAEE926E8293F1D03, 0xFB4432B732329E05]
        );
    }

    /// A watcher checkpoint written field by field, so tests can craft
    /// indexes that `save` never produces.
    fn crafted(pairs: &[(u64, u32)], lists: &[(u32, &[u64])]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_usize(&mut buf, pairs.len()).unwrap();
        for &(key, refs) in pairs {
            write_u64(&mut buf, key).unwrap();
            write_u32(&mut buf, refs).unwrap();
        }
        write_usize(&mut buf, lists.len()).unwrap();
        for &(vertex, keys) in lists {
            write_u32(&mut buf, vertex).unwrap();
            write_usize(&mut buf, keys.len()).unwrap();
            for &key in keys {
                write_u64(&mut buf, key).unwrap();
            }
        }
        write_u64(&mut buf, 0).unwrap();
        write_u64(&mut buf, 0).unwrap();
        buf
    }

    /// Each crafted index keeps `entries == 2 × pairs`, yet a later
    /// `unwatch` would not find the list it must edit.
    #[test]
    fn restore_rejects_a_misplaced_or_duplicated_incident_entry() {
        let k12 = pack_pair(v(1), v(2));
        let k13 = pack_pair(v(1), v(3));
        let sound = crafted(&[(k12, 1)], &[(1, &[k12]), (2, &[k12])]);
        let mut w = PairWatcher::restore(&mut &sound[..]).expect("sound index");
        w.unwatch(v(1), v(2));
        assert_eq!(w.watched_pairs(), 0);

        let misplaced = crafted(&[(k12, 1)], &[(1, &[k12]), (3, &[k12])]);
        let duplicated = crafted(&[(k12, 1), (k13, 1)], &[(1, &[k12, k12, k13]), (3, &[k13])]);
        let split = crafted(
            &[(k12, 1), (k13, 1)],
            &[(1, &[k12]), (1, &[k13]), (2, &[k12]), (3, &[k13])],
        );
        let twice = crafted(&[(k12, 1), (k12, 2)], &[(1, &[k12]), (2, &[k12])]);
        for (name, bytes) in [
            ("misplaced", misplaced),
            ("duplicated", duplicated),
            ("split", split),
            ("twice", twice),
        ] {
            let err = PairWatcher::restore(&mut &bytes[..])
                .err()
                .unwrap_or_else(|| panic!("{name}: crafted index must be rejected"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
        }
    }

    /// Random inserts and removes over a small key universe, so probe runs
    /// are long and deletes shift them back, leave the index finding
    /// exactly the slots a map model holds, at a load of at most 3/4.
    #[test]
    fn pair_index_matches_a_map() {
        use adjstream_stream::hashing::SplitMix64;
        let mut rng = SplitMix64::new(35);
        let mut slots: Vec<Watched> = Vec::new();
        let mut index = PairIndex::default();
        let mut model: FastMap<u64, u32> = FastMap::default();
        let mut free: Vec<u32> = Vec::new();
        let universe: Vec<u64> = (0..300u32).map(|i| pack_pair(v(i % 17), v(i))).collect();
        for step in 0..20_000 {
            let key = universe[(rng.next_u64() % universe.len() as u64) as usize];
            match model.get(&key) {
                Some(&slot) if !rng.next_u64().is_multiple_of(3) => {
                    let bucket = index.bucket(key, &slots).expect("indexed");
                    assert_eq!(index.buckets[bucket], slot, "step {step}");
                    index.remove(bucket, &slots);
                    model.remove(&key);
                    slots[slot as usize].refs = 0;
                    free.push(slot);
                }
                Some(_) => {}
                None => {
                    let (lo, hi) = unpack_pair(key);
                    let fresh = Watched {
                        lo: lo.0,
                        hi: hi.0,
                        refs: 1,
                    };
                    let slot = free.pop().unwrap_or_else(|| {
                        slots.push(fresh);
                        slots.len() as u32 - 1
                    });
                    slots[slot as usize] = fresh;
                    index.insert(slot, &slots);
                    model.insert(key, slot);
                }
            }
            assert_eq!(index.len, model.len());
            assert!(index.len * 4 <= index.buckets.len() * 3, "step {step}");
            for &key in &universe {
                assert_eq!(
                    index.get(key, &slots),
                    model.get(&key).copied(),
                    "step {step}"
                );
            }
        }
        assert_eq!(index.bucket(pack_pair(v(1000), v(1001)), &slots), None);
    }

    /// A compacted watcher and the compacted restore of its save have the
    /// same slot for every pair and meter the same bytes, and under the
    /// same later watches, unwatches and items they keep metering alike
    /// and report the same completions with the same slots.
    #[test]
    fn compacted_watcher_matches_its_restore() {
        use adjstream_stream::hashing::SplitMix64;
        let mut rng = SplitMix64::new(36);
        let mut w = PairWatcher::new();
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..3_000 {
            let (a, b) = ((rng.next_u64() % 300) as u32, (rng.next_u64() % 40) as u32);
            if rng.next_u64().is_multiple_of(3) && !live.is_empty() {
                let key = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                let (lo, hi) = unpack_pair(key);
                w.unwatch(lo, hi);
            } else {
                w.watch(v(a), v(b));
                live.push(pack_pair(v(a), v(b)));
            }
        }
        let mut bytes = Vec::new();
        w.save(&mut bytes).unwrap();
        let mut restored = PairWatcher::restore(&mut &bytes[..]).unwrap();
        let identity: Vec<u32> = (0..restored.watched_pairs() as u32).collect();
        assert_eq!(restored.compact(), identity, "a restore numbers densely");
        let old = w.compact();
        assert!(old.windows(2).all(|p| p[0] < p[1]), "slot order is kept");
        assert_eq!(w.space_bytes(), restored.space_bytes());
        for &key in &live {
            assert_eq!(w.slot(key), restored.slot(key));
        }
        for step in 0..2_000 {
            let (a, b) = ((rng.next_u64() % 300) as u32, (rng.next_u64() % 40) as u32);
            match rng.next_u64() % 4 {
                0 if !live.is_empty() => {
                    let key = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                    let (lo, hi) = unpack_pair(key);
                    w.unwatch(lo, hi);
                    restored.unwatch(lo, hi);
                }
                1 => {
                    assert_eq!(w.watch(v(a), v(b)), restored.watch(v(a), v(b)));
                    live.push(pack_pair(v(a), v(b)));
                }
                2 => {
                    w.begin_list();
                    restored.begin_list();
                }
                _ => {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    w.on_item(v(a), |k, slot| got.push((k, slot)));
                    restored.on_item(v(a), |k, slot| want.push((k, slot)));
                    assert_eq!(got, want, "step {step}");
                }
            }
            assert_eq!(w.space_bytes(), restored.space_bytes(), "step {step}");
        }
    }

    /// A watcher save with its watched-pair section (a count, then a key
    /// and a refcount per pair) in key order. A watcher saves its pairs in
    /// slot order, which the map model does not keep; the incident lists
    /// and the counters must match byte for byte.
    fn by_key(bytes: &[u8]) -> Vec<u8> {
        let n = read_usize(&mut &bytes[..]).unwrap();
        let end = 8 + n * 12;
        let mut pairs: Vec<&[u8]> = bytes[8..end].chunks(12).collect();
        pairs.sort_by_key(|p| u64::from_le_bytes(p[..8].try_into().unwrap()));
        let mut out = bytes[..8].to_vec();
        out.extend(pairs.concat());
        out.extend(&bytes[end..]);
        out
    }

    /// The map-based watcher the slot table replaced, kept as the reference
    /// model: a refcount map, a hit-epoch map, and incident lists of keys.
    #[derive(Default)]
    struct MapWatcher {
        incident: FastMap<u32, Vec<u64>>,
        refcount: FastMap<u64, u32>,
        hit_epoch: FastMap<u64, u32>,
        epoch: u32,
        watches_started: u64,
        watches_retired: u64,
    }

    impl MapWatcher {
        fn watch(&mut self, key: u64) {
            self.watches_started += 1;
            let rc = self.refcount.entry(key).or_insert(0);
            *rc += 1;
            if *rc == 1 {
                let (lo, hi) = unpack_pair(key);
                self.incident.entry(lo.0).or_default().push(key);
                self.incident.entry(hi.0).or_default().push(key);
            }
        }

        fn unwatch(&mut self, key: u64) {
            self.watches_retired += 1;
            let rc = self.refcount.get_mut(&key).expect("watched");
            *rc -= 1;
            if *rc == 0 {
                self.refcount.remove(&key);
                self.hit_epoch.remove(&key);
                let (lo, hi) = unpack_pair(key);
                for v in [lo.0, hi.0] {
                    let list = self.incident.get_mut(&v).expect("incident list exists");
                    let pos = list.iter().position(|&p| p == key).expect("pair in list");
                    list.swap_remove(pos);
                    if list.is_empty() {
                        self.incident.remove(&v);
                    }
                }
            }
        }

        fn on_item(&mut self, x: u32, completed: &mut Vec<u64>) {
            let Some(pairs) = self.incident.get(&x) else {
                return;
            };
            for &key in pairs {
                match self.hit_epoch.get_mut(&key) {
                    Some(e) if *e == self.epoch => {
                        *e = self.epoch.wrapping_add(u32::MAX / 2);
                        completed.push(key);
                    }
                    _ => {
                        self.hit_epoch.insert(key, self.epoch);
                    }
                }
            }
        }

        fn save(&self) -> Vec<u8> {
            let mut w = Vec::new();
            write_usize(&mut w, self.refcount.len()).unwrap();
            for (&key, &rc) in &self.refcount {
                write_u64(&mut w, key).unwrap();
                write_u32(&mut w, rc).unwrap();
            }
            write_usize(&mut w, self.incident.len()).unwrap();
            for (&v, keys) in &self.incident {
                write_u32(&mut w, v).unwrap();
                write_usize(&mut w, keys.len()).unwrap();
                for &key in keys {
                    write_u64(&mut w, key).unwrap();
                }
            }
            write_u64(&mut w, self.watches_started).unwrap();
            write_u64(&mut w, self.watches_retired).unwrap();
            w
        }

        fn restore(r: &mut dyn Read) -> io::Result<Self> {
            let n = read_usize(r)?;
            let mut refcount = FastMap::default();
            refcount.reserve(n.min(1 << 16));
            for _ in 0..n {
                let key = read_u64(r)?;
                refcount.insert(key, read_u32(r)?);
            }
            let n = read_usize(r)?;
            let mut incident = FastMap::default();
            incident.reserve(n.min(1 << 16));
            for _ in 0..n {
                let v = read_u32(r)?;
                incident.insert(v, read_seq(r, read_u64)?);
            }
            Ok(MapWatcher {
                incident,
                refcount,
                hit_epoch: FastMap::default(),
                epoch: 0,
                watches_started: read_u64(r)?,
                watches_retired: read_u64(r)?,
            })
        }
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// Vertices drawn mostly from four hubs, so incident lists grow
        /// long and most items visit many pairs.
        fn vertex() -> impl Strategy<Value = u32> {
            (0u32..48).prop_map(|x| if x < 36 { x % 4 } else { x })
        }

        /// Watch `key` on `slots`, checking that a newly watched pair
        /// takes the slot released last (popped from `free`, the released
        /// slots as a free `Vec` would hold them), or else a new one.
        fn watch_checked(slots: &mut PairWatcher, free: &mut Vec<u32>, key: u64, step: usize) {
            let want = match slots.slot(key) {
                Some(slot) => Some(slot),
                None => free.pop(),
            };
            let want = want.unwrap_or(slots.slots.len() as u32);
            let (lo, hi) = unpack_pair(key);
            slots.watch(hi, lo);
            prop_assert_eq!(slots.slot(key), Some(want), "step {}: slot", step);
        }

        /// A vertex outside [`vertex`]'s range whose incident list the
        /// script keeps moving across the inline count.
        const PIVOT: u32 = 99;

        /// Release one watch of the pair at `live[i]`, recording its slot
        /// in `free` if the pair is no longer watched.
        fn unwatch_checked(
            slots: &mut PairWatcher,
            model: &mut MapWatcher,
            live: &mut Vec<u64>,
            free: &mut Vec<u32>,
            i: usize,
        ) -> u64 {
            let key = live.swap_remove(i);
            let (lo, hi) = unpack_pair(key);
            let slot = slots.slot(key).expect("watched");
            slots.unwatch(hi, lo);
            model.unwatch(key);
            if slots.slot(key).is_none() {
                free.push(slot);
            }
            key
        }

        /// Save both watchers, check that the bytes agree, and restore
        /// both from them.
        fn round_trip(
            slots: &mut PairWatcher,
            model: &mut MapWatcher,
            free: &mut Vec<u32>,
            step: usize,
        ) {
            let mut bytes = Vec::new();
            slots.save(&mut bytes).unwrap();
            let want = model.save();
            prop_assert_eq!(by_key(&bytes), by_key(&want), "step {}: save", step);
            *slots = PairWatcher::restore(&mut &bytes[..]).unwrap();
            *model = MapWatcher::restore(&mut &want[..]).unwrap();
            // A restored table is compact: no slot is free.
            free.clear();
        }

        /// A script of `(op, a, b)` steps; see the match in the test.
        fn script() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
            prop::collection::vec((0u8..14, vertex(), vertex()), 0..300)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn slot_table_matches_the_map_watcher(ops in script()) {
                let mut slots = PairWatcher::new();
                let mut model = MapWatcher::default();
                // Live watches as a multiset, and the last pair released.
                let mut live: Vec<u64> = Vec::new();
                let mut released: Option<u64> = None;
                // The released slots, last released last.
                let mut free: Vec<u32> = Vec::new();
                // Times the pivot's list crossed the inline count.
                let mut crossings = 0;
                for (step, &(op, a, b)) in ops.iter().enumerate() {
                    match op {
                        0 | 1 => {
                            let key = pack_pair(v(a), v(b));
                            watch_checked(&mut slots, &mut free, key, step);
                            model.watch(key);
                            live.push(key);
                        }
                        2 | 3 if !live.is_empty() => {
                            let i = a as usize % live.len();
                            released = Some(unwatch_checked(&mut slots, &mut model, &mut live, &mut free, i));
                        }
                        // Re-watch a released pair, usually within the list
                        // that saw one of its endpoints.
                        4 => {
                            if let Some(key) = released.take() {
                                watch_checked(&mut slots, &mut free, key, step);
                                model.watch(key);
                                live.push(key);
                            }
                        }
                        5..=8 => {
                            let a = if op == 8 { PIVOT } else { a };
                            let mut got = Vec::new();
                            let mut got_slots = Vec::new();
                            slots.on_item(v(a), |k, slot| {
                                got.push(k);
                                got_slots.push(slot);
                            });
                            for (&k, &slot) in got.iter().zip(&got_slots) {
                                prop_assert_eq!(slots.slot(k), Some(slot), "step {}: completion slot", step);
                                prop_assert_eq!(slots.slots[slot as usize].key(), k);
                            }
                            let mut want = Vec::new();
                            model.on_item(a, &mut want);
                            prop_assert_eq!(got, want, "step {}: item {}", step, a);
                        }
                        10 => {
                            let mut bytes = Vec::new();
                            slots.save(&mut bytes).unwrap();
                            prop_assert_eq!(by_key(&bytes), by_key(&model.save()), "step {}: save", step);
                        }
                        11 => round_trip(&mut slots, &mut model, &mut free, step),
                        // Grow the pivot's list while it fits in place and
                        // shrink it once it spills, saving and restoring
                        // each time it crosses the inline count.
                        12 | 13 => {
                            let len = |w: &PairWatcher| w.incident.get(&PIVOT).map_or(0, |l| l.len as usize);
                            let before = len(&slots);
                            if before <= INLINE {
                                let key = pack_pair(v(PIVOT), v(b));
                                watch_checked(&mut slots, &mut free, key, step);
                                model.watch(key);
                                live.push(key);
                            } else {
                                let pivots: Vec<usize> = (0..live.len())
                                    .filter(|&i| unpack_pair(live[i]).1 == v(PIVOT))
                                    .collect();
                                let i = pivots[a as usize % pivots.len()];
                                released = Some(unwatch_checked(&mut slots, &mut model, &mut live, &mut free, i));
                            }
                            if (before <= INLINE) != (len(&slots) <= INLINE) {
                                crossings += 1;
                                round_trip(&mut slots, &mut model, &mut free, step);
                            }
                        }
                        _ => {}
                    }
                    if op >= 9 {
                        slots.begin_list();
                        model.epoch = model.epoch.wrapping_add(1);
                    }
                    prop_assert_eq!(slots.watched_pairs(), model.refcount.len());
                }
                let mut bytes = Vec::new();
                slots.save(&mut bytes).unwrap();
                prop_assert_eq!(by_key(&bytes), by_key(&model.save()));
                // A long script moves the pivot's list out and back in
                // several times.
                if ops.len() >= 200 {
                    prop_assert!(crossings >= 4, "{} crossings", crossings);
                }
            }
        }
    }
}
