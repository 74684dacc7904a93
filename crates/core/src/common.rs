//! Shared machinery: the pair-completion watcher and sampling configuration.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_u32, read_u64, read_usize, write_u32, write_u64, write_usize, Checkpoint,
};
use adjstream_stream::hashing::{FastMap, FastSet};
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
/// map's inner vectors: a 24-byte `Vec` header when the entry is new plus
/// `elem_bytes` per unit of capacity growth. Callers accumulate the deltas
/// (and subtract `capacity · elem_bytes + 24` on entry removal) so
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
            24 + v.capacity() * elem_bytes
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
/// Layout: a slot table. `slot_of` maps a packed pair to its slot in
/// `slots`, which holds the pair's key, refcount and per-list hit epoch;
/// `incident` lists, per vertex, the slots of the pairs containing it.
/// [`PairWatcher::on_item`] makes one map probe per item and then indexes
/// `slots` directly, so the completion flag is an array read, not a hash
/// lookup. Completion order = incident order: completions fire in the
/// order of the item's incident list, which grows by push on watch and
/// shrinks by `swap_remove` on the last unwatch.
#[derive(Debug, Default)]
pub struct PairWatcher {
    /// packed pair → slot in `slots`.
    slot_of: FastMap<u64, u32>,
    /// Watched pairs by slot; a slot on `free` is stale until reused.
    slots: Vec<Watched>,
    /// Released slots, reused last-in first-out.
    free: Vec<u32>,
    /// vertex → slots of the pairs containing it, in completion order.
    incident: FastMap<u32, Vec<u32>>,
    /// Bytes held by `incident`'s inner vectors, maintained incrementally.
    incident_vec_bytes: usize,
    epoch: u32,
    /// Lifetime watch registrations (refcount acquisitions).
    watches_started: u64,
    /// Lifetime watch releases (refcount drops).
    watches_retired: u64,
}

/// One slot of the [`PairWatcher`] table.
#[derive(Debug, Clone, Copy)]
struct Watched {
    /// The packed pair.
    key: u64,
    /// Number of watchers.
    refs: u32,
    /// Epoch of the pair's last single hit; completion when an endpoint
    /// arrives while this equals the current list's epoch.
    epoch: u32,
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

    /// Begin watching the pair `{a, b}` (increments its refcount).
    pub fn watch(&mut self, a: VertexId, b: VertexId) {
        use std::collections::hash_map::Entry;
        self.watches_started += 1;
        let key = pack_pair(a, b);
        let entry = match self.slot_of.entry(key) {
            Entry::Occupied(e) => {
                self.slots[*e.get() as usize].refs += 1;
                return;
            }
            Entry::Vacant(e) => e,
        };
        // An epoch unequal to the current one: the pair has not been hit in
        // this list, even if its slot was released mid-list and reused.
        let fresh = Watched {
            key,
            refs: 1,
            epoch: self.epoch.wrapping_sub(1),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = fresh;
                slot
            }
            None => {
                self.slots.push(fresh);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 watched pairs")
            }
        };
        entry.insert(slot);
        let (lo, hi) = unpack_pair(key);
        self.incident_vec_bytes += push_map_vec(&mut self.incident, lo.0, slot, 4);
        self.incident_vec_bytes += push_map_vec(&mut self.incident, hi.0, slot, 4);
    }

    /// Stop one watch of `{a, b}`; fully unregisters at refcount zero.
    pub fn unwatch(&mut self, a: VertexId, b: VertexId) {
        self.watches_retired += 1;
        let key = pack_pair(a, b);
        let slot = *self.slot_of.get(&key).expect("unwatch of unwatched pair");
        let watched = &mut self.slots[slot as usize];
        watched.refs -= 1;
        if watched.refs == 0 {
            self.slot_of.remove(&key);
            self.free.push(slot);
            let (lo, hi) = unpack_pair(key);
            for v in [lo.0, hi.0] {
                let list = self.incident.get_mut(&v).expect("incident list exists");
                let pos = list.iter().position(|&s| s == slot).expect("pair in list");
                list.swap_remove(pos);
                if list.is_empty() {
                    let dead = self.incident.remove(&v).expect("just seen");
                    self.incident_vec_bytes -= dead.capacity() * 4 + 24;
                }
            }
        }
    }

    /// Whether `{a, b}` is currently watched.
    pub fn is_watched(&self, a: VertexId, b: VertexId) -> bool {
        self.slot_of.contains_key(&pack_pair(a, b))
    }

    /// Number of distinct watched pairs.
    pub fn watched_pairs(&self) -> usize {
        self.slot_of.len()
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

    /// Process one item `src → x` of the current list; invoke `completed`
    /// for every watched pair whose second endpoint this is (i.e. both
    /// endpoints now seen in the current list).
    pub fn on_item<F: FnMut(u64)>(&mut self, x: VertexId, mut completed: F) {
        let Some(slots) = self.incident.get(&x.0) else {
            return;
        };
        for &slot in slots {
            let watched = &mut self.slots[slot as usize];
            if watched.epoch == self.epoch {
                // Second endpoint within the same list: completion. Bump
                // past the epoch so a (malformed) triple hit wouldn't
                // re-report; valid streams never do this.
                watched.epoch = self.epoch.wrapping_add(u32::MAX / 2);
                completed(watched.key);
            } else {
                watched.epoch = self.epoch;
            }
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
        hashmap_bytes(&self.slot_of)
            + vec_bytes(&self.slots)
            + vec_bytes(&self.free)
            + hashmap_bytes(&self.incident)
            + self.incident_vec_bytes
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
        write_usize(w, self.slot_of.len())?;
        for (&key, &slot) in &self.slot_of {
            write_u64(w, key)?;
            write_u32(w, self.slots[slot as usize].refs)?;
        }
        write_usize(w, self.incident.len())?;
        for (&v, slots) in &self.incident {
            write_u32(w, v)?;
            write_usize(w, slots.len())?;
            for &slot in slots {
                write_u64(w, self.slots[slot as usize].key)?;
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
        let mut slot_of = FastMap::default();
        slot_of.reserve(seq_reserve::<(u64, u32)>(n));
        let mut slots = Vec::with_capacity(seq_reserve::<Watched>(n));
        for _ in 0..n {
            let key = read_u64(r)?;
            let refs = read_u32(r)?;
            if refs == 0 {
                return Err(corrupt("watched pair with zero refcount"));
            }
            let slot = u32::try_from(slots.len()).map_err(|_| corrupt("too many watched pairs"))?;
            // A repeated key orphans its earlier slot, which the coverage
            // check below then rejects.
            slot_of.insert(key, slot);
            slots.push(Watched {
                key,
                refs,
                epoch: u32::MAX,
            });
        }
        // Per slot: bit 0 once listed under its low endpoint, bit 1 under
        // its high one (a pair {v, v} is listed twice under v).
        let mut listed = vec![0u8; slots.len()];
        let n = read_usize(r)?;
        let mut incident: FastMap<u32, Vec<u32>> = FastMap::default();
        incident.reserve(seq_reserve::<(u32, Vec<u32>)>(n));
        let mut incident_vec_bytes = 0usize;
        for _ in 0..n {
            let v = read_u32(r)?;
            let list = read_seq(r, |r| {
                let key = read_u64(r)?;
                let &slot = slot_of
                    .get(&key)
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
            incident_vec_bytes += list.capacity() * 4 + 24;
            if incident.insert(v, list).is_some() {
                return Err(corrupt("vertex with two incident lists"));
            }
        }
        if listed.iter().any(|&seen| seen != 3) {
            return Err(corrupt("incident index does not cover the watched pairs"));
        }
        let watches_started = read_u64(r)?;
        let watches_retired = read_u64(r)?;
        Ok(PairWatcher {
            slot_of,
            slots,
            free: Vec::new(),
            incident,
            incident_vec_bytes,
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
            w.on_item(v(x), |k| out.push(k));
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
        assert!(w.is_watched(v(1), v(2)));
        assert_eq!(completions(&mut w, &[1, 2]).len(), 1);
        w.unwatch(v(1), v(2));
        assert!(!w.is_watched(v(1), v(2)));
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
            |w: &PairWatcher| -> usize { w.incident.values().map(|v| v.capacity() * 4 + 24).sum() };
        let mut w = PairWatcher::new();
        // Shared vertices force inner vecs to grow past their first
        // allocation; refcounted duplicates exercise the no-op paths.
        for i in 0..200u32 {
            w.watch(v(i % 7), v(100 + i));
            w.watch(v(i % 7), v(100 + i));
            assert_eq!(w.incident_vec_bytes, rescan(&w), "after watch {i}");
        }
        for i in (0..200u32).rev() {
            w.unwatch(v(i % 7), v(100 + i));
            w.unwatch(v(i % 7), v(100 + i));
            assert_eq!(w.incident_vec_bytes, rescan(&w), "after unwatch {i}");
        }
        assert_eq!(w.incident_vec_bytes, 0);
        assert!(w.incident.is_empty());
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

        /// A script of `(op, a, b)` steps; see the match in the test.
        fn script() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
            prop::collection::vec((0u8..12, vertex(), vertex()), 0..300)
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
                for (step, &(op, a, b)) in ops.iter().enumerate() {
                    match op {
                        0 | 1 => {
                            let key = pack_pair(v(a), v(b));
                            slots.watch(v(a), v(b));
                            model.watch(key);
                            live.push(key);
                        }
                        2 | 3 if !live.is_empty() => {
                            let key = live.swap_remove(a as usize % live.len());
                            let (lo, hi) = unpack_pair(key);
                            slots.unwatch(hi, lo);
                            model.unwatch(key);
                            released = Some(key);
                        }
                        // Re-watch a released pair, usually within the list
                        // that saw one of its endpoints.
                        4 => {
                            if let Some(key) = released.take() {
                                let (lo, hi) = unpack_pair(key);
                                slots.watch(lo, hi);
                                model.watch(key);
                                live.push(key);
                            }
                        }
                        5..=8 => {
                            let mut got = Vec::new();
                            slots.on_item(v(a), |k| got.push(k));
                            let mut want = Vec::new();
                            model.on_item(a, &mut want);
                            prop_assert_eq!(got, want, "step {}: item {}", step, a);
                        }
                        10 => {
                            let mut bytes = Vec::new();
                            slots.save(&mut bytes).unwrap();
                            prop_assert_eq!(bytes, model.save(), "step {}: save", step);
                        }
                        11 => {
                            let mut bytes = Vec::new();
                            slots.save(&mut bytes).unwrap();
                            let want = model.save();
                            prop_assert_eq!(&bytes, &want, "step {}: save", step);
                            slots = PairWatcher::restore(&mut &bytes[..]).unwrap();
                            model = MapWatcher::restore(&mut &want[..]).unwrap();
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
                prop_assert_eq!(bytes, model.save());
            }
        }
    }
}
