//! Shared machinery: the pair-completion watcher and sampling configuration.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_u32, read_u64, read_usize, write_u32, write_u64, write_usize, Checkpoint,
};
use adjstream_stream::hashing::{FastMap, FastSet};
use adjstream_stream::meter::{hashmap_bytes, SpaceUsage};
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
#[derive(Debug, Default)]
pub struct PairWatcher {
    /// vertex → packed pairs containing it.
    incident: FastMap<u32, Vec<u64>>,
    /// Bytes held by `incident`'s inner vectors, maintained incrementally.
    incident_vec_bytes: usize,
    /// packed pair → number of watchers.
    refcount: FastMap<u64, u32>,
    /// packed pair → epoch of its last single hit.
    hit_epoch: FastMap<u64, u32>,
    epoch: u32,
    /// Lifetime watch registrations (refcount acquisitions).
    watches_started: u64,
    /// Lifetime watch releases (refcount drops).
    watches_retired: u64,
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
        self.watches_started += 1;
        let key = pack_pair(a, b);
        let rc = self.refcount.entry(key).or_insert(0);
        *rc += 1;
        if *rc == 1 {
            let (lo, hi) = unpack_pair(key);
            self.incident_vec_bytes += push_map_vec(&mut self.incident, lo.0, key, 8);
            self.incident_vec_bytes += push_map_vec(&mut self.incident, hi.0, key, 8);
        }
    }

    /// Stop one watch of `{a, b}`; fully unregisters at refcount zero.
    pub fn unwatch(&mut self, a: VertexId, b: VertexId) {
        self.watches_retired += 1;
        let key = pack_pair(a, b);
        let rc = self
            .refcount
            .get_mut(&key)
            .expect("unwatch of unwatched pair");
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
                    let dead = self.incident.remove(&v).expect("just seen");
                    self.incident_vec_bytes -= dead.capacity() * 8 + 24;
                }
            }
        }
    }

    /// Whether `{a, b}` is currently watched.
    pub fn is_watched(&self, a: VertexId, b: VertexId) -> bool {
        self.refcount.contains_key(&pack_pair(a, b))
    }

    /// Number of distinct watched pairs.
    pub fn watched_pairs(&self) -> usize {
        self.refcount.len()
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
        let Some(pairs) = self.incident.get(&x.0) else {
            return;
        };
        for &key in pairs {
            match self.hit_epoch.get_mut(&key) {
                Some(e) if *e == self.epoch => {
                    // Second endpoint within the same list: completion.
                    // Bump past the epoch so a (malformed) triple hit
                    // wouldn't re-report; valid streams never do this.
                    *e = self.epoch.wrapping_add(u32::MAX / 2);
                    completed(key);
                }
                other => {
                    let _ = other;
                    self.hit_epoch.insert(key, self.epoch);
                }
            }
        }
    }
}

/// Read a length-prefixed sequence of `elem`s. Preallocation is capped, so
/// a corrupt length cannot reserve more than the input can back.
pub(crate) fn read_seq<T>(
    r: &mut dyn Read,
    mut elem: impl FnMut(&mut dyn Read) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let n = read_usize(r)?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
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
        hashmap_bytes(&self.incident)
            + self.incident_vec_bytes
            + hashmap_bytes(&self.refcount)
            + hashmap_bytes(&self.hit_epoch)
    }
}

/// Pass-boundary serialization. The per-list hit state (`hit_epoch`,
/// `epoch`) is deliberately *not* saved: at an adjacency-list boundary a
/// stale hit is behaviorally identical to an absent one (the next
/// `begin_list` bumps the epoch, so both paths insert the current epoch on
/// the first sighting), and dropping it keeps the checkpoint free of
/// mid-list state. The `incident` vectors are saved in order — completion
/// callbacks fire in that order, which downstream reservoirs observe.
impl Checkpoint for PairWatcher {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.refcount.len())?;
        for (&key, &rc) in &self.refcount {
            write_u64(w, key)?;
            write_u32(w, rc)?;
        }
        write_usize(w, self.incident.len())?;
        for (&v, keys) in &self.incident {
            write_u32(w, v)?;
            write_usize(w, keys.len())?;
            for &key in keys {
                write_u64(w, key)?;
            }
        }
        write_u64(w, self.watches_started)?;
        write_u64(w, self.watches_retired)?;
        Ok(())
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let n = read_usize(r)?;
        let mut refcount = FastMap::default();
        refcount.reserve(n.min(1 << 16));
        for _ in 0..n {
            let key = read_u64(r)?;
            let rc = read_u32(r)?;
            if rc == 0 {
                return Err(corrupt("watched pair with zero refcount"));
            }
            refcount.insert(key, rc);
        }
        let n = read_usize(r)?;
        let mut incident: FastMap<u32, Vec<u64>> = FastMap::default();
        incident.reserve(n.min(1 << 16));
        let mut incident_vec_bytes = 0usize;
        let mut entries = 0usize;
        for _ in 0..n {
            let v = read_u32(r)?;
            let keys = read_seq(r, |r| match read_u64(r)? {
                key if refcount.contains_key(&key) => Ok(key),
                _ => Err(corrupt("incident pair is not watched")),
            })?;
            entries += keys.len();
            incident_vec_bytes += keys.capacity() * 8 + 24;
            incident.insert(v, keys);
        }
        if entries != 2 * refcount.len() {
            return Err(corrupt("incident index does not cover the watched pairs"));
        }
        let watches_started = read_u64(r)?;
        let watches_retired = read_u64(r)?;
        Ok(PairWatcher {
            incident,
            incident_vec_bytes,
            refcount,
            hit_epoch: FastMap::default(),
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
            |w: &PairWatcher| -> usize { w.incident.values().map(|v| v.capacity() * 8 + 24).sum() };
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
}
