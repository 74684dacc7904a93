//! Bottom-k sampling: keep the `k` keys with smallest hash values.
//!
//! This realizes the paper's *fixed-size* uniform sample: over any key
//! universe, the set of `k` smallest hashes is a uniform `k`-subset.
//! Crucially for streaming, once a key that belongs to the final sample is
//! first seen, it remains in the working sample forever (later insertions
//! can only evict keys with *larger* hashes), so an algorithm can begin
//! monitoring it immediately — the property Section 3.3.1 uses to collect
//! triangles "from the first of the two times it appears".

use std::collections::BinaryHeap;

use crate::hashing::{FastBuildHasher, FastMap, HashFn};
use crate::meter::{hashmap_bytes, SpaceUsage};

/// Outcome of offering a key to the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottomKEvent {
    /// Key entered the sample; nothing left.
    Inserted,
    /// Key entered the sample, evicting the returned key.
    InsertedEvicting(u64),
    /// Key was already in the sample (e.g. the edge's second appearance).
    AlreadyPresent,
    /// Key's hash is too large for the current sample.
    Rejected,
}

/// Salt of the sampler's seeded hash.
const HASH_SALT: u64 = 0xB077_0A1C;

/// The bottom-k decision rule over a max-heap of the sample's
/// `(hash, key)`, for a caller that keeps the sample's membership itself:
/// [`BottomKHeap::offer`] asks the caller whether a key is present, and the
/// caller applies each returned event to its own set.
#[derive(Debug, Clone)]
pub struct BottomKHeap {
    k: usize,
    hash: HashFn,
    /// Max-heap of (hash, key) for the current sample.
    heap: BinaryHeap<(u64, u64)>,
}

impl BottomKHeap {
    /// Heap retaining the `k` smallest-hashed keys.
    pub fn new(seed: u64, k: usize) -> Self {
        BottomKHeap {
            k,
            hash: HashFn::from_seed(seed, HASH_SALT),
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The heap that offering `keys`, distinct keys, to a fresh one would
    /// leave. It reserves room for the keys given, not for `k`.
    pub fn from_keys(seed: u64, k: usize, keys: impl IntoIterator<Item = u64>) -> Self {
        let mut heap = BottomKHeap {
            k,
            hash: HashFn::from_seed(seed, HASH_SALT),
            heap: BinaryHeap::new(),
        };
        for key in keys {
            heap.offer(key, |_| false);
        }
        heap
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Current sample size (`min(k, distinct keys offered)`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no key has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offer a key; idempotent for keys already present. `in_s` answers
    /// whether `key` is in the sample: the caller's set must hold exactly
    /// this heap's keys, so it adds the key on `Inserted` or
    /// `InsertedEvicting` and removes the evicted one.
    pub fn offer(&mut self, key: u64, in_s: impl FnOnce(&u64) -> bool) -> BottomKEvent {
        if self.k == 0 {
            return BottomKEvent::Rejected;
        }
        let h = self.hash.hash(key);
        let full = self.heap.len() == self.k;
        // `HashFn::hash` is a bijection, so a hash above the sample's
        // largest belongs to no member: reject it before the membership
        // test.
        if full && h > self.heap.peek().expect("heap full").0 {
            return BottomKEvent::Rejected;
        }
        if in_s(&key) {
            return BottomKEvent::AlreadyPresent;
        }
        if !full {
            self.heap.push((h, key));
            return BottomKEvent::Inserted;
        }
        // A non-member's hash differs from every member's, so `h` is below
        // the largest one here. It takes the top's place in one sift-down.
        let mut top = self.heap.peek_mut().expect("heap full");
        let (_, max_key) = std::mem::replace(&mut *top, (h, key));
        BottomKEvent::InsertedEvicting(max_key)
    }
}

impl SpaceUsage for BottomKHeap {
    fn space_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

/// A bottom-k sample over `u64` keys: a [`BottomKHeap`] with its own
/// membership map.
#[derive(Debug, Clone)]
pub struct BottomKSampler {
    core: BottomKHeap,
    /// Membership index: key → hash.
    members: FastMap<u64, u64>,
}

impl BottomKSampler {
    /// Sampler retaining the `k` smallest-hashed keys.
    pub fn new(seed: u64, k: usize) -> Self {
        // `members` reserves `2k`, not `k + 1`. Evictions use up the
        // table's growth allowance, and hashbrown then rehashes in place
        // only while the keys fill at most half its capacity; above that
        // it doubles the table. At a `k + 1` reserve the eviction churn
        // would decide when the map doubles, so equal samples could meter
        // different peaks (a one-shard run stopped matching the sequential
        // one in `shard_equivalence.rs`).
        BottomKSampler {
            core: BottomKHeap::new(seed, k),
            members: FastMap::with_capacity_and_hasher(k * 2, FastBuildHasher::default()),
        }
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// Current sample size (`min(k, distinct keys offered)`).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no key has been retained.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `key` is currently sampled.
    pub fn contains(&self, key: u64) -> bool {
        self.members.contains_key(&key)
    }

    /// Offer a key; idempotent for keys already present.
    pub fn offer(&mut self, key: u64) -> BottomKEvent {
        let members = &self.members;
        let event = self.core.offer(key, |k| members.contains_key(k));
        if let BottomKEvent::Inserted | BottomKEvent::InsertedEvicting(_) = event {
            self.members.insert(key, self.core.hash.hash(key));
        }
        if let BottomKEvent::InsertedEvicting(old) = event {
            self.members.remove(&old);
        }
        event
    }

    /// Iterate the sampled keys (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.members.keys().copied()
    }
}

impl SpaceUsage for BottomKSampler {
    fn space_bytes(&self) -> usize {
        self.core.space_bytes() + hashmap_bytes(&self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest_hashes() {
        let mut s = BottomKSampler::new(5, 10);
        let keys: Vec<u64> = (0..200).collect();
        for &k in &keys {
            s.offer(k);
        }
        assert_eq!(s.len(), 10);
        // Verify against a direct sort by the same hash.
        let h = HashFn::from_seed(5, 0xB077_0A1C);
        let mut by_hash = keys.clone();
        by_hash.sort_by_key(|&k| h.hash(k));
        let expect: std::collections::HashSet<u64> = by_hash[..10].iter().copied().collect();
        let got: std::collections::HashSet<u64> = s.keys().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn final_members_never_leave_once_inserted() {
        // Property from the doc comment: replay the stream; every key in the
        // final sample must be in the working sample continuously from its
        // first offer.
        let mut s = BottomKSampler::new(9, 8);
        let keys: Vec<u64> = (0..150).map(|i| i * 7 + 3).collect();
        for &k in &keys {
            s.offer(k);
        }
        let finals: std::collections::HashSet<u64> = s.keys().collect();
        let mut s2 = BottomKSampler::new(9, 8);
        let mut inserted_at: std::collections::HashMap<u64, usize> = Default::default();
        for (i, &k) in keys.iter().enumerate() {
            match s2.offer(k) {
                BottomKEvent::Inserted | BottomKEvent::InsertedEvicting(_) => {
                    inserted_at.insert(k, i);
                }
                BottomKEvent::Rejected => {
                    assert!(!finals.contains(&k), "final member {k} rejected");
                }
                BottomKEvent::AlreadyPresent => {}
            }
        }
        for &k in &finals {
            assert!(inserted_at.contains_key(&k));
            assert!(s2.contains(k));
        }
    }

    #[test]
    fn idempotent_reoffers() {
        let mut s = BottomKSampler::new(1, 4);
        assert_eq!(s.offer(42), BottomKEvent::Inserted);
        assert_eq!(s.offer(42), BottomKEvent::AlreadyPresent);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn eviction_reports_the_evicted_key() {
        let mut s = BottomKSampler::new(2, 1);
        s.offer(1);
        let h = HashFn::from_seed(2, 0xB077_0A1C);
        // Find a key hashing below key 1.
        let smaller = (2..).find(|&k| h.hash(k) < h.hash(1)).unwrap();
        assert_eq!(s.offer(smaller), BottomKEvent::InsertedEvicting(1));
        assert!(s.contains(smaller) && !s.contains(1));
    }

    /// The probe-first order `offer` used before its early reject: look the
    /// key up in the map, and only then test it against the largest hash.
    struct MapFirst {
        k: usize,
        hash: HashFn,
        heap: BinaryHeap<(u64, u64)>,
        members: std::collections::HashMap<u64, u64>,
    }

    impl MapFirst {
        fn offer(&mut self, key: u64) -> BottomKEvent {
            if self.k == 0 {
                return BottomKEvent::Rejected;
            }
            let h = self.hash.hash(key);
            if self.members.contains_key(&key) {
                return BottomKEvent::AlreadyPresent;
            }
            if self.heap.len() < self.k {
                self.members.insert(key, h);
                self.heap.push((h, key));
                return BottomKEvent::Inserted;
            }
            let &(max_h, max_key) = self.heap.peek().expect("heap full");
            if h >= max_h {
                return BottomKEvent::Rejected;
            }
            self.members.insert(key, h);
            self.heap.pop();
            self.heap.push((h, key));
            self.members.remove(&max_key);
            BottomKEvent::InsertedEvicting(max_key)
        }
    }

    #[test]
    fn early_reject_matches_the_map_first_order() {
        use crate::hashing::SplitMix64;
        for (seed, k) in [(1u64, 1usize), (2, 7), (3, 64), (4, 0)] {
            let mut fast = BottomKSampler::new(seed, k);
            let mut slow = MapFirst {
                k,
                hash: HashFn::from_seed(seed, 0xB077_0A1C),
                heap: BinaryHeap::new(),
                members: Default::default(),
            };
            // A small key universe, so most offers repeat a key: members,
            // evicted keys and never-admitted ones all come back.
            let mut rng = SplitMix64::new(seed);
            let universe = 4 * k as u64 + 16;
            let mut kinds = [0usize; 4];
            for i in 0..5000 {
                let key = rng.next_u64() % universe;
                let ev = fast.offer(key);
                assert_eq!(ev, slow.offer(key), "seed {seed} k {k} offer {i} key {key}");
                assert_eq!(fast.len(), slow.members.len());
                kinds[match ev {
                    BottomKEvent::Inserted => 0,
                    BottomKEvent::InsertedEvicting(_) => 1,
                    BottomKEvent::AlreadyPresent => 2,
                    BottomKEvent::Rejected => 3,
                }] += 1;
            }
            let got: std::collections::HashSet<u64> = fast.keys().collect();
            let want: std::collections::HashSet<u64> = slow.members.keys().copied().collect();
            assert_eq!(got, want, "seed {seed} k {k}");
            if k > 1 {
                assert!(kinds.iter().all(|&n| n > 0), "seed {seed} k {k}: {kinds:?}");
            }
        }
    }

    /// The decision rule as it was before evictions replaced the heap's
    /// top in place: pop the largest, then push the newcomer.
    struct PopPush {
        k: usize,
        hash: HashFn,
        heap: BinaryHeap<(u64, u64)>,
    }

    impl PopPush {
        fn offer(&mut self, key: u64, in_s: bool) -> BottomKEvent {
            if self.k == 0 {
                return BottomKEvent::Rejected;
            }
            let h = self.hash.hash(key);
            let full = self.heap.len() == self.k;
            if full && h > self.heap.peek().expect("heap full").0 {
                return BottomKEvent::Rejected;
            }
            if in_s {
                return BottomKEvent::AlreadyPresent;
            }
            if !full {
                self.heap.push((h, key));
                return BottomKEvent::Inserted;
            }
            let (_, max_key) = self.heap.pop().expect("heap full");
            self.heap.push((h, key));
            BottomKEvent::InsertedEvicting(max_key)
        }
    }

    /// Random key streams give the in-place heap and the pop-and-push one
    /// the same events, with the membership both share kept beside them,
    /// and leave both holding the same keys.
    #[test]
    fn in_place_eviction_matches_pop_and_push() {
        use crate::hashing::SplitMix64;
        for (seed, k, universe) in [
            (5u64, 1usize, 50u64),
            (6, 9, 60),
            (7, 100, 2000),
            (8, 3, 1 << 40),
        ] {
            let mut heap = BottomKHeap::new(seed, k);
            let mut reference = PopPush {
                k,
                hash: HashFn::from_seed(seed, HASH_SALT),
                heap: BinaryHeap::new(),
            };
            let mut members = std::collections::HashSet::new();
            let mut rng = SplitMix64::new(seed);
            let mut evictions = 0;
            for i in 0..20_000 {
                let key = rng.next_u64() % universe;
                let present = members.contains(&key);
                let ev = heap.offer(key, |k| members.contains(k));
                assert_eq!(ev, reference.offer(key, present), "seed {seed} offer {i}");
                match ev {
                    BottomKEvent::Inserted => {
                        members.insert(key);
                    }
                    BottomKEvent::InsertedEvicting(old) => {
                        members.insert(key);
                        members.remove(&old);
                        evictions += 1;
                    }
                    _ => {}
                }
            }
            assert!(evictions > 0, "seed {seed}: the heap must evict");
            let mut got: Vec<(u64, u64)> = heap.heap.into_vec();
            let mut want: Vec<(u64, u64)> = reference.heap.into_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut s = BottomKSampler::new(3, 0);
        assert_eq!(s.offer(9), BottomKEvent::Rejected);
        assert!(s.is_empty());
    }

    #[test]
    fn uniformity_sanity() {
        // Each key should land in the bottom-k sample with roughly equal
        // frequency across seeds.
        let universe: Vec<u64> = (0..40).collect();
        let mut hits = vec![0u32; universe.len()];
        let trials = 2000;
        for seed in 0..trials {
            let mut s = BottomKSampler::new(seed, 10);
            for &k in &universe {
                s.offer(k);
            }
            for k in s.keys() {
                hits[k as usize] += 1;
            }
        }
        let expect = trials as f64 * 10.0 / 40.0;
        for (k, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expect).abs() < expect * 0.25,
                "key {k}: {h} vs {expect}"
            );
        }
    }
}
