//! Reservoir sampling (Algorithm R) for the pair sample `Q`.
//!
//! The Section 3 algorithm keeps only an `m′`-size uniform subsample of the
//! discovered `(edge, triangle)` pairs (step 3c); a classic reservoir over
//! the discovery stream provides exactly that. When the edge sample uses
//! bottom-k hashing, evicted edges invalidate their pairs:
//! [`Reservoir::remove`] takes one out by its store position in
//! `O(log m′)`, and [`Reservoir::set_seen`] lets the caller rebase the
//! admission counter on the size of the still-valid universe (see DESIGN.md
//! §5 for the uniformity discussion).
//!
//! A removal leaves a tombstone, so the other entries keep their positions
//! and their order. From the first removal on, a Fenwick tree over the live
//! flags maps a rank (the "`j`-th live entry" a replacement draws) to its
//! position, and the store is compacted once its tombstones outnumber its
//! live entries. A reservoir that never removes builds no tree and meters
//! no bytes for one. Events, random draws and the live entries in order are
//! those of a dense vector purged in place.

use crate::hashing::SplitMix64;
use crate::meter::{vec_bytes, SpaceUsage};

/// Outcome of offering an item to the reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservoirEvent<T> {
    /// Stored as a new live entry (reservoir not yet full).
    Stored {
        /// Rank of the entry among the live ones (the last).
        slot: usize,
    },
    /// Replaced an existing item.
    Replaced {
        /// Rank of the replaced entry among the live ones.
        slot: usize,
        /// The item that was pushed out.
        evicted: T,
    },
    /// Not sampled.
    Rejected,
}

/// Unbiased uniform draw from `0..bound` by rejection sampling.
fn next_below(rng: &mut SplitMix64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Reject the tail of the 2^64 range that would bias the modulus.
    let zone = u64::MAX - u64::MAX % bound;
    loop {
        let x = rng.next_u64();
        if x < zone {
            return x % bound;
        }
    }
}

/// The lowest set bit of `i`.
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Live flags over a reservoir's store and a Fenwick tree of them. Empty
/// (unbuilt) while the store holds no tombstone.
#[derive(Debug, Clone, Default)]
struct LiveIndex {
    /// Bit `i % 64` of word `i / 64` is set while store entry `i` is live.
    /// Bits past the store's end are set, ready for the next push.
    live: Vec<u64>,
    /// Node `i` (1-based) at `tree[i - 1]` counts the live entries at
    /// positions `i - lowbit(i) .. i`.
    tree: Vec<u32>,
    /// Tombstones in the store.
    dead: usize,
}

impl LiveIndex {
    fn is_built(&self) -> bool {
        !self.tree.is_empty()
    }

    /// Index a store of `n` live entries.
    fn build(&mut self, n: usize) {
        self.tree.clear();
        self.tree.extend((1..=n).map(|i| lowbit(i) as u32));
        self.live.clear();
        self.live.resize(n.div_ceil(64), u64::MAX);
        self.dead = 0;
    }

    /// Back to unbuilt, keeping the allocations for the next build.
    fn clear(&mut self) {
        self.tree.clear();
        self.live.clear();
        self.dead = 0;
    }

    fn is_live(&self, pos: usize) -> bool {
        self.live[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// Index a live entry appended to the store.
    fn push(&mut self) {
        let i = self.tree.len() + 1;
        // Node `i` covers `i - lowbit(i) .. i`: its own entry plus the
        // nodes that tile the rest of that range.
        let mut count = 1;
        let mut j = i - 1;
        while j > i - lowbit(i) {
            count += self.tree[j - 1];
            j -= lowbit(j);
        }
        self.tree.push(count);
        if (i - 1).is_multiple_of(64) {
            self.live.push(u64::MAX);
        }
    }

    /// Turn the live entry at `pos` into a tombstone.
    fn kill(&mut self, pos: usize) {
        assert!(
            pos < self.tree.len() && self.is_live(pos),
            "reservoir position {pos} holds no live entry"
        );
        self.live[pos / 64] &= !(1 << (pos % 64));
        let mut i = pos + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] -= 1;
            i += lowbit(i);
        }
        self.dead += 1;
    }

    /// Position of the live entry of rank `rank`.
    fn find(&self, rank: usize) -> usize {
        let n = self.tree.len();
        let (mut pos, mut rest) = (0, rank + 1);
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            if pos + step <= n && (self.tree[pos + step - 1] as usize) < rest {
                pos += step;
                rest -= self.tree[pos - 1] as usize;
            }
            step >>= 1;
        }
        pos
    }

    fn heap_bytes(&self) -> usize {
        self.tree.capacity() * std::mem::size_of::<u32>()
            + self.live.capacity() * std::mem::size_of::<u64>()
    }
}

/// A fixed-capacity uniform sample over a stream of items.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    /// The entries in sample order, tombstones included while `index` is
    /// built.
    items: Vec<T>,
    index: LiveIndex,
    rng: SplitMix64,
}

impl<T> Reservoir<T> {
    /// Reservoir of the given capacity, randomized by `seed`.
    pub fn new(seed: u64, capacity: usize) -> Self {
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity.min(1 << 20)),
            index: LiveIndex::default(),
            rng: SplitMix64::new(seed),
        }
    }

    /// Capacity (the paper's `m′`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently held.
    pub fn len(&self) -> usize {
        self.items.len() - self.index.dead
    }

    /// Whether the reservoir holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items offered so far (the universe size, if no removals
    /// occurred).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Offer an item. The event's `slot` is a rank among the live entries;
    /// [`Reservoir::position`] turns it into a store position.
    pub fn offer(&mut self, item: T) -> ReservoirEvent<T>
    where
        T: Clone,
    {
        self.seen += 1;
        let len = self.len();
        if len < self.capacity {
            self.items.push(item);
            if self.index.is_built() {
                self.index.push();
            }
            return ReservoirEvent::Stored { slot: len };
        }
        if self.capacity == 0 {
            return ReservoirEvent::Rejected;
        }
        let j = next_below(&mut self.rng, self.seen);
        if (j as usize) < self.capacity {
            let slot = j as usize;
            let pos = self.position(slot);
            let evicted = std::mem::replace(&mut self.items[pos], item);
            ReservoirEvent::Replaced { slot, evicted }
        } else {
            ReservoirEvent::Rejected
        }
    }

    /// Store position of the live entry of rank `rank`. It names that
    /// entry until a [`Reservoir::remove`] compacts the store.
    pub fn position(&self, rank: usize) -> usize {
        if self.index.is_built() {
            self.index.find(rank)
        } else {
            rank
        }
    }

    /// Remove the live entry at store position `pos`, keeping the others
    /// in order. When this compacts the store, `moved(pos, item)` is
    /// called with the new position of every live entry, in order.
    ///
    /// # Panics
    ///
    /// If no live entry is at `pos`.
    pub fn remove(&mut self, pos: usize, mut moved: impl FnMut(usize, &T)) {
        if !self.index.is_built() {
            self.index.build(self.items.len());
        }
        self.index.kill(pos);
        if self.index.dead > self.len() {
            self.compact();
            for (pos, item) in self.items.iter().enumerate() {
                moved(pos, item);
            }
        }
    }

    /// Drop the tombstones and the index over them.
    fn compact(&mut self) {
        if self.index.is_built() {
            let mut at = 0;
            let index = &self.index;
            self.items.retain(|_| {
                at += 1;
                index.is_live(at - 1)
            });
            self.index.clear();
        }
    }

    /// Drop the tombstones, the index over them and the store's spare
    /// capacity, as [`Reservoir::from_parts`] would build the reservoir
    /// from its live entries. `moved(pos, item)` is called with the new
    /// position of every live entry, in order.
    pub fn shrink_to_fit(&mut self, mut moved: impl FnMut(usize, &T)) {
        self.compact();
        self.index = LiveIndex::default();
        self.items.shrink_to_fit();
        for (pos, item) in self.items.iter().enumerate() {
            moved(pos, item);
        }
    }

    /// The sampled items, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let index = &self.index;
        self.items
            .iter()
            .enumerate()
            .filter(move |&(pos, _)| !index.is_built() || index.is_live(pos))
            .map(|(_, item)| item)
    }

    /// Decompose into `(capacity, seen, rng_state)` for checkpointing; the
    /// items themselves are read via [`Reservoir::iter`]. Together with
    /// [`Reservoir::from_parts`] this round-trips the reservoir exactly,
    /// including the position of its random stream.
    pub fn to_parts(&self) -> (usize, u64, u64) {
        (self.capacity, self.seen, self.rng.state())
    }

    /// Rebuild a reservoir from checkpointed parts. `items` must be the
    /// live entries captured at save time, in the same order: ranks are
    /// meaningful to future replacements.
    pub fn from_parts(capacity: usize, seen: u64, rng_state: u64, items: Vec<T>) -> Self {
        Reservoir {
            capacity,
            seen,
            items,
            index: LiveIndex::default(),
            rng: SplitMix64::from_state(rng_state),
        }
    }

    /// Rebase the admission counter after a purge, so future offers are
    /// weighted against the valid universe size rather than the raw count.
    pub fn set_seen(&mut self, seen: u64) {
        self.seen = seen.max(self.len() as u64);
    }

    /// Consume the reservoir, returning the sample.
    pub fn into_items(mut self) -> Vec<T> {
        self.compact();
        self.items
    }
}

impl<T> SpaceUsage for Reservoir<T> {
    fn space_bytes(&self) -> usize {
        vec_bytes(&self.items) + std::mem::size_of::<SplitMix64>() + self.index.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_samples() {
        let mut r: Reservoir<u64> = Reservoir::new(1, 3);
        assert_eq!(r.offer(10), ReservoirEvent::Stored { slot: 0 });
        assert_eq!(r.offer(11), ReservoirEvent::Stored { slot: 1 });
        assert_eq!(r.offer(12), ReservoirEvent::Stored { slot: 2 });
        assert!(r.seen() <= r.capacity() as u64, "every item kept");
        let ev = r.offer(13);
        assert!(r.seen() > r.capacity() as u64);
        match ev {
            ReservoirEvent::Replaced { slot, evicted } => {
                assert!(slot < 3);
                assert!((10..13).contains(&evicted));
                assert!(r.iter().any(|&x| x == 13));
            }
            ReservoirEvent::Rejected => assert!(!r.iter().any(|&x| x == 13)),
            ReservoirEvent::Stored { .. } => panic!("reservoir was full"),
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.seen(), 4);
    }

    #[test]
    fn uniform_inclusion_probability() {
        // Offer 0..20 to a capacity-5 reservoir many times; each item should
        // be retained with probability 1/4.
        let n = 20u64;
        let cap = 5usize;
        let trials = 4000;
        let mut hits = vec![0u32; n as usize];
        for seed in 0..trials {
            let mut r = Reservoir::new(seed, cap);
            for x in 0..n {
                r.offer(x);
            }
            for &x in r.iter() {
                hits[x as usize] += 1;
            }
        }
        let expect = trials as f64 * cap as f64 / n as f64;
        for (x, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expect).abs() < expect * 0.2,
                "item {x}: {h} vs {expect}"
            );
        }
    }

    #[test]
    fn zero_capacity() {
        let mut r: Reservoir<u8> = Reservoir::new(0, 0);
        assert_eq!(r.offer(1), ReservoirEvent::Rejected);
        assert_eq!(r.len(), 0);
        assert_eq!(r.seen(), 1);
    }

    #[test]
    fn remove_and_rebase() {
        let mut r: Reservoir<u64> = Reservoir::new(2, 10);
        for x in 0..8 {
            r.offer(x);
        }
        // Remove the odd items, back to front, so no position moves.
        for pos in [7, 5, 3, 1] {
            r.remove(pos, |_, _| {
                panic!("three tombstones never outnumber live entries")
            });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [0, 2, 4, 6]);
        assert_eq!(r.position(3), 6);
        r.set_seen(4);
        assert_eq!(r.seen(), 4);
        // set_seen clamps to current length.
        r.set_seen(0);
        assert_eq!(r.seen(), 4);
        // The fifth tombstone outnumbers the four live entries: compaction.
        let mut moved = Vec::new();
        r.remove(0, |pos, &x| moved.push((pos, x)));
        assert_eq!(moved, [(0, 2), (1, 4), (2, 6)]);
        assert_eq!(r.position(2), 2);
        assert_eq!(r.into_items(), [2, 4, 6]);
    }

    /// A reservoir with tombstones, shrunk, holds and meters what one
    /// built from its parts does, reports every live entry's new
    /// position, and makes the same later draws.
    #[test]
    fn shrink_to_fit_matches_from_parts() {
        let mut r: Reservoir<u64> = Reservoir::new(5, 12);
        for x in 0..30 {
            r.offer(x);
        }
        for pos in [9, 4, 2] {
            r.remove(pos, |_, _| {});
        }
        let (capacity, seen, rng) = r.to_parts();
        let mut live: Vec<u64> = r.iter().copied().collect();
        live.shrink_to_fit();
        let mut built = Reservoir::from_parts(capacity, seen, rng, live);
        let mut moved = Vec::new();
        r.shrink_to_fit(|pos, &x| moved.push((pos, x)));
        let want: Vec<(usize, u64)> = built.iter().copied().enumerate().collect();
        assert_eq!(moved, want);
        assert_eq!(r.space_bytes(), built.space_bytes());
        for x in 30..60 {
            assert_eq!(r.offer(x), built.offer(x));
            assert_eq!(r.space_bytes(), built.space_bytes());
        }
    }

    /// Algorithm R over a dense `Vec`, purged with `retain`: the reservoir
    /// as it was before tombstones.
    struct Dense {
        capacity: usize,
        seen: u64,
        items: Vec<u64>,
        rng: SplitMix64,
    }

    impl Dense {
        fn offer(&mut self, item: u64) -> ReservoirEvent<u64> {
            self.seen += 1;
            if self.items.len() < self.capacity {
                self.items.push(item);
                return ReservoirEvent::Stored {
                    slot: self.items.len() - 1,
                };
            }
            if self.capacity == 0 {
                return ReservoirEvent::Rejected;
            }
            let j = next_below(&mut self.rng, self.seen) as usize;
            if j < self.capacity {
                let evicted = std::mem::replace(&mut self.items[j], item);
                ReservoirEvent::Replaced { slot: j, evicted }
            } else {
                ReservoirEvent::Rejected
            }
        }
    }

    #[test]
    fn removal_matches_a_dense_vector_purged_by_retain() {
        for (seed, capacity) in [(1u64, 1usize), (2, 5), (3, 64), (4, 200), (5, 0)] {
            let mut r = Reservoir::new(seed, capacity);
            let mut dense = Dense {
                capacity,
                seen: 0,
                items: Vec::new(),
                rng: SplitMix64::new(seed),
            };
            // Positions of the live entries by value, as a caller tracks
            // them: from `position` after an offer, and from `moved` after
            // a compaction.
            let mut pos_of = std::collections::HashMap::new();
            let mut ops = SplitMix64::new(seed ^ 0xD1CE);
            let (mut removals, mut compactions) = (0, 0);
            for x in 0..4000u64 {
                let remove = !dense.items.is_empty() && ops.next_u64().is_multiple_of(3);
                if remove {
                    // Remove a burst of victims, as one edge eviction does.
                    let burst = 1 + ops.next_u64() % 4;
                    for _ in 0..burst.min(dense.items.len() as u64) {
                        let rank = (ops.next_u64() % dense.items.len() as u64) as usize;
                        let victim = dense.items[rank];
                        let at = pos_of.remove(&victim).expect("live entries are tracked");
                        assert_eq!(r.position(rank), at);
                        dense.items.retain(|&y| y != victim);
                        let mut renumbered = Vec::new();
                        r.remove(at, |pos, &y| {
                            renumbered.push(y);
                            pos_of.insert(y, pos);
                        });
                        if !renumbered.is_empty() {
                            compactions += 1;
                            assert_eq!(renumbered, dense.items);
                        }
                        removals += 1;
                    }
                    let len = dense.items.len() as u64;
                    dense.seen = dense.seen.saturating_sub(burst).max(len);
                    r.set_seen(dense.seen);
                }
                let ev = r.offer(x);
                assert_eq!(ev, dense.offer(x), "seed {seed} item {x}");
                match ev {
                    ReservoirEvent::Stored { slot } | ReservoirEvent::Replaced { slot, .. } => {
                        if let ReservoirEvent::Replaced { evicted, .. } = ev {
                            pos_of.remove(&evicted);
                        }
                        pos_of.insert(x, r.position(slot));
                    }
                    ReservoirEvent::Rejected => {}
                }
                assert_eq!(r.len(), dense.items.len());
                assert_eq!(
                    r.to_parts(),
                    (dense.capacity, dense.seen, dense.rng.state())
                );
            }
            assert_eq!(r.iter().copied().collect::<Vec<_>>(), dense.items);
            if capacity >= 5 {
                assert!(removals > 100 && compactions > 0, "seed {seed}");
            }
            assert_eq!(r.into_items(), dense.items);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(seed, 4);
            for x in 0..100u64 {
                r.offer(x);
            }
            r.into_items()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
