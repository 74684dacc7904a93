//! Reservoir sampling (Algorithm R) for the pair sample `Q`.
//!
//! The Section 3 algorithm keeps only an `m′`-size uniform subsample of the
//! discovered `(edge, triangle)` pairs (step 3c); a classic reservoir over
//! the discovery stream provides exactly that. When the edge sample uses
//! bottom-k hashing, evicted edges invalidate their pairs; [`Reservoir::retain`]
//! purges them and [`Reservoir::set_seen`] lets the caller rebase the
//! admission counter on the size of the still-valid universe (see DESIGN.md
//! §5 for the uniformity discussion).

use crate::hashing::SplitMix64;
use crate::meter::{vec_bytes, SpaceUsage};

/// Outcome of offering an item to the reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservoirEvent<T> {
    /// Stored in a fresh slot (reservoir not yet full).
    Stored {
        /// Index of the slot used.
        slot: usize,
    },
    /// Replaced an existing item.
    Replaced {
        /// Index of the slot used.
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

/// A fixed-capacity uniform sample over a stream of items.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    rng: SplitMix64,
}

impl<T> Reservoir<T> {
    /// Reservoir of the given capacity, randomized by `seed`.
    pub fn new(seed: u64, capacity: usize) -> Self {
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity.min(1 << 20)),
            rng: SplitMix64::new(seed),
        }
    }

    /// Capacity (the paper's `m′`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the reservoir holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of items offered so far (the universe size, if no retains
    /// occurred).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether every offered item was kept (`seen ≤ capacity`); if so the
    /// reservoir holds the entire universe and downstream estimators can
    /// skip the subsampling correction.
    pub fn is_exhaustive(&self) -> bool {
        self.seen <= self.capacity as u64
    }

    /// Offer an item.
    pub fn offer(&mut self, item: T) -> ReservoirEvent<T>
    where
        T: Clone,
    {
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
        let j = next_below(&mut self.rng, self.seen);
        if (j as usize) < self.capacity {
            let slot = j as usize;
            let evicted = std::mem::replace(&mut self.items[slot], item);
            ReservoirEvent::Replaced { slot, evicted }
        } else {
            ReservoirEvent::Rejected
        }
    }

    /// The sampled items.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Decompose into `(capacity, seen, rng_state)` for checkpointing; the
    /// items themselves are read via [`Reservoir::items`]. Together with
    /// [`Reservoir::from_parts`] this round-trips the reservoir exactly,
    /// including the position of its random stream.
    pub fn to_parts(&self) -> (usize, u64, u64) {
        (self.capacity, self.seen, self.rng.state())
    }

    /// Rebuild a reservoir from checkpointed parts. `items` must be the
    /// slice captured at save time, in the same order: slot indices are
    /// meaningful to future replacements.
    pub fn from_parts(capacity: usize, seen: u64, rng_state: u64, items: Vec<T>) -> Self {
        Reservoir {
            capacity,
            seen,
            items,
            rng: SplitMix64::from_state(rng_state),
        }
    }

    /// Drop items failing `pred` (used when an edge eviction invalidates its
    /// pairs). Returns how many were removed.
    pub fn retain<F: FnMut(&T) -> bool>(&mut self, pred: F) -> usize {
        let before = self.items.len();
        self.items.retain(pred);
        before - self.items.len()
    }

    /// Rebase the admission counter after a purge, so future offers are
    /// weighted against the valid universe size rather than the raw count.
    pub fn set_seen(&mut self, seen: u64) {
        self.seen = seen.max(self.items.len() as u64);
    }

    /// Consume the reservoir, returning the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl<T> SpaceUsage for Reservoir<T> {
    fn space_bytes(&self) -> usize {
        vec_bytes(&self.items) + std::mem::size_of::<SplitMix64>()
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
        assert!(r.is_exhaustive());
        let ev = r.offer(13);
        assert!(!r.is_exhaustive());
        match ev {
            ReservoirEvent::Replaced { slot, evicted } => {
                assert!(slot < 3);
                assert!((10..13).contains(&evicted));
                assert!(r.items().contains(&13));
            }
            ReservoirEvent::Rejected => assert!(!r.items().contains(&13)),
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
            for &x in r.items() {
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
    fn retain_and_rebase() {
        let mut r: Reservoir<u64> = Reservoir::new(2, 10);
        for x in 0..8 {
            r.offer(x);
        }
        let removed = r.retain(|&x| x % 2 == 0);
        assert_eq!(removed, 4);
        assert_eq!(r.len(), 4);
        r.set_seen(4);
        assert_eq!(r.seen(), 4);
        // set_seen clamps to current length.
        r.set_seen(0);
        assert_eq!(r.seen(), 4);
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
