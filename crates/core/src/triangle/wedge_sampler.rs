//! One-pass wedge-sampling triangle estimation (the `Õ(P₂/T)` Table-1 row,
//! Buriol et al. \[12\] adapted to adjacency-list order; the downstream
//! closure check follows Jha–Seshadhri–Pinar \[17\]).
//!
//! Adjacency-list order makes wedges easy: scanning vertex `c`'s list
//! reveals all `C(deg c, 2)` wedges centered at `c`. Each estimator slot
//! maintains a uniformly random wedge over everything seen so far:
//!
//! * within the current list, a capacity-2 reservoir over the neighbors is a
//!   uniform 2-subset — i.e. a uniform wedge centered here;
//! * at the end of a list of degree `d`, the slot adopts that wedge with
//!   probability `C(d,2) / W` where `W` is the running total wedge count —
//!   the standard grouped-reservoir rule, keeping the slot uniform over all
//!   `W` wedges.
//!
//! A stored wedge `a–c–b` is *observed closed* if an item `ab` or `ba`
//! arrives while it is stored. For a triangle whose vertices arrive in order
//! `v₁, v₂, v₃`, the wedges centered at `v₁` and `v₂` see a closing item
//! after their selection point, the wedge at `v₃` does not; hence each slot
//! detects with probability exactly `2T/W` and `closed · W / (2 · slots)`
//! is unbiased.

use adjstream_graph::VertexId;
use adjstream_stream::hashing::{FastMap, SplitMix64};
use adjstream_stream::meter::{hashmap_bytes, vec_bytes, SpaceUsage};
use adjstream_stream::runner::MultiPassAlgorithm;

use crate::common::pack_pair;

/// Result of a [`WedgeSamplerTriangle`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WedgeSamplerEstimate {
    /// The estimate `closed · W / (2 · slots)`.
    pub estimate: f64,
    /// Total wedges in the stream `W = P₂`.
    pub wedges_total: u64,
    /// Slots whose final wedge was observed closed.
    pub closed: u64,
    /// Number of estimator slots.
    pub slots: usize,
}

/// Per-slot state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Stored wedge `(a, center, b)`, if any.
    wedge: Option<(VertexId, VertexId, VertexId)>,
    /// Whether a closing item has been seen since the wedge was stored.
    closed: bool,
    /// Capacity-2 reservoir over the current list's neighbors.
    cand: [VertexId; 2],
    cand_len: u8,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            wedge: None,
            closed: false,
            cand: [VertexId(0); 2],
            cand_len: 0,
        }
    }
}

/// One-pass wedge-sampling estimator. See module docs.
pub struct WedgeSamplerTriangle {
    slots: Vec<Slot>,
    /// Packed leaf pair → slots watching it for closure.
    watched: FastMap<u64, Vec<u32>>,
    /// Total wedges seen (running `W`).
    wedges_total: u64,
    /// Neighbors seen in the current list.
    list_len: u64,
    current: Option<VertexId>,
    rng: SplitMix64,
}

impl WedgeSamplerTriangle {
    /// Estimator with `slots` parallel wedge samples.
    pub fn new(seed: u64, slots: usize) -> Self {
        WedgeSamplerTriangle {
            slots: vec![Slot::default(); slots],
            watched: FastMap::default(),
            wedges_total: 0,
            list_len: 0,
            current: None,
            rng: SplitMix64::new(seed),
        }
    }

    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.rng.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Visit a Bernoulli(`num/den`) subset of `0..n` via geometric skips —
    /// distributionally identical to `n` independent coin flips but
    /// `O(1 + hits)` expected work, which keeps the per-item cost constant
    /// even with hundreds of thousands of slots.
    fn for_each_selected<F: FnMut(&mut Self, usize)>(
        &mut self,
        n: usize,
        num: u64,
        den: u64,
        mut f: F,
    ) {
        if n == 0 || num == 0 {
            return;
        }
        if num >= den {
            for i in 0..n {
                f(self, i);
            }
            return;
        }
        let p = num as f64 / den as f64;
        let log_q = (1.0 - p).ln();
        let mut i: i64 = -1;
        loop {
            let r = (self.next_u64_f64() - 1.0).abs().max(f64::MIN_POSITIVE);
            let skip = ((r.ln() / log_q).floor() as i64 + 1).max(1);
            i += skip;
            if i as usize >= n {
                return;
            }
            f(self, i as usize);
        }
    }

    /// Uniform f64 in (0, 1].
    fn next_u64_f64(&mut self) -> f64 {
        ((self.rng.next_u64() >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64)
    }

    fn unwatch_slot(watched: &mut FastMap<u64, Vec<u32>>, slot_idx: u32, pair: u64) {
        if let Some(v) = watched.get_mut(&pair) {
            if let Some(pos) = v.iter().position(|&s| s == slot_idx) {
                v.swap_remove(pos);
            }
            if v.is_empty() {
                watched.remove(&pair);
            }
        }
    }
}

impl SpaceUsage for WedgeSamplerTriangle {
    fn space_bytes(&self) -> usize {
        // The vectors' headers are in the map's entries.
        let inner: usize = self.watched.values().map(|v| v.capacity() * 4).sum();
        vec_bytes(&self.slots) + hashmap_bytes(&self.watched) + inner + 64
    }
}

impl MultiPassAlgorithm for WedgeSamplerTriangle {
    type Output = WedgeSamplerEstimate;

    fn passes(&self) -> usize {
        1
    }

    fn begin_pass(&mut self, _pass: usize) {}

    fn begin_list(&mut self, owner: VertexId) {
        self.current = Some(owner);
        self.list_len = 0;
        for s in &mut self.slots {
            s.cand_len = 0;
        }
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        // Closure check first: a closing item observed while its wedge is
        // stored marks the slot closed.
        let key = pack_pair(src, dst);
        if let Some(slots) = self.watched.get(&key) {
            // Split borrow: mark after collecting (tiny vectors).
            let to_mark: Vec<u32> = slots.clone();
            for si in to_mark {
                self.slots[si as usize].closed = true;
            }
        }
        // Candidate 2-subset reservoirs.
        self.list_len += 1;
        let j = self.list_len;
        if j <= 2 {
            // All slots append their first two neighbors.
            for s in &mut self.slots {
                s.cand[(j - 1) as usize] = dst;
                s.cand_len = j as u8;
            }
        } else {
            // Uniform 2-subset of a stream: each slot replaces a random
            // held element with probability 2/j. Skip-sample the updating
            // slots instead of flipping a coin per slot.
            let mut slots = std::mem::take(&mut self.slots);
            self.for_each_selected(slots.len(), 2, j, |this, i| {
                let which = this.next_below(2) as usize;
                slots[i].cand[which] = dst;
            });
            self.slots = slots;
        }
    }

    fn end_list(&mut self, owner: VertexId) {
        let d = self.list_len;
        let new_wedges = d * d.saturating_sub(1) / 2;
        if new_wedges == 0 {
            self.current = None;
            return;
        }
        self.wedges_total += new_wedges;
        let total = self.wedges_total;
        // Each slot adopts this list's candidate wedge with probability
        // new_wedges/total; skip-sample the adopting subset.
        let mut slots = std::mem::take(&mut self.slots);
        let mut watched = std::mem::take(&mut self.watched);
        self.for_each_selected(slots.len(), new_wedges, total, |_this, i| {
            let (a, b) = (slots[i].cand[0], slots[i].cand[1]);
            if let Some((oa, _, ob)) = slots[i].wedge.take() {
                Self::unwatch_slot(&mut watched, i as u32, pack_pair(oa, ob));
            }
            slots[i].wedge = Some((a, owner, b));
            slots[i].closed = false;
            watched.entry(pack_pair(a, b)).or_default().push(i as u32);
        });
        self.slots = slots;
        self.watched = watched;
        self.current = None;
    }

    fn finish(self) -> WedgeSamplerEstimate {
        let closed = self.slots.iter().filter(|s| s.closed).count() as u64;
        let slots = self.slots.len();
        let estimate = if slots == 0 {
            0.0
        } else {
            closed as f64 * self.wedges_total as f64 / (2.0 * slots as f64)
        };
        WedgeSamplerEstimate {
            estimate,
            wedges_total: self.wedges_total,
            closed,
            slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::{exact, gen};
    use adjstream_stream::{PassOrders, Runner, StreamOrder};

    fn run_once(
        g: &adjstream_graph::Graph,
        seed: u64,
        slots: usize,
        order_seed: u64,
    ) -> WedgeSamplerEstimate {
        let n = g.vertex_count();
        let (est, _) = Runner::run(
            g,
            WedgeSamplerTriangle::new(seed, slots),
            &PassOrders::Same(StreamOrder::shuffled(n, order_seed)),
        );
        est
    }

    #[test]
    fn wedge_total_is_exact() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::gnm(40, 200, &mut rng);
        let est = run_once(&g, 1, 10, 2);
        assert_eq!(est.wedges_total, g.wedge_count());
    }

    /// Unbiasedness: with many slots and seeds, the mean estimate converges
    /// to T on a clique workload.
    #[test]
    fn unbiased_on_cliques() {
        let g = gen::disjoint_cliques(7, 6); // T = 6*35 = 210
        let reps = 120;
        let mut sum = 0.0;
        for seed in 0..reps {
            sum += run_once(&g, seed, 60, seed).estimate;
        }
        let mean = sum / reps as f64;
        assert!((mean - 210.0).abs() < 30.0, "mean {mean}");
        let _ = exact::count_triangles(&g);
    }

    #[test]
    fn triangle_free_never_closes() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::bipartite_gnm(20, 20, 200, &mut rng);
        for seed in 0..10 {
            let est = run_once(&g, seed, 40, seed);
            assert_eq!(est.closed, 0, "seed {seed}");
            assert_eq!(est.estimate, 0.0);
        }
    }

    #[test]
    fn zero_slots_estimates_zero() {
        let g = gen::complete(6);
        let est = run_once(&g, 1, 0, 1);
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.slots, 0);
    }
}
