//! The pedagogical three-pass exact-lightest-edge triangle counter of
//! Section 2.1.
//!
//! Like the two-pass algorithm it credits each triangle only at its lightest
//! edge, but it spends a third pass computing the *exact* per-edge triangle
//! counts `T(f)` instead of the suffix proxy `H_{f,τ}`:
//!
//! 1. Pass 1: sample an edge set `S`.
//! 2. Pass 2: collect the pairs `Q = {(e, τ) : e ∈ S, τ ∈ L(e)}` (every
//!    triangle over a sampled edge completes in some pass-2 list), keeping
//!    at most `pair_capacity` of them via a reservoir.
//! 3. Pass 3: for every edge `f` of a collected triangle, count `T(f)`
//!    exactly.
//! 4. Count `(e, τ)` iff `e = argmin_{f∈τ} T(f)` (ties by edge key).
//!
//! This trades a pass for exactness of the lightness measure — ablation A2
//! compares its accuracy against [`super::TwoPassTriangle`] at equal space.
//! Without the reservoir (`pair_capacity = ∞`) its space includes the
//! `Θ(T/k)` collected pairs, reproducing the `max(m/T^{2/3}, T^{1/3})`
//! discussion in Section 2.1 — ablation A3.
//!
//! The edge sampler, the lightest-edge rule and the estimate formula are
//! the shared [`super::kernel`]; what is this variant's own is the exact
//! `T(f)` pass.

use adjstream_graph::VertexId;
use adjstream_stream::hashing::{FastMap, FastSet};
use adjstream_stream::meter::{hashmap_bytes, hashset_bytes, SpaceUsage};
use adjstream_stream::runner::MultiPassAlgorithm;
use adjstream_stream::sampling::{Reservoir, ReservoirEvent};

use super::kernel::{EdgeSampler, Offer, TriangleEstimate, TriangleSlots};
use crate::common::{pack_pair, unpack_pair, EdgeSampling, PairWatcher};

/// Three-pass triangle counter with exact per-edge lightness. See module docs.
pub struct ThreePassTriangle {
    pass: usize,
    sampler: EdgeSampler,
    sampling: EdgeSampling,
    s_edges: FastSet<u64>,
    discovered: u64,
    q: Reservoir<TriangleSlots>,
    /// Exact triangle counts per monitored edge (pass 3).
    t_counts: FastMap<u64, u64>,
    /// Refcount of monitored edges (several pairs may share an edge).
    monitored: FastMap<u64, u32>,
    watcher: PairWatcher,
    items: u64,
    buf: Vec<u64>,
}

impl ThreePassTriangle {
    /// Build with a sampling mode for `S` and a reservoir capacity for `Q`
    /// (`usize::MAX` disables subsampling — ablation A3).
    pub fn new(seed: u64, sampling: EdgeSampling, pair_capacity: usize) -> Self {
        ThreePassTriangle {
            pass: 0,
            sampler: EdgeSampler::new(seed, sampling),
            sampling,
            s_edges: FastSet::default(),
            discovered: 0,
            q: Reservoir::new(seed ^ 0x3_9A55, pair_capacity),
            t_counts: FastMap::default(),
            monitored: FastMap::default(),
            watcher: PairWatcher::new(),
            items: 0,
            buf: Vec::new(),
        }
    }

    fn unmonitor_pair(&mut self, p: &TriangleSlots) {
        for slot in 0..3 {
            let e = p.slot_edge(slot);
            let rc = self.monitored.get_mut(&e).expect("monitored");
            *rc -= 1;
            if *rc == 0 {
                self.monitored.remove(&e);
            }
            let (a, b) = unpack_pair(e);
            self.watcher.unwatch(a, b);
        }
    }

    fn monitor_pair(&mut self, p: &TriangleSlots) {
        for slot in 0..3 {
            let e = p.slot_edge(slot);
            *self.monitored.entry(e).or_insert(0) += 1;
            let (a, b) = unpack_pair(e);
            self.watcher.watch(a, b);
        }
    }
}

impl SpaceUsage for ThreePassTriangle {
    fn space_bytes(&self) -> usize {
        hashset_bytes(&self.s_edges)
            + self.q.space_bytes()
            + hashmap_bytes(&self.t_counts)
            + hashmap_bytes(&self.monitored)
            + self.watcher.space_bytes()
            + self.sampler.space_bytes()
    }
}

impl MultiPassAlgorithm for ThreePassTriangle {
    type Output = TriangleEstimate;

    fn passes(&self) -> usize {
        3
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        if pass == 1 {
            // Freeze S; watch sampled edges for collection.
            let mut keys: Vec<u64> = match &self.sampler {
                EdgeSampler::Threshold(_) => Vec::new(), // inserted lazily below
                EdgeSampler::BottomK(b) => b.keys().collect(),
            };
            // Sort so the watch-registration order — and hence downstream
            // completion-callback order — is a function of S alone, not of
            // the sampler's internal iteration order.
            keys.sort_unstable();
            for key in keys {
                self.s_edges.insert(key);
                let (a, b) = unpack_pair(key);
                self.watcher.watch(a, b);
            }
        }
    }

    fn begin_list(&mut self, _owner: VertexId) {
        self.watcher.begin_list();
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        if self.pass == 0 {
            self.items += 1;
            let key = pack_pair(src, dst);
            let s_edges = &self.s_edges;
            let offer = self.sampler.offer(key, |k| s_edges.contains(k));
            // Threshold membership is a pure hash function; edges are
            // inserted (and watched) at their first appearance so that S is
            // complete — and fully watched — before pass 2 begins
            // collecting. A bottom-k S is frozen by `begin_pass(1)`.
            if offer == Offer::New && matches!(self.sampler, EdgeSampler::Threshold(_)) {
                self.s_edges.insert(key);
                self.watcher.watch(src, dst);
            }
            return;
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        self.watcher.on_item(dst, |k| buf.push(k));
        for &k in &buf {
            if self.pass == 1 && self.s_edges.contains(&k) {
                // Discovery of (k, triangle k+src).
                self.discovered += 1;
                let pair = TriangleSlots::new(k, src);
                match self.q.offer(pair) {
                    ReservoirEvent::Stored { .. } => self.monitor_pair(&pair),
                    ReservoirEvent::Replaced { evicted, .. } => {
                        self.monitor_pair(&pair);
                        self.unmonitor_pair(&evicted);
                    }
                    ReservoirEvent::Rejected => {}
                }
            } else if self.pass == 2 && self.monitored.contains_key(&k) {
                // Pass 3: exact per-edge triangle counts.
                *self.t_counts.entry(k).or_insert(0) += 1;
            }
        }
        self.buf = buf;
    }

    fn finish(self) -> TriangleEstimate {
        // In pass 2, a triangle completes once per apex list scan: the apex
        // of (e, τ) is scanned exactly once, so each pair is discovered
        // exactly once. A sampled edge's own lists cannot complete it.
        let t_of = |e: u64| self.t_counts.get(&e).copied().unwrap_or(0);
        let counted = self
            .q
            .items()
            .iter()
            .filter(|p| p.lightest_slot([0, 1, 2].map(|s| t_of(p.slot_edge(s)))) == 0)
            .count() as u64;
        TriangleEstimate::assemble(
            self.sampling,
            self.items / 2,
            self.s_edges.len(),
            self.discovered,
            self.q.len(),
            counted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::{exact, gen};
    use adjstream_stream::{PassOrders, Runner, StreamOrder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_once(
        g: &adjstream_graph::Graph,
        seed: u64,
        sampling: EdgeSampling,
        cap: usize,
        order_seed: u64,
    ) -> TriangleEstimate {
        let n = g.vertex_count();
        let (est, _) = Runner::run(
            g,
            ThreePassTriangle::new(seed, sampling, cap),
            &PassOrders::Same(StreamOrder::shuffled(n, order_seed)),
        );
        est
    }

    /// Full sampling + unbounded Q is exact: each triangle counted at its
    /// unique lightest edge (by exact T(f), ties by key).
    #[test]
    fn exhaustive_is_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..6 {
            let g = gen::gnm(35, 170, &mut rng);
            let truth = exact::count_triangles(&g);
            let est = run_once(
                &g,
                trial,
                EdgeSampling::Threshold { p: 1.0 },
                usize::MAX,
                trial,
            );
            assert_eq!(est.estimate, truth as f64, "trial {trial}");
            assert_eq!(est.pairs_discovered, 3 * truth);
        }
    }

    #[test]
    fn exhaustive_bottomk_is_exact() {
        let g = gen::complete(10); // T = 120, m = 45
        let est = run_once(&g, 3, EdgeSampling::BottomK { k: 45 }, usize::MAX, 8);
        assert_eq!(est.estimate, 120.0);
    }

    #[test]
    fn unbiased_when_subsampling() {
        let g = gen::disjoint_cliques(6, 8); // T = 160
        let reps = 250;
        let mut sum = 0.0;
        for seed in 0..reps {
            sum += run_once(&g, seed, EdgeSampling::Threshold { p: 0.4 }, 100, seed).estimate;
        }
        let mean = sum / reps as f64;
        assert!((mean - 160.0).abs() < 16.0, "mean {mean}");
    }

    /// Pass 2 without a reservoir stores Θ(T/k) pairs — the space blow-up
    /// that motivates subsampling Q (ablation A3): capped runs use less
    /// space on triangle-dense graphs.
    #[test]
    fn q_capping_reduces_space() {
        let g = gen::complete(40); // T = 9880
        let run = |cap| {
            let (_, r) = Runner::run(
                &g,
                ThreePassTriangle::new(2, EdgeSampling::Threshold { p: 0.8 }, cap),
                &PassOrders::Same(StreamOrder::natural(40)),
            );
            r.peak_state_bytes
        };
        let capped = run(50);
        let uncapped = run(usize::MAX);
        assert!(capped * 4 < uncapped, "capped {capped} uncapped {uncapped}");
    }
}
