//! One-pass triangle estimation (the `Õ(m/√T)` Table-1 row, after
//! McGregor–Vorotnikova–Vu \[27\]).
//!
//! Sample each edge when it first appears (hash-based, rate `p`); whenever a
//! later adjacency list contains both endpoints of a sampled edge, a
//! triangle completion is observed. For a triangle whose vertices arrive in
//! order `a, b, c`, the edges `{a,b}` and `{a,c}` are completed by an apex
//! arriving after their first appearance, while `{b,c}`'s apex `a` has
//! already passed — so each triangle is observed `2p` times in expectation
//! and `X/(2p)` is unbiased. Choosing `p = Θ(1/√T)` gives the `Õ(m/√T)`
//! space bound for graphs without very heavy edges; the heavy-edge variance
//! this estimator suffers on e.g. book graphs is exactly the motivation for
//! the Section 3 two-pass algorithm (ablation A1).

use adjstream_graph::VertexId;
use adjstream_stream::hashing::FastMap;
use adjstream_stream::meter::{hashmap_bytes, SpaceUsage};
use adjstream_stream::runner::MultiPassAlgorithm;

use super::kernel::{EdgeSampler, Offer};
use crate::common::{pack_pair, unpack_pair, EdgeSampling, PairWatcher};

/// Result of a [`OnePassTriangle`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnePassEstimate {
    /// The estimate `X / (2·rate)`.
    pub estimate: f64,
    /// Raw completions observed `X`.
    pub completions: u64,
    /// Final sampled-edge count.
    pub edges_sampled: usize,
    /// Edges in the stream.
    pub m: u64,
}

/// The one-pass sampled-edge triangle estimator. See module docs.
pub struct OnePassTriangle {
    sampler: EdgeSampler,
    sampling: EdgeSampling,
    /// Completions credited per sampled edge (needed to roll back on
    /// bottom-k eviction).
    credits: FastMap<u64, u64>,
    watcher: PairWatcher,
    completions: u64,
    items: u64,
    buf: Vec<u64>,
}

impl OnePassTriangle {
    /// Build with the given seed and sampling mode.
    pub fn new(seed: u64, sampling: EdgeSampling) -> Self {
        OnePassTriangle {
            sampler: EdgeSampler::new(seed, sampling),
            sampling,
            credits: FastMap::default(),
            watcher: PairWatcher::new(),
            completions: 0,
            items: 0,
            buf: Vec::new(),
        }
    }
}

impl SpaceUsage for OnePassTriangle {
    fn space_bytes(&self) -> usize {
        hashmap_bytes(&self.credits) + self.watcher.space_bytes() + self.sampler.space_bytes()
    }
}

impl MultiPassAlgorithm for OnePassTriangle {
    type Output = OnePassEstimate;

    fn passes(&self) -> usize {
        1
    }

    fn begin_pass(&mut self, _pass: usize) {}

    fn begin_list(&mut self, _owner: VertexId) {
        self.watcher.begin_list();
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.items += 1;
        let key = pack_pair(src, dst);
        let credits = &self.credits;
        let offer = self.sampler.offer(key, |k| credits.contains_key(k));
        if let Offer::New | Offer::NewEvicting(_) = offer {
            self.credits.insert(key, 0);
            self.watcher.watch(src, dst);
        }
        if let Offer::NewEvicting(old) = offer {
            // Roll back the evicted edge's credits.
            let lost = self.credits.remove(&old).expect("evictee tracked");
            self.completions -= lost;
            let (a, b) = unpack_pair(old);
            self.watcher.unwatch(a, b);
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        self.watcher.on_item(dst, |k| buf.push(k));
        for &k in &buf {
            if let Some(c) = self.credits.get_mut(&k) {
                *c += 1;
                self.completions += 1;
            }
        }
        self.buf = buf;
    }

    fn finish(self) -> OnePassEstimate {
        let m = self.items / 2;
        let rate = match self.sampling {
            EdgeSampling::Threshold { p } => p,
            EdgeSampling::BottomK { .. } => {
                if m == 0 {
                    0.0
                } else {
                    (self.credits.len() as f64 / m as f64).min(1.0)
                }
            }
        };
        let estimate = if rate > 0.0 {
            self.completions as f64 / (2.0 * rate)
        } else {
            0.0
        };
        OnePassEstimate {
            estimate,
            completions: self.completions,
            edges_sampled: self.credits.len(),
            m,
        }
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
        order_seed: u64,
    ) -> OnePassEstimate {
        let n = g.vertex_count();
        let (est, _) = Runner::run(
            g,
            OnePassTriangle::new(seed, sampling),
            &PassOrders::Same(StreamOrder::shuffled(n, order_seed)),
        );
        est
    }

    /// With p = 1, every triangle is completed exactly twice (once per edge
    /// whose first appearance precedes the apex), so X = 2T exactly.
    #[test]
    fn full_rate_counts_each_triangle_twice() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..6 {
            let g = gen::gnm(35, 180, &mut rng);
            let t = exact::count_triangles(&g);
            let est = run_once(&g, trial, EdgeSampling::Threshold { p: 1.0 }, trial);
            assert_eq!(est.completions, 2 * t, "trial {trial}");
            assert_eq!(est.estimate, t as f64);
        }
    }

    #[test]
    fn unbiased_at_half_rate() {
        let g = gen::disjoint_cliques(5, 12); // T = 120
        let reps = 400;
        let mut sum = 0.0;
        for seed in 0..reps {
            sum += run_once(&g, seed, EdgeSampling::Threshold { p: 0.5 }, seed).estimate;
        }
        let mean = sum / reps as f64;
        assert!((mean - 120.0).abs() < 12.0, "mean {mean}");
    }

    #[test]
    fn bottomk_eviction_rolls_back_credits() {
        // Small k on a triangle-dense graph: credits for evicted edges must
        // be subtracted, so the final X only reflects surviving edges.
        let g = gen::complete(12);
        let est = run_once(&g, 5, EdgeSampling::BottomK { k: 10 }, 9);
        assert_eq!(est.edges_sampled, 10);
        // Sanity: estimate within an order of magnitude of T=220 given the
        // fixed seeds (exactness is not expected at this rate).
        assert!(est.estimate > 0.0 && est.estimate < 2200.0, "{est:?}");
    }

    #[test]
    fn triangle_free_yields_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::bipartite_gnm(15, 15, 100, &mut rng);
        let est = run_once(&g, 3, EdgeSampling::Threshold { p: 1.0 }, 4);
        assert_eq!(est.completions, 0);
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.m, 100);
    }
}
