//! The random-order one-pass estimator sketched in Section 1.1 (after
//! Jha–Seshadhri–Pinar \[17\]): "uniform edge sampling to find wedges and
//! then checking whether those wedges are completed by some later edge".
//!
//! Sample each arriving edge independently with probability `p`; a later
//! edge `{u, v}` *closes* every wedge formed by two already-sampled edges
//! `{u, c}, {v, c}`. Each triangle is detected exactly when its two
//! earliest edges were both sampled — probability `p²` under any arrival
//! order — so `X/p²` is unbiased; the uniformly random order (which
//! [`adjstream_stream::arbitrary::ArbitraryOrderStream`] provides) is what
//! makes the *variance* benign, spreading each triangle's detection window
//! over the whole stream. Space is `O(pm)` plus the closure index.

use adjstream_graph::EdgeKey;
use adjstream_stream::arbitrary::EdgeStreamAlgorithm;
use adjstream_stream::hashing::{FastMap, HashFn};
use adjstream_stream::meter::{hashmap_bytes, SpaceUsage};

use crate::common::count_common_neighbors;

/// Result of a [`RandomOrderTriangle`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomOrderEstimate {
    /// `X / p²`.
    pub estimate: f64,
    /// Wedge closures observed `X`.
    pub closures: u64,
    /// Edges sampled.
    pub edges_sampled: usize,
    /// Stream length `m`.
    pub m: u64,
}

/// One-pass random-order triangle estimator. See module docs.
pub struct RandomOrderTriangle {
    p: f64,
    hash: HashFn,
    /// Adjacency of the sampled subgraph.
    adj: FastMap<u32, Vec<u32>>,
    edges_sampled: usize,
    closures: u64,
    m: u64,
}

impl RandomOrderTriangle {
    /// Estimator sampling edges at rate `p`.
    pub fn new(seed: u64, p: f64) -> Self {
        RandomOrderTriangle {
            p: p.clamp(0.0, 1.0),
            hash: HashFn::from_seed(seed, 0x3A2D),
            adj: FastMap::default(),
            edges_sampled: 0,
            closures: 0,
            m: 0,
        }
    }

    fn common_sampled(&self, u: u32, v: u32) -> u64 {
        let (Some(nu), Some(nv)) = (self.adj.get(&u), self.adj.get(&v)) else {
            return 0;
        };
        count_common_neighbors(nu, nv)
    }
}

impl SpaceUsage for RandomOrderTriangle {
    fn space_bytes(&self) -> usize {
        // The vectors' headers are in the map's entries.
        let inner: usize = self.adj.values().map(|v| v.capacity() * 4).sum();
        hashmap_bytes(&self.adj) + inner + 64
    }
}

impl EdgeStreamAlgorithm for RandomOrderTriangle {
    type Output = RandomOrderEstimate;

    fn edge(&mut self, e: EdgeKey) {
        self.m += 1;
        // 1. Closure: wedges over already-sampled edges with leaves {u, v}.
        self.closures += self.common_sampled(e.lo().0, e.hi().0);
        // 2. Sample the edge itself (hash-based so reruns are replayable).
        if self.p >= 1.0 || self.hash.unit(e.pack()) < self.p {
            self.edges_sampled += 1;
            self.adj.entry(e.lo().0).or_default().push(e.hi().0);
            self.adj.entry(e.hi().0).or_default().push(e.lo().0);
        }
    }

    fn finish(self) -> RandomOrderEstimate {
        let estimate = if self.p > 0.0 {
            self.closures as f64 / (self.p * self.p)
        } else {
            0.0
        };
        RandomOrderEstimate {
            estimate,
            closures: self.closures,
            edges_sampled: self.edges_sampled,
            m: self.m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::{exact, gen};
    use adjstream_stream::arbitrary::{run_edge_stream, ArbitraryOrderStream};

    fn run(g: &adjstream_graph::Graph, p: f64, seed: u64) -> RandomOrderEstimate {
        let s = ArbitraryOrderStream::new(g, seed);
        let (est, _) = run_edge_stream(&s, RandomOrderTriangle::new(seed ^ 0xE, p));
        est
    }

    /// At p = 1, each triangle closes exactly once (at its last edge).
    #[test]
    fn full_rate_is_exact() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..8 {
            let g = gen::gnm(30, 140, &mut rng);
            let truth = exact::count_triangles(&g);
            let est = run(&g, 1.0, trial);
            assert_eq!(est.closures, truth, "trial {trial}");
            assert_eq!(est.estimate, truth as f64);
        }
    }

    #[test]
    fn unbiased_at_partial_rate() {
        let g = gen::disjoint_cliques(5, 12); // T = 120
        let reps = 400;
        let mean: f64 = (0..reps).map(|s| run(&g, 0.5, s).estimate).sum::<f64>() / reps as f64;
        assert!((mean - 120.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn zero_rate_estimates_zero() {
        let g = gen::complete(6);
        let est = run(&g, 0.0, 1);
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.edges_sampled, 0);
    }

    #[test]
    fn sample_rate_is_respected() {
        let g = gen::complete(40); // m = 780
        let est = run(&g, 0.25, 9);
        let frac = est.edges_sampled as f64 / est.m as f64;
        assert!((frac - 0.25).abs() < 0.08, "frac {frac}");
    }
}
