//! The two-pass triangle *distinguisher* of \[27\] (Section 2.1 of the
//! paper): decides "triangle-free vs ≥ T triangles" in `Õ(m/T^{2/3})` space.
//!
//! Pass 1 samples `m′` edges; pass 2 flags both endpoints of each sampled
//! edge inside every adjacency list, declaring a triangle the moment some
//! list contains both. Any graph with `T` triangles has at least `T^{2/3}`
//! edges involved in triangles, so `m′ = Θ(m/T^{2/3})` hits one with
//! constant probability; a triangle-free graph can never produce a witness,
//! so the distinguisher has one-sided error.

use adjstream_graph::VertexId;
use adjstream_stream::hashing::FastSet;
use adjstream_stream::meter::{hashset_bytes, SpaceUsage};
use adjstream_stream::runner::MultiPassAlgorithm;
use adjstream_stream::sampling::BottomKSampler;

use crate::common::{pack_pair, PairWatcher};

/// Output of [`TriangleDistinguisher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistinguishVerdict {
    /// Whether any sampled edge was found to be in a triangle.
    pub found_triangle: bool,
    /// Number of (sampled-edge, apex) witnesses observed in pass 2.
    pub witnesses: u64,
    /// Final size of the edge sample.
    pub edges_sampled: usize,
}

/// Two-pass one-sided distinguisher between triangle-free graphs and graphs
/// with many triangles. See module docs.
pub struct TriangleDistinguisher {
    pass: usize,
    sampler: BottomKSampler,
    members: FastSet<u64>,
    watcher: PairWatcher,
    witnesses: u64,
    buf: Vec<u64>,
}

impl TriangleDistinguisher {
    /// Sample `m_prime` edges in pass 1.
    pub fn new(seed: u64, m_prime: usize) -> Self {
        TriangleDistinguisher {
            pass: 0,
            sampler: BottomKSampler::new(seed, m_prime),
            members: FastSet::default(),
            watcher: PairWatcher::new(),
            witnesses: 0,
            buf: Vec::new(),
        }
    }
}

impl SpaceUsage for TriangleDistinguisher {
    fn space_bytes(&self) -> usize {
        self.sampler.space_bytes() + hashset_bytes(&self.members) + self.watcher.space_bytes()
    }
}

impl MultiPassAlgorithm for TriangleDistinguisher {
    type Output = DistinguishVerdict;

    fn passes(&self) -> usize {
        2
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        if pass == 1 {
            // Freeze the sample and start watching it: every triangle on a
            // sampled edge completes somewhere in pass 2.
            let mut keys: Vec<u64> = self.sampler.keys().collect();
            // Deterministic watch order regardless of sampler iteration.
            keys.sort_unstable();
            for key in keys {
                self.members.insert(key);
                let (a, b) = crate::common::unpack_pair(key);
                self.watcher.watch(a, b);
            }
        }
    }

    fn begin_list(&mut self, _owner: VertexId) {
        if self.pass == 1 {
            self.watcher.begin_list();
        }
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        match self.pass {
            0 => {
                self.sampler.offer(pack_pair(src, dst));
            }
            _ => {
                let mut buf = std::mem::take(&mut self.buf);
                buf.clear();
                self.watcher.on_item(dst, |k, _| buf.push(k));
                self.witnesses += buf.len() as u64;
                self.buf = buf;
            }
        }
    }

    fn finish(self) -> DistinguishVerdict {
        DistinguishVerdict {
            found_triangle: self.witnesses > 0,
            witnesses: self.witnesses,
            edges_sampled: self.members.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::gen;
    use adjstream_stream::{PassOrders, Runner, StreamOrder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_once(g: &adjstream_graph::Graph, seed: u64, m_prime: usize) -> DistinguishVerdict {
        let n = g.vertex_count();
        let (v, _) = Runner::run(
            g,
            TriangleDistinguisher::new(seed, m_prime),
            &PassOrders::Same(StreamOrder::shuffled(n, seed ^ 0xD15)),
        );
        v
    }

    /// One-sided error: a triangle-free graph can never produce a witness.
    #[test]
    fn never_false_positive() {
        let mut rng = StdRng::seed_from_u64(21);
        for seed in 0..20 {
            let g = gen::bipartite_gnm(25, 25, 300, &mut rng);
            let v = run_once(&g, seed, 50);
            assert!(!v.found_triangle, "false positive at seed {seed}");
            assert_eq!(v.witnesses, 0);
        }
    }

    /// Full sampling always detects.
    #[test]
    fn full_sample_always_detects() {
        let g = gen::disjoint_triangles(5);
        let v = run_once(&g, 1, 15);
        assert!(v.found_triangle);
        // With all 15 edges sampled, every (edge, apex) pair is a witness.
        assert_eq!(v.witnesses, 15);
    }

    /// At the Theorem budget m/T^{2/3} the detection probability is high:
    /// with T planted triangles at least T^{2/3} edges are in triangles.
    #[test]
    fn detects_at_theorem_budget() {
        let mut rng = StdRng::seed_from_u64(33);
        let t = 64usize;
        let g = gen::planted_triangles_on_bipartite(40, 40, 800, t, &mut rng);
        let m = g.edge_count() as f64;
        let budget = (8.0 * m / (t as f64).powf(2.0 / 3.0)).ceil() as usize;
        let detected = (0..20)
            .filter(|&s| run_once(&g, s, budget).found_triangle)
            .count();
        assert!(
            detected >= 15,
            "detected only {detected}/20 at budget {budget}"
        );
    }

    /// Far below the budget, detection on a *single*-triangle graph is
    /// unlikely — the distinguisher needs its space.
    #[test]
    fn misses_below_budget() {
        let mut rng = StdRng::seed_from_u64(34);
        let g = gen::planted_triangles_on_bipartite(60, 60, 2000, 1, &mut rng);
        let detected = (0..20)
            .filter(|&s| run_once(&g, s, 5).found_triangle)
            .count();
        assert!(
            detected <= 6,
            "detected {detected}/20 with 5 edges of {}",
            g.edge_count()
        );
    }
}
