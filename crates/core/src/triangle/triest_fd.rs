//! TRIÈST-FD: fully-dynamic triangle estimation under edge insertions
//! *and deletions* (De Stefani, Epasto, Riondato, Upfal; KDD 2016, §4.3),
//! built on Gemulla's *random pairing* reservoir.
//!
//! Plain reservoir sampling cannot survive deletions: evicting the deleted
//! edge skews the sample, keeping it breaks the graph. Random pairing
//! instead *remembers* deletions as debt — `d_i` uncompensated deletions
//! of **sampled** edges, `d_o` of unsampled ones — and pays the debt with
//! future insertions: while `d_i + d_o > 0`, an arriving edge enters the
//! sample with probability `d_i / (d_i + d_o)` (taking over a vacated
//! sample slot) and is discarded otherwise; with zero debt the classic
//! reservoir step applies. The invariant is that the sample is always a
//! uniform `ω = min(M, s + d_i + d_o)`-subset of the `s` live edges, where
//! `s` tracks the live-edge count.
//!
//! The estimator keeps `τ` — the **exact** triangle count of the sampled
//! subgraph, updated by ± the distinct common neighbors of an edge's
//! endpoints whenever the edge enters or leaves the sample — and returns
//! `τ / p₃`, where
//!
//! ```text
//! p₃ = [ω (ω−1) (ω−2)] / [(s+d)(s+d−1)(s+d−2)],   d = d_i + d_o
//! ```
//!
//! is the probability that all three edges of a surviving triangle are in
//! a uniform ω-subset of the `s + d` "candidate" population. While
//! `s + d ≤ M` the sample holds everything, `p₃ = 1`, and the estimate is
//! exact — mirroring TRIÈST-base's full-reservoir behavior, now under
//! deletions too.

use std::io::{self, Read, Write};

use adjstream_graph::EdgeKey;
use adjstream_stream::checkpoint::{
    corrupt, read_u64, read_usize, write_u64, write_usize, Checkpoint,
};
use adjstream_stream::hashing::{FastMap, SplitMix64};
use adjstream_stream::meter::{hashmap_bytes, vec_bytes, SpaceUsage};
use adjstream_stream::update::UpdateAlgorithm;

use super::triest::SampleAdjacency;
use crate::common::seq_reserve;

/// TRIÈST-FD: random-pairing edge reservoir with inverse-probability
/// triangle weighting. See module docs.
pub struct TriestFd {
    capacity: usize,
    /// Live edges in the evolving graph (insertions minus deletions).
    s: u64,
    /// Uncompensated deletions of edges that *were in* the sample.
    d_in: u64,
    /// Uncompensated deletions of edges that were *not* in the sample.
    d_out: u64,
    /// The sampled edges; eviction is uniform via `swap_remove`.
    reservoir: Vec<EdgeKey>,
    /// Packed edge → index in `reservoir`, for O(1) membership tests on
    /// deletions and the swap-fixup after an eviction.
    index: FastMap<u64, usize>,
    /// Adjacency of the sampled subgraph (shared with TRIÈST-base).
    adj: SampleAdjacency,
    /// Exact triangle count of the sampled subgraph.
    tau: u64,
    rng: SplitMix64,
}

impl TriestFd {
    /// Estimator with reservoir capacity `m_prime`.
    pub fn new(seed: u64, m_prime: usize) -> Self {
        assert!(
            m_prime >= 3,
            "TRIÈST-FD needs at least three reservoir slots"
        );
        TriestFd {
            capacity: m_prime,
            s: 0,
            d_in: 0,
            d_out: 0,
            reservoir: Vec::with_capacity(m_prime.min(1 << 20)),
            index: FastMap::default(),
            adj: SampleAdjacency::default(),
            tau: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Exact triangle count of the *sampled* subgraph (`τ`).
    pub fn sampled_triangles(&self) -> u64 {
        self.tau
    }

    /// Live-edge count `s` implied by the update stream so far.
    pub fn live_edges(&self) -> u64 {
        self.s
    }

    /// Current sample size.
    pub fn sample_size(&self) -> usize {
        self.reservoir.len()
    }

    /// Uncompensated deletion debt `(d_i, d_o)`.
    pub fn deletion_debt(&self) -> (u64, u64) {
        (self.d_in, self.d_out)
    }

    fn next_below(&mut self, bound: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.rng.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Put `e` into the sample, keeping `τ`, the adjacency, and the index
    /// map consistent. `e` must not already be sampled.
    fn sample_insert(&mut self, e: EdgeKey) {
        self.tau += self.adj.common_count(e.lo(), e.hi());
        let prev = self.index.insert(e.pack(), self.reservoir.len());
        debug_assert!(prev.is_none(), "edge already sampled");
        self.reservoir.push(e);
        self.adj.add(e);
    }

    /// Remove the sampled edge at `pos`, fixing up the swapped index.
    fn sample_remove_at(&mut self, pos: usize) -> EdgeKey {
        let e = self.reservoir.swap_remove(pos);
        self.index.remove(&e.pack());
        if let Some(moved) = self.reservoir.get(pos) {
            self.index.insert(moved.pack(), pos);
        }
        let removed = self.adj.remove(e);
        debug_assert!(removed, "sampled edge had adjacency");
        self.tau -= self.adj.common_count(e.lo(), e.hi());
        e
    }

    /// Check every structural invariant, panicking with a description of
    /// the first violation. Used by the property tests; cost is
    /// `O(M² · deg)` (it recounts `τ` from scratch), so call it on small
    /// instances only.
    pub fn assert_invariants(&self) {
        assert!(
            self.reservoir.len() <= self.capacity,
            "sample over capacity"
        );
        assert!(
            self.reservoir.len() as u64 <= self.s,
            "more sampled edges than live edges"
        );
        assert_eq!(
            self.index.len(),
            self.reservoir.len(),
            "index/reservoir size mismatch"
        );
        for (i, e) in self.reservoir.iter().enumerate() {
            assert_eq!(
                self.index.get(&e.pack()),
                Some(&i),
                "index does not point at reservoir slot"
            );
        }
        let mut expected: Vec<u64> = self.reservoir.iter().map(|e| e.pack()).collect();
        expected.sort_unstable();
        assert_eq!(
            self.adj.edge_multiset(),
            expected,
            "adjacency out of sync with reservoir"
        );
        // τ must equal the exact triangle count of the sampled subgraph:
        // count each triangle at its lexicographically-last edge.
        let mut probe = SampleAdjacency::default();
        let mut tau = 0u64;
        for &e in &self.reservoir {
            tau += probe.common_count(e.lo(), e.hi());
            probe.add(e);
        }
        assert_eq!(self.tau, tau, "τ out of sync with sampled subgraph");
    }

    /// `p₃`: probability that three fixed candidate edges are all sampled.
    fn p3(&self) -> f64 {
        let d = self.d_in + self.d_out;
        let pop = self.s + d;
        if pop < 3 {
            return 1.0;
        }
        let omega = (self.capacity as u64).min(pop) as f64;
        let pop = pop as f64;
        (omega * (omega - 1.0) * (omega - 2.0)) / (pop * (pop - 1.0) * (pop - 2.0))
    }
}

/// Batch-boundary persistence. The reservoir `Vec` is saved *in order* —
/// eviction uses `swap_remove`, so slot order feeds back into which edge a
/// future eviction removes, and bit-identical resume therefore needs the
/// exact layout, not just the edge set. The `index` map and the sampled
/// adjacency are reconstructed from the reservoir; `τ` is stored *and*
/// recounted during the rebuild, so a payload whose stored `τ` disagrees
/// with its own reservoir is rejected as corrupt instead of silently
/// skewing every later estimate.
impl Checkpoint for TriestFd {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        write_usize(w, self.capacity)?;
        write_u64(w, self.s)?;
        write_u64(w, self.d_in)?;
        write_u64(w, self.d_out)?;
        write_u64(w, self.tau)?;
        write_u64(w, self.rng.state())?;
        write_usize(w, self.reservoir.len())?;
        for e in &self.reservoir {
            write_u64(w, e.pack())?;
        }
        Ok(())
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let capacity = read_usize(r)?;
        if capacity < 3 {
            return Err(corrupt(format!("reservoir capacity {capacity} below 3")));
        }
        let s = read_u64(r)?;
        let d_in = read_u64(r)?;
        let d_out = read_u64(r)?;
        let tau = read_u64(r)?;
        let rng = SplitMix64::from_state(read_u64(r)?);
        let len = read_usize(r)?;
        if len > capacity {
            return Err(corrupt(format!(
                "sample size {len} over capacity {capacity}"
            )));
        }
        if len as u64 > s {
            return Err(corrupt(format!("sample size {len} exceeds live edges {s}")));
        }
        let mut restored = TriestFd {
            capacity,
            s,
            d_in,
            d_out,
            reservoir: Vec::with_capacity(seq_reserve::<EdgeKey>(len)),
            index: FastMap::default(),
            adj: SampleAdjacency::default(),
            tau: 0,
            rng,
        };
        for _ in 0..len {
            let packed = read_u64(r)?;
            // Validate before unpacking: EdgeKey::unpack debug-asserts
            // lo < hi, and checkpoint bytes cross a trust boundary.
            if (packed >> 32) as u32 >= packed as u32 {
                return Err(corrupt(format!("malformed packed edge {packed:#018x}")));
            }
            let e = EdgeKey::unpack(packed);
            if restored.index.contains_key(&packed) {
                return Err(corrupt(format!("duplicate reservoir edge {e}")));
            }
            restored.sample_insert(e);
        }
        if restored.tau != tau {
            return Err(corrupt(format!(
                "stored τ = {tau} disagrees with reservoir recount {}",
                restored.tau
            )));
        }
        Ok(restored)
    }
}

impl SpaceUsage for TriestFd {
    fn space_bytes(&self) -> usize {
        vec_bytes(&self.reservoir)
            + hashmap_bytes(&self.index)
            + self.adj.space_bytes()
            + 5 * 8
            + 16
    }
}

impl UpdateAlgorithm for TriestFd {
    fn insert(&mut self, e: EdgeKey, _ts: u64) {
        self.s += 1;
        let debt = self.d_in + self.d_out;
        if debt > 0 {
            // Random pairing: this insertion compensates one earlier
            // deletion; it takes a vacated *sample* slot with probability
            // d_i / (d_i + d_o).
            if self.next_below(debt) < self.d_in {
                self.d_in -= 1;
                self.sample_insert(e);
            } else {
                self.d_out -= 1;
            }
        } else if self.reservoir.len() < self.capacity {
            self.sample_insert(e);
        } else if self.next_below(self.s) < self.capacity as u64 {
            // Classic reservoir step over the s live edges.
            let evict = self.next_below(self.reservoir.len() as u64) as usize;
            self.sample_remove_at(evict);
            self.sample_insert(e);
        }
    }

    fn delete(&mut self, e: EdgeKey, _ts: u64) {
        // Tolerant by construction: a deletion of an unsampled edge —
        // the common case, and the one that used to panic TRIÈST-base's
        // shared machinery — just grows the d_o debt. Callers are trusted
        // to delete only live edges (`s` is their bookkeeping).
        self.s = self.s.saturating_sub(1);
        if let Some(&pos) = self.index.get(&e.pack()) {
            self.sample_remove_at(pos);
            self.d_in += 1;
        } else {
            self.d_out += 1;
        }
    }

    fn estimate(&self) -> f64 {
        self.tau as f64 / self.p3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::{exact, gen, Graph, GraphBuilder};
    use adjstream_stream::update::{
        churn, run_update_batches, ChurnConfig, UpdateOp, UpdateStream,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn final_graph(stream: &UpdateStream) -> Graph {
        let edges = stream.final_edges();
        let n = edges
            .iter()
            .map(|e| e.hi().0 as usize + 1)
            .max()
            .unwrap_or(0);
        GraphBuilder::from_edges(n, edges.iter().map(|e| (e.lo().0, e.hi().0)))
            .expect("valid final edge set")
    }

    fn drive(stream: &UpdateStream, m_prime: usize, seed: u64) -> TriestFd {
        let mut alg = TriestFd::new(seed, m_prime);
        run_update_batches(stream, 64, &mut alg);
        alg
    }

    /// With capacity ≥ inserts the sample tracks the live graph exactly:
    /// every deletion hits the sample (`d_o` stays 0), every insertion
    /// compensates or extends, `p₃ = 1`, and the estimate equals the exact
    /// triangle count of the final graph — TRIÈST-base's
    /// full-reservoir-is-exact guarantee, extended to deletion streams.
    #[test]
    fn full_reservoir_is_exact_under_deletions() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..6 {
            let g = gen::gnm(30, 140, &mut rng);
            let stream = churn(
                &g,
                &ChurnConfig {
                    churn_events: 300,
                    delete_fraction: 0.55,
                    seed: trial,
                },
            );
            let alg = drive(&stream, g.edge_count() + 300, trial);
            alg.assert_invariants();
            assert_eq!(alg.deletion_debt().1, 0, "no unsampled deletions");
            let truth = exact::count_triangles(&final_graph(&stream));
            assert_eq!(alg.estimate(), truth as f64, "trial {trial}");
            assert_eq!(alg.sampled_triangles(), truth);
        }
    }

    /// Sub-sampled estimates average to the truth across seeds.
    #[test]
    fn subsampled_is_unbiased_under_deletions() {
        let g = gen::disjoint_cliques(5, 12); // 120 triangles before churn
        let stream = churn(
            &g,
            &ChurnConfig {
                churn_events: 200,
                delete_fraction: 0.5,
                seed: 77,
            },
        );
        let truth = exact::count_triangles(&final_graph(&stream)) as f64;
        let reps = 300;
        let mean: f64 = (0..reps)
            .map(|s| drive(&stream, 60, s).estimate())
            .sum::<f64>()
            / reps as f64;
        assert!(
            (mean - truth).abs() < 0.15 * truth,
            "mean {mean} vs truth {truth}"
        );
    }

    /// Deletions of unsampled edges must be absorbed as `d_o` debt, not
    /// panics — the regression the tolerant `SampleAdjacency::remove`
    /// exists for.
    #[test]
    fn unsampled_deletions_grow_debt_without_panicking() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::gnm(100, 400, &mut rng);
        let stream = churn(
            &g,
            &ChurnConfig {
                churn_events: 600,
                delete_fraction: 0.7,
                seed: 9,
            },
        );
        // Tiny reservoir: most deletions target unsampled edges.
        let mut alg = TriestFd::new(3, 8);
        for ev in stream.events() {
            match ev.op {
                UpdateOp::Insert => alg.insert(ev.edge, ev.ts),
                UpdateOp::Delete => alg.delete(ev.edge, ev.ts),
            }
            assert!(alg.sample_size() <= 8);
        }
        alg.assert_invariants();
        let (_, d_out) = alg.deletion_debt();
        assert!(d_out > 0, "small sample must have missed some deletions");
        assert_eq!(alg.live_edges(), stream.final_edges().len() as u64);
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn rejects_tiny_reservoir() {
        TriestFd::new(1, 2);
    }

    /// Resume contract: a run checkpointed at an event boundary and
    /// restored must produce *bit-identical* estimates for the remainder
    /// of the stream — the reservoir layout, RNG state, debt counters, and
    /// τ all survive the round trip.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::gnm(40, 200, &mut rng);
        let stream = churn(
            &g,
            &ChurnConfig {
                churn_events: 400,
                delete_fraction: 0.6,
                seed: 17,
            },
        );
        for cut_frac in [1, 2, 3] {
            let cut = stream.len() * cut_frac / 4;
            // Uninterrupted run, recording post-cut estimates.
            let mut whole = TriestFd::new(7, 48);
            let mut expected = Vec::new();
            for (i, ev) in stream.events().iter().enumerate() {
                whole.apply(ev);
                if i >= cut {
                    expected.push(whole.estimate().to_bits());
                }
            }
            // Interrupted run: checkpoint at `cut`, restore, finish.
            let mut first = TriestFd::new(7, 48);
            for ev in &stream.events()[..cut] {
                first.apply(ev);
            }
            let mut buf = Vec::new();
            first.save(&mut buf).unwrap();
            let mut resumed = TriestFd::restore(&mut &buf[..]).unwrap();
            resumed.assert_invariants();
            let mut actual = Vec::new();
            for ev in &stream.events()[cut..] {
                resumed.apply(ev);
                actual.push(resumed.estimate().to_bits());
            }
            assert_eq!(expected, actual, "cut at {cut}");
            resumed.assert_invariants();
            assert_eq!(resumed.deletion_debt(), whole.deletion_debt());
            assert_eq!(resumed.live_edges(), whole.live_edges());
        }
    }

    #[test]
    fn restore_rejects_structural_garbage() {
        let mut alg = TriestFd::new(3, 8);
        for (i, (u, v)) in [(0, 1), (1, 2), (0, 2), (2, 3)].iter().enumerate() {
            alg.insert(
                adjstream_graph::EdgeKey::new((*u).into(), (*v).into()),
                i as u64,
            );
        }
        let mut good = Vec::new();
        alg.save(&mut good).unwrap();

        // Truncation.
        assert!(TriestFd::restore(&mut &good[..good.len() - 4]).is_err());
        // Undersized capacity.
        let mut bad = good.clone();
        bad[0] = 1;
        assert!(TriestFd::restore(&mut &bad[..]).is_err());
        // τ inconsistent with the reservoir (alg has one triangle).
        let mut bad = good.clone();
        let tau_at = 8 + 3 * 8; // capacity, s, d_in, d_out
        bad[tau_at] = bad[tau_at].wrapping_add(1);
        assert!(TriestFd::restore(&mut &bad[..]).is_err());
        // Self-loop packed edge (lo == hi).
        let mut bad = good.clone();
        let first_edge_at = 8 * 7;
        bad[first_edge_at..first_edge_at + 8]
            .copy_from_slice(&(((5u64) << 32) | 5u64).to_le_bytes());
        assert!(TriestFd::restore(&mut &bad[..]).is_err());
        // The untouched payload still restores and passes invariants.
        let restored = TriestFd::restore(&mut &good[..]).unwrap();
        restored.assert_invariants();
        assert_eq!(restored.sampled_triangles(), 1);
    }
}
