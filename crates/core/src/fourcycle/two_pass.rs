//! The Section 4 two-pass `O(1)`-approximation 4-cycle counter
//! (Theorem 4.6), `Õ(m/T^{3/8})` space.
//!
//! Pass 1 keeps a uniform edge sample `S` of size `m′`; between passes the
//! wedge set `Q` (pairs of adjacent sampled edges) is formed; pass 2 counts
//! the 4-cycles of `G` containing a wedge of `Q` by flagging each wedge's
//! leaf pair in every adjacency list (a list owner `z ≠ center` adjacent to
//! both leaves closes the cycle). The analysis (Lemmas 4.2–4.5) shows a
//! constant fraction of cycles contain a *good* wedge — not overused, no
//! heavy edge — so `k² · |{cycles found}|` is an `O(1)`-factor
//! approximation. Unlike the triangle algorithm, the good wedge cannot be
//! identified during the stream, which is exactly why the guarantee is
//! `O(1)` rather than `1 ± ε`.
//!
//! Two estimator variants are exposed (ablation A4):
//!
//! * [`FourCycleEstimator::DistinctCycles`] — the paper's: count distinct
//!   4-cycles with at least one wedge in `Q`, scale by `k²`;
//! * [`FourCycleEstimator::WedgeMultiplicity`] — `k²/4 · Σ_{w∈Q} T_w`,
//!   which is unbiased but suffers the heavy-wedge variance the
//!   good-wedge machinery exists to avoid.

use std::io::{self, Read, Write};

use adjstream_graph::ids::FourCycleKey;
use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_u64, read_u8, read_usize, write_u64, write_u8, write_usize, Checkpoint,
};
use adjstream_stream::hashing::{FastMap, FastSet};
use adjstream_stream::item::StreamItem;
use adjstream_stream::meter::{hashmap_bytes, hashset_bytes, vec_bytes, SpaceUsage};
use adjstream_stream::obs::ObsCounters;
use adjstream_stream::runner::MultiPassAlgorithm;
use adjstream_stream::sampling::{BottomKEvent, BottomKSampler};

use crate::common::{pack_pair, unpack_pair, PairWatcher};

/// Which estimate to return. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FourCycleEstimator {
    /// Count distinct 4-cycles containing a sampled wedge (the paper's
    /// `k²(f_G + f_B)`).
    DistinctCycles,
    /// `k²/4 · Σ_{w∈Q} T_w` (wedge-incidence multiplicity).
    WedgeMultiplicity,
}

/// Configuration for [`TwoPassFourCycle`].
#[derive(Debug, Clone, Copy)]
pub struct TwoPassFourCycleConfig {
    /// Seed for sampling.
    pub seed: u64,
    /// Edge sample size `m′` (bottom-k, the paper's fixed-size sample; for
    /// the Theorem 4.6 bound take `Θ(m/T^{3/8})`).
    pub edge_sample_size: usize,
    /// Estimator variant.
    pub estimator: FourCycleEstimator,
    /// Optional cap on the wedge set `Q`. The paper stores *all* wedges
    /// over `S`, which on skewed samples can exceed `m′` (a caveat noted in
    /// DESIGN.md); with a cap, a uniform subset of the wedges is kept and
    /// the estimate is scaled by `W_S/|Q|`. `None` reproduces the paper
    /// exactly.
    pub max_wedges: Option<usize>,
}

impl TwoPassFourCycleConfig {
    /// The paper's configuration (no wedge cap).
    pub fn paper(seed: u64, edge_sample_size: usize) -> Self {
        TwoPassFourCycleConfig {
            seed,
            edge_sample_size,
            estimator: FourCycleEstimator::DistinctCycles,
            max_wedges: None,
        }
    }
}

/// Result of a [`TwoPassFourCycle`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourCycleEstimate {
    /// The 4-cycle count estimate.
    pub estimate: f64,
    /// Final edge sample size `|S|`.
    pub edges_sampled: usize,
    /// Wedges formed from `S` (the set `Q`).
    pub wedges: usize,
    /// Distinct cycles found (DistinctCycles) or total wedge incidences
    /// (WedgeMultiplicity).
    pub cycles_found: u64,
    /// Edge count `m`.
    pub m: u64,
}

/// A sampled wedge `a – center – b`.
#[derive(Debug, Clone, Copy)]
struct Wedge {
    a: VertexId,
    b: VertexId,
    center: VertexId,
    count: u64,
}

/// Two-pass 4-cycle counter. See module docs.
pub struct TwoPassFourCycle {
    cfg: TwoPassFourCycleConfig,
    pass: usize,
    items: u64,
    /// Wedges over `S` before any capping.
    wedges_total: usize,
    sampler: BottomKSampler,
    wedges: Vec<Wedge>,
    /// Packed leaf pair → wedge indices.
    leaf_index: FastMap<u64, Vec<u32>>,
    /// Bytes held by `leaf_index`'s inner vectors, maintained incrementally
    /// so `space_bytes` (sampled at every list boundary) stays O(1).
    leaf_vec_bytes: usize,
    watcher: PairWatcher,
    /// Distinct cycles found (DistinctCycles mode).
    found: FastSet<FourCycleKey>,
    buf: Vec<u64>,
    /// Sampler lifecycle counters (deterministic; see
    /// [`MultiPassAlgorithm::obs_counters`]).
    counters: ObsCounters,
}

impl TwoPassFourCycle {
    /// Build from configuration.
    pub fn new(cfg: TwoPassFourCycleConfig) -> Self {
        TwoPassFourCycle {
            cfg,
            pass: 0,
            items: 0,
            wedges_total: 0,
            sampler: BottomKSampler::new(cfg.seed, cfg.edge_sample_size),
            wedges: Vec::new(),
            leaf_index: FastMap::default(),
            leaf_vec_bytes: 0,
            watcher: PairWatcher::new(),
            found: FastSet::default(),
            buf: Vec::new(),
            counters: ObsCounters::default(),
        }
    }

    /// Pass-1 edge sampling with lifecycle accounting.
    fn offer_edge(&mut self, key: u64) {
        match self.sampler.offer(key) {
            BottomKEvent::Inserted => self.counters.admissions += 1,
            BottomKEvent::InsertedEvicting(_) => {
                self.counters.admissions += 1;
                self.counters.evictions += 1;
            }
            BottomKEvent::AlreadyPresent => {}
            BottomKEvent::Rejected => self.counters.rejections += 1,
        }
    }

    /// Form the wedge set `Q` from the frozen edge sample, optionally
    /// keeping only a uniform subset of `max_wedges` of them.
    fn build_wedges(&mut self) {
        // Sort the frozen sample so the wedge enumeration order — which the
        // capping reservoir below samples from — is a pure function of S,
        // not of the sampler's internal map order.
        let mut keys: Vec<u64> = self.sampler.keys().collect();
        keys.sort_unstable();
        let mut adj: FastMap<u32, Vec<VertexId>> = FastMap::default();
        for &key in &keys {
            let (u, v) = unpack_pair(key);
            adj.entry(u.0).or_default().push(v);
            adj.entry(v.0).or_default().push(u);
        }
        let mut centers: Vec<u32> = adj.keys().copied().collect();
        centers.sort_unstable();
        let mut all: Vec<Wedge> = Vec::new();
        for &c in &centers {
            let nbs = &adj[&c];
            for i in 0..nbs.len() {
                for j in (i + 1)..nbs.len() {
                    all.push(Wedge {
                        a: nbs[i],
                        b: nbs[j],
                        center: VertexId(c),
                        count: 0,
                    });
                }
            }
        }
        self.wedges_total = all.len();
        if let Some(cap) = self.cfg.max_wedges {
            if all.len() > cap {
                // Uniform cap-subset via seeded reservoir over the list.
                let mut res =
                    adjstream_stream::sampling::Reservoir::new(self.cfg.seed ^ 0x0C4_CA9, cap);
                for w in all {
                    res.offer(w);
                }
                all = res.into_items();
            }
        }
        self.counters.pairs_stored += all.len() as u64;
        self.counters.pairs_rejected += (self.wedges_total - all.len()) as u64;
        for w in all {
            let idx = self.wedges.len() as u32;
            let (a, b) = (w.a, w.b);
            self.wedges.push(w);
            self.leaf_vec_bytes +=
                crate::common::push_map_vec(&mut self.leaf_index, pack_pair(a, b), idx, 4);
            self.watcher.watch(a, b);
        }
    }
}

impl SpaceUsage for TwoPassFourCycle {
    fn space_bytes(&self) -> usize {
        self.sampler.space_bytes()
            + vec_bytes(&self.wedges)
            + hashmap_bytes(&self.leaf_index)
            + self.leaf_vec_bytes
            + self.watcher.space_bytes()
            + hashset_bytes(&self.found)
    }
}

impl MultiPassAlgorithm for TwoPassFourCycle {
    type Output = FourCycleEstimate;

    fn passes(&self) -> usize {
        2
    }

    /// Pass 2 may use a different order — Section 4's algorithm does not
    /// need replay.
    fn requires_same_order(&self) -> bool {
        false
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        if pass == 1 {
            self.build_wedges();
        }
    }

    fn begin_list(&mut self, _owner: VertexId) {
        if self.pass == 1 {
            self.watcher.begin_list();
        }
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.feed_slice(&[StreamItem::new(src, dst)]);
    }

    /// Native slice path: pass 1 bulk-offers the run to the sampler, pass 2
    /// swaps the completion scratch buffer once per run instead of per item.
    fn feed_slice(&mut self, items: &[StreamItem]) {
        match self.pass {
            0 => {
                self.items += items.len() as u64;
                for it in items {
                    self.offer_edge(pack_pair(it.src, it.dst));
                }
            }
            _ => {
                let mut buf = std::mem::take(&mut self.buf);
                for it in items {
                    buf.clear();
                    self.watcher.on_item(it.dst, |k| buf.push(k));
                    for &key in &buf {
                        let indices = self.leaf_index.get(&key).expect("watched pair indexed");
                        for &wi in indices {
                            let w = &mut self.wedges[wi as usize];
                            // The list owner `it.src` closes the cycle
                            // a–center–b–owner unless it *is* the center.
                            if w.center == it.src {
                                continue;
                            }
                            w.count += 1;
                            if self.cfg.estimator == FourCycleEstimator::DistinctCycles {
                                self.found.insert(FourCycleKey::from_diagonals(
                                    w.center, it.src, w.a, w.b,
                                ));
                            }
                        }
                    }
                }
                self.buf = buf;
            }
        }
    }

    fn obs_counters(&self) -> Option<ObsCounters> {
        let mut c = self.counters;
        c.merge(&self.watcher.obs_counters());
        // Saturation snapshot, taken at publication time: each bounded
        // structure currently frozen at capacity counts once.
        if self.sampler.capacity() > 0 && self.sampler.len() == self.sampler.capacity() {
            c.freezes += 1;
        }
        if let Some(cap) = self.cfg.max_wedges {
            if self.wedges_total > cap {
                c.freezes += 1;
            }
        }
        Some(c)
    }

    fn finish(self) -> FourCycleEstimate {
        let m = self.items / 2;
        let s = self.sampler.len();
        let k = if s == 0 {
            0.0
        } else {
            (m as f64 / s as f64).max(1.0)
        };
        // Wedge-cap correction: with only |Q| of the W_S wedges kept, each
        // cycle's detection probability shrinks by |Q|/W_S.
        let cap_scale = if self.wedges.is_empty() || self.wedges_total == 0 {
            1.0
        } else {
            self.wedges_total as f64 / self.wedges.len() as f64
        };
        let (cycles_found, estimate) = match self.cfg.estimator {
            FourCycleEstimator::DistinctCycles => {
                let c = self.found.len() as u64;
                (c, k * k * c as f64 * cap_scale)
            }
            FourCycleEstimator::WedgeMultiplicity => {
                let total: u64 = self.wedges.iter().map(|w| w.count).sum();
                (total, k * k * total as f64 * cap_scale / 4.0)
            }
        };
        FourCycleEstimate {
            estimate,
            edges_sampled: s,
            wedges: self.wedges.len(),
            cycles_found,
            m,
        }
    }
}

/// Pass-boundary serialization for checkpoint/resume. Only the pass-1
/// survivors need saving: the config, the item count, and the final edge
/// sample `S` (its bottom-k keys). Everything else — the wedge set, the
/// leaf index, the pair watcher, the found-cycle set — is rebuilt from `S`
/// by `build_wedges` when the resumed run calls `begin_pass(1)`.
impl Checkpoint for TwoPassFourCycle {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        write_u64(w, self.cfg.seed)?;
        write_usize(w, self.cfg.edge_sample_size)?;
        write_u8(
            w,
            match self.cfg.estimator {
                FourCycleEstimator::DistinctCycles => 0,
                FourCycleEstimator::WedgeMultiplicity => 1,
            },
        )?;
        match self.cfg.max_wedges {
            None => write_u8(w, 0)?,
            Some(cap) => {
                write_u8(w, 1)?;
                write_usize(w, cap)?;
            }
        }
        write_usize(w, self.pass)?;
        write_u64(w, self.items)?;
        write_usize(w, self.sampler.len())?;
        for key in self.sampler.keys() {
            write_u64(w, key)?;
        }
        self.counters.save(w)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let seed = read_u64(r)?;
        let edge_sample_size = read_usize(r)?;
        let estimator = match read_u8(r)? {
            0 => FourCycleEstimator::DistinctCycles,
            1 => FourCycleEstimator::WedgeMultiplicity,
            other => return Err(corrupt(format!("unknown estimator tag {other}"))),
        };
        let max_wedges = match read_u8(r)? {
            0 => None,
            1 => Some(read_usize(r)?),
            other => return Err(corrupt(format!("unknown wedge-cap tag {other}"))),
        };
        let mut algo = TwoPassFourCycle::new(TwoPassFourCycleConfig {
            seed,
            edge_sample_size,
            estimator,
            max_wedges,
        });
        algo.pass = read_usize(r)?;
        algo.items = read_u64(r)?;
        let n = read_usize(r)?;
        if n > edge_sample_size {
            return Err(corrupt("more sampled edges than the bottom-k capacity"));
        }
        for _ in 0..n {
            algo.sampler.offer(read_u64(r)?);
        }
        if algo.sampler.len() != n {
            return Err(corrupt("duplicate keys in the saved edge sample"));
        }
        algo.counters = ObsCounters::restore(r)?;
        Ok(algo)
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
        cfg: TwoPassFourCycleConfig,
        o1: StreamOrder,
        o2: StreamOrder,
    ) -> FourCycleEstimate {
        let (est, _) = Runner::run(
            g,
            TwoPassFourCycle::new(cfg),
            &PassOrders::PerPass(vec![o1, o2]),
        );
        est
    }

    fn full_cfg(
        g: &adjstream_graph::Graph,
        estimator: FourCycleEstimator,
    ) -> TwoPassFourCycleConfig {
        TwoPassFourCycleConfig {
            seed: 1,
            edge_sample_size: g.edge_count(),
            estimator,
            max_wedges: None,
        }
    }

    /// With S = E the distinct-cycle estimator finds every 4-cycle exactly
    /// once, under *different* pass orders (Section 4 needs no replay).
    #[test]
    fn exhaustive_sampling_is_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..6 {
            let g = gen::gnm(25, 110, &mut rng);
            let n = g.vertex_count();
            let truth = exact::count_four_cycles(&g);
            let est = run_once(
                &g,
                full_cfg(&g, FourCycleEstimator::DistinctCycles),
                StreamOrder::shuffled(n, trial),
                StreamOrder::shuffled(n, trial + 1000),
            );
            assert_eq!(est.cycles_found, truth, "trial {trial}");
            assert_eq!(est.estimate, truth as f64);
        }
    }

    /// With S = E the multiplicity estimator counts each cycle once per
    /// wedge (4×), so Σ T_w = 4T exactly.
    #[test]
    fn exhaustive_multiplicity_counts_four_per_cycle() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::gnm(22, 90, &mut rng);
        let n = g.vertex_count();
        let truth = exact::count_four_cycles(&g);
        let est = run_once(
            &g,
            full_cfg(&g, FourCycleEstimator::WedgeMultiplicity),
            StreamOrder::natural(n),
            StreamOrder::reversed(n),
        );
        assert_eq!(est.cycles_found, 4 * truth);
        assert_eq!(est.estimate, truth as f64);
    }

    #[test]
    fn exact_on_structured_graphs() {
        for (g, t) in [
            (gen::complete_bipartite(3, 3), 9u64),
            (gen::theta_k2k(7), 21),
            (gen::disjoint_four_cycles(6), 6),
            (gen::complete(4), 3),
            (gen::disjoint_triangles(4), 0),
        ] {
            let n = g.vertex_count();
            let est = run_once(
                &g,
                full_cfg(&g, FourCycleEstimator::DistinctCycles),
                StreamOrder::shuffled(n, 2),
                StreamOrder::shuffled(n, 3),
            );
            assert_eq!(est.estimate, t as f64, "graph {g:?}");
        }
    }

    /// The O(1)-approximation guarantee: on a planted workload at the
    /// Theorem 4.6 budget, the median estimate is within a constant factor.
    #[test]
    fn constant_factor_at_theorem_budget() {
        let t = 256u64;
        let g = gen::disjoint_four_cycles(t as usize);
        let n = g.vertex_count();
        let m = g.edge_count() as f64;
        let budget = (6.0 * m / (t as f64).powf(3.0 / 8.0)).ceil() as usize;
        let med = crate::amplify::median_of_runs(11, 0, 1, |seed| {
            run_once(
                &g,
                TwoPassFourCycleConfig {
                    seed,
                    edge_sample_size: budget,
                    estimator: FourCycleEstimator::DistinctCycles,
                    max_wedges: None,
                },
                StreamOrder::shuffled(n, seed),
                StreamOrder::shuffled(n, seed + 999),
            )
            .estimate
        });
        let ratio = med.median / t as f64;
        assert!(
            (0.1..=10.0).contains(&ratio),
            "median {} vs T {t} (ratio {ratio})",
            med.median
        );
    }

    #[test]
    fn four_cycle_free_graphs_estimate_zero() {
        let g = gen::projective_plane_incidence(3);
        let n = g.vertex_count();
        let est = run_once(
            &g,
            full_cfg(&g, FourCycleEstimator::DistinctCycles),
            StreamOrder::shuffled(n, 1),
            StreamOrder::shuffled(n, 2),
        );
        assert_eq!(est.estimate, 0.0);
        assert!(est.wedges > 0, "plane has wedges but no 4-cycles");
    }
}

#[cfg(test)]
mod wedge_cap_tests {
    use super::*;
    use adjstream_graph::{exact, gen};
    use adjstream_stream::{PassOrders, Runner, StreamOrder};

    #[test]
    fn cap_reduces_space_and_stays_constant_factor() {
        // Theta workload: wedges over a full sample concentrate at the hubs.
        let g = gen::theta_k2k(60); // T = 1770
        let truth = exact::count_four_cycles(&g) as f64;
        let n = g.vertex_count();
        let run = |max_wedges: Option<usize>| {
            let mut estimates = Vec::new();
            let mut peak = 0usize;
            for seed in 0..15u64 {
                let cfg = TwoPassFourCycleConfig {
                    seed,
                    edge_sample_size: g.edge_count(),
                    estimator: FourCycleEstimator::WedgeMultiplicity,
                    max_wedges,
                };
                let (est, r) = Runner::run(
                    &g,
                    TwoPassFourCycle::new(cfg),
                    &PassOrders::PerPass(vec![
                        StreamOrder::shuffled(n, seed),
                        StreamOrder::shuffled(n, seed + 77),
                    ]),
                );
                estimates.push(est.estimate);
                peak = peak.max(r.peak_state_bytes);
            }
            (adjstream_stream::estimator::mean(&estimates), peak)
        };
        let (uncapped_mean, uncapped_peak) = run(None);
        assert_eq!(uncapped_mean, truth); // full sample, multiplicity: exact
        let (capped_mean, capped_peak) = run(Some(100));
        assert!(
            capped_peak < uncapped_peak,
            "{capped_peak} vs {uncapped_peak}"
        );
        // Cap-corrected estimator stays unbiased in expectation (wide
        // tolerance: only 15 seeds).
        assert!(
            (capped_mean - truth).abs() < 0.5 * truth,
            "capped mean {capped_mean} vs {truth}"
        );
    }

    /// The incremental leaf-index byte counter must equal a full rescan
    /// after the wedge set is built.
    #[test]
    fn incremental_accounting_matches_rescan() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::gnm(30, 160, &mut rng);
        let n = g.vertex_count();
        let mut algo = TwoPassFourCycle::new(TwoPassFourCycleConfig::paper(3, 80));
        let orders = [StreamOrder::shuffled(n, 1), StreamOrder::shuffled(n, 2)];
        for (pass, order) in orders.iter().enumerate() {
            let items = adjstream_stream::AdjListStream::new(&g, order.clone()).collect_items();
            algo.begin_pass(pass);
            for it in &items {
                algo.item(it.src, it.dst);
            }
            let rescan: usize = algo
                .leaf_index
                .values()
                .map(|v| v.capacity() * 4 + 24)
                .sum();
            assert_eq!(algo.leaf_vec_bytes, rescan, "pass {pass}");
        }
        assert!(algo.leaf_vec_bytes > 0, "wedges were indexed");
    }

    #[test]
    fn paper_constructor_has_no_cap() {
        let cfg = TwoPassFourCycleConfig::paper(1, 100);
        assert!(cfg.max_wedges.is_none());
        assert_eq!(cfg.estimator, FourCycleEstimator::DistinctCycles);
    }

    #[test]
    fn checkpoint_roundtrip_at_the_pass_boundary_is_bit_for_bit() {
        use adjstream_stream::meter::PeakTracker;
        use adjstream_stream::runner::drive_pass_slice;
        use adjstream_stream::AdjListStream;
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(21);
        let g = gen::gnm(50, 350, &mut rng).disjoint_union(&gen::disjoint_cliques(3, 5));
        let n = g.vertex_count();
        let orders = [StreamOrder::shuffled(n, 4), StreamOrder::shuffled(n, 9)];
        let cfg = TwoPassFourCycleConfig::paper(13, 120);

        let mut peak = PeakTracker::new();
        let mut processed = 0usize;
        let mut original = TwoPassFourCycle::new(cfg);
        drive_pass_slice(
            &mut original,
            0,
            &AdjListStream::new(&g, orders[0].clone()).collect_items(),
            &mut peak,
            &mut processed,
        )
        .unwrap();

        let mut buf = Vec::new();
        original.save(&mut buf).unwrap();
        let mut restored = TwoPassFourCycle::restore(&mut &buf[..]).unwrap();
        assert_eq!(restored.items, original.items);
        let mut want: Vec<u64> = original.sampler.keys().collect();
        let mut got: Vec<u64> = restored.sampler.keys().collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "edge sample must survive the roundtrip");

        for algo in [&mut original, &mut restored] {
            drive_pass_slice(
                algo,
                1,
                &AdjListStream::new(&g, orders[1].clone()).collect_items(),
                &mut peak,
                &mut processed,
            )
            .unwrap();
        }
        let a = original.finish();
        let b = restored.finish();
        assert_eq!(a, b, "resumed run must reproduce the estimate exactly");
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }

    #[test]
    fn checkpoint_restore_rejects_bad_tags() {
        use adjstream_stream::checkpoint::{write_u64, write_u8, write_usize};
        let mut buf = Vec::new();
        write_u64(&mut buf, 1).unwrap();
        write_usize(&mut buf, 10).unwrap();
        write_u8(&mut buf, 9).unwrap();
        let err = TwoPassFourCycle::restore(&mut &buf[..])
            .err()
            .expect("bad tag must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("estimator tag"));
    }
}
