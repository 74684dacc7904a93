//! A shard-mergeable three-pass variant of the Section 3 triangle counter.
//!
//! [`super::TwoPassTriangle`] is the paper-faithful two-pass algorithm, but
//! its state does not compose across graph shards: the pair reservoir is
//! order-dependent, discovery is split between the passes by an
//! arrival-time test, and `H` activation is keyed on locally counted list
//! positions. [`ShardedTriangle`] trades the second pass for per-pass
//! write-state that is a commutative monoid, which is exactly what
//! [`adjstream_stream::shard::run_sharded_hooked`] needs to produce estimates
//! **bit-identical** to a sequential run at any shard count:
//!
//! * **Pass 0 (sample).** Offer every edge key to the sampler and count
//!   items. Bottom-k membership is a pure function of the offered key set,
//!   so per-shard samples merge by re-offering; threshold membership is a
//!   pure per-key function, so samples merge by union.
//! * **Pass 1 (discover).** With `S` frozen, a completion of a watched
//!   pair `{u, v} ∈ S` in the list of `w` is the discovery of the pair
//!   `(e = {u,v}, τ = uvw)` — each `(e, τ)` completes in exactly one list,
//!   so exactly one shard discovers it. Discovered pairs go into a
//!   *bounded bottom-k map* `Q` keyed by a seeded rank (k-smallest of a
//!   union is order-independent, unlike a reservoir). The pass also
//!   records the global list position of every `S`-endpoint, which pass 2
//!   needs as the `H` activation point; each vertex's list lives on
//!   exactly one shard, so these merge by disjoint union.
//! * **Pass 2 (weigh).** `Q` frozen, every slot edge of every retained
//!   pair is watched; a completion of slot edge `f` in a list at global
//!   position `p` bumps `H_{f,τ}` iff `p` is *after* the position of
//!   `apex(τ, f)`'s list — the same later-apex count as the two-pass
//!   algorithm, but phrased against global positions so per-shard `H`
//!   vectors merge by index-wise sum.
//!
//! The edge sampler, the lightest-edge rule (`ρ` the argmin of
//! `(H, edge key)`), the estimate `k · (T′/|Q|) · |{(e,τ) ∈ Q : ρ(τ) = e}|`
//! and the configuration codec are the shared [`super::kernel`]; what is
//! this variant's own is the bottom-k `Q` with global-position `H` and
//! [`ShardAlgorithm::merge_pass`]. With exhaustive sampling the output is
//! exact. The cost of mergeability is one extra pass (discovery can no
//! longer piggyback on the sampling pass) and a bottom-k subsample of the
//! discovered pairs in place of a reservoir.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};

use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_u32, read_u64, read_usize, write_u32, write_u64, write_usize, Checkpoint,
};
use adjstream_stream::hashing::{FastMap, FastSet, HashFn};
use adjstream_stream::item::StreamItem;
use adjstream_stream::meter::{hashmap_bytes, hashset_bytes, vec_bytes, SpaceUsage};
use adjstream_stream::obs::ObsCounters;
use adjstream_stream::runner::MultiPassAlgorithm;
use adjstream_stream::shard::ShardAlgorithm;

use super::kernel::{
    published_counters, restore_config, save_config, EdgeSampler, Offer, TriangleEstimate,
    TriangleSlots,
};
use crate::common::{pack_pair, read_seq, seq_reserve, unpack_pair, EdgeSampling, PairWatcher};

/// Stream id for the rank hash ordering the pair subsample `Q`.
const PAIR_RANK_STREAM: u64 = 0x5AA2_D011;

/// Sentinel "list never arrived" position; compares after every real one.
const NO_LIST: u64 = u64::MAX;

/// Configuration for [`ShardedTriangle`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedTriangleConfig {
    /// Seed for all sampling decisions.
    pub seed: u64,
    /// How the edge sample `S` is drawn.
    pub edge_sampling: EdgeSampling,
    /// Capacity of the pair subsample `Q` (bottom-k by seeded pair rank).
    pub pair_capacity: usize,
}

/// One retained `(e, τ)` pair, frozen for pass 2; `opp_pos[s]` is the
/// global list position of the vertex opposite slot `s`'s edge — the
/// slot's `H` activation point.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QSlot {
    tri: TriangleSlots,
    opp_pos: [u64; 3],
}

/// The shard-mergeable three-pass triangle counter. See module docs.
pub struct ShardedTriangle {
    cfg: ShardedTriangleConfig,
    pass: usize,
    /// Global position of the current list, injected by `begin_list_at`.
    cur_pos: u64,
    next_pos: u64,
    // --- pass 0 write state ---
    items_seen: u64,
    /// The sampled edge set, totally ordered for deterministic iteration.
    s_set: BTreeSet<u64>,
    // --- pass 1 base (derived from s_set at begin_pass(1)) ---
    s_endpoints: FastSet<u32>,
    // --- pass 1 write state ---
    discovered: u64,
    /// `(rank, e_key, apex)` → global position of the apex's list; bounded
    /// at `pair_capacity` keeping the smallest keys.
    q: BTreeMap<(u64, u64, u32), u64>,
    /// `S`-endpoint vertex → global position of its list.
    endpoint_pos: FastMap<u32, u64>,
    // --- pass 2 base (derived from q + endpoint_pos at begin_pass(2)) ---
    q_frozen: Vec<QSlot>,
    /// Slot edge key → `(q_frozen index, slot)` monitors.
    monitors: FastMap<u64, Vec<(u32, u8)>>,
    monitors_vec_bytes: usize,
    // --- pass 2 write state ---
    h: Vec<[u64; 3]>,
    // --- rebuilt machinery (never merged) ---
    sampler: EdgeSampler,
    watcher: PairWatcher,
    rank_fn: HashFn,
    completed_buf: Vec<u64>,
    counters: ObsCounters,
}

impl ShardedTriangle {
    /// Build the algorithm from its configuration.
    pub fn new(cfg: ShardedTriangleConfig) -> Self {
        ShardedTriangle {
            cfg,
            pass: 0,
            cur_pos: 0,
            next_pos: 0,
            items_seen: 0,
            s_set: BTreeSet::new(),
            s_endpoints: FastSet::default(),
            discovered: 0,
            q: BTreeMap::new(),
            endpoint_pos: FastMap::default(),
            q_frozen: Vec::new(),
            monitors: FastMap::default(),
            monitors_vec_bytes: 0,
            h: Vec::new(),
            sampler: EdgeSampler::new(cfg.seed, cfg.edge_sampling),
            watcher: PairWatcher::new(),
            rank_fn: HashFn::from_seed(cfg.seed, PAIR_RANK_STREAM),
            completed_buf: Vec::new(),
            counters: ObsCounters::default(),
        }
    }

    /// The seeded, order-independent rank of a discovered pair.
    fn pair_rank(&self, e_key: u64, apex: VertexId) -> u64 {
        self.rank_fn
            .hash(e_key ^ self.rank_fn.hash(u64::from(apex.0)))
    }

    /// Offer one pass-0 edge key to the sampler, mirroring membership into
    /// `s_set`. `count` gates the lifecycle counters: stream-time offers
    /// count, merge-time re-offers do not (the merged totals come from
    /// summing the shards' own counters instead).
    fn offer_edge(&mut self, key: u64, count: bool) {
        let s_set = &self.s_set;
        let offer = self.sampler.offer(key, |k| s_set.contains(k));
        if count {
            offer.count(&mut self.counters);
        }
        if let Offer::New | Offer::NewEvicting(_) = offer {
            self.s_set.insert(key);
        }
        if let Offer::NewEvicting(old) = offer {
            self.s_set.remove(&old);
        }
    }

    /// Bounded insert keeping the `pair_capacity` smallest keys — the
    /// k-smallest of a union, whatever the insertion order.
    fn q_insert(&mut self, key: (u64, u64, u32), apex_pos: u64, count: bool) {
        if self.cfg.pair_capacity == 0 {
            if count {
                self.counters.pairs_rejected += 1;
            }
            return;
        }
        if self.q.len() < self.cfg.pair_capacity {
            self.q.insert(key, apex_pos);
            if count {
                self.counters.pairs_stored += 1;
            }
            return;
        }
        let max = *self.q.last_key_value().expect("non-empty at capacity").0;
        if key < max {
            self.q.remove(&max);
            self.q.insert(key, apex_pos);
            if count {
                self.counters.pairs_stored += 1;
                self.counters.pairs_replaced += 1;
            }
        } else if count {
            self.counters.pairs_rejected += 1;
        }
    }

    /// Handle one watched-pair completion in the list of `owner` at the
    /// current global position.
    fn on_completion(&mut self, key: u64, owner: VertexId) {
        match self.pass {
            1 => {
                // Discovery: `key ∈ S`, `owner` the apex.
                self.discovered += 1;
                let rank = self.pair_rank(key, owner);
                self.q_insert((rank, key, owner.0), self.cur_pos, true);
            }
            2 => {
                // Later-apex weighing for every slot monitoring this edge.
                if let Some(entries) = self.monitors.get(&key) {
                    for &(idx, slot) in entries {
                        if self.cur_pos > self.q_frozen[idx as usize].opp_pos[slot as usize] {
                            self.h[idx as usize][slot as usize] += 1;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Rebuild the derived (read-only) structures of `pass` from the frozen
    /// base state. Called by `begin_pass` and by checkpoint restore; both
    /// must produce identical machinery for the run to be deterministic,
    /// which they do because everything derives from totally ordered
    /// containers (`s_set`, `q`).
    fn rebuild_derived(&mut self, pass: usize) {
        self.watcher = PairWatcher::new();
        self.s_endpoints = FastSet::default();
        self.q_frozen = Vec::new();
        self.monitors = FastMap::default();
        self.monitors_vec_bytes = 0;
        match pass {
            1 => {
                for &key in &self.s_set {
                    let (a, b) = unpack_pair(key);
                    self.s_endpoints.insert(a.0);
                    self.s_endpoints.insert(b.0);
                    self.watcher.watch(a, b);
                }
            }
            2 => {
                self.q_frozen = self
                    .q
                    .iter()
                    .map(|(&(_rank, e_key, apex), &apex_pos)| {
                        let tri = TriangleSlots::new(e_key, VertexId(apex));
                        let [u, v, _] = tri.0;
                        QSlot {
                            tri,
                            opp_pos: [
                                apex_pos,
                                self.endpoint_pos.get(&v.0).copied().unwrap_or(NO_LIST),
                                self.endpoint_pos.get(&u.0).copied().unwrap_or(NO_LIST),
                            ],
                        }
                    })
                    .collect();
                for (idx, slot_rec) in self.q_frozen.iter().enumerate() {
                    for slot in 0..3u8 {
                        let edge = slot_rec.tri.slot_edge(slot as usize);
                        let (a, b) = unpack_pair(edge);
                        self.watcher.watch(a, b);
                        self.monitors_vec_bytes += crate::common::push_map_vec(
                            &mut self.monitors,
                            edge,
                            (idx as u32, slot),
                            8,
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

impl SpaceUsage for ShardedTriangle {
    fn space_bytes(&self) -> usize {
        // BTree nodes are approximated at entry size + per-entry overhead;
        // the bound tracked here is the retained-key count, which is what
        // the space theorems constrain.
        self.s_set.len() * 24
            + self.q.len() * 48
            + hashset_bytes(&self.s_endpoints)
            + hashmap_bytes(&self.endpoint_pos)
            + self.q_frozen.capacity() * std::mem::size_of::<QSlot>()
            + vec_bytes(&self.h)
            + hashmap_bytes(&self.monitors)
            + self.monitors_vec_bytes
            + self.watcher.space_bytes()
            + self.sampler.space_bytes()
    }
}

impl MultiPassAlgorithm for ShardedTriangle {
    type Output = TriangleEstimate;

    fn passes(&self) -> usize {
        3
    }

    fn requires_same_order(&self) -> bool {
        true
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        self.cur_pos = 0;
        self.next_pos = 0;
        // This pass's write state starts empty — the shard-merge invariant.
        match pass {
            0 => {
                self.items_seen = 0;
                self.s_set.clear();
                self.sampler = EdgeSampler::new(self.cfg.seed, self.cfg.edge_sampling);
            }
            1 => {
                // `S` is final: the sampler keeps only its saturation flag.
                self.sampler.close();
                self.discovered = 0;
                self.q.clear();
                self.endpoint_pos = FastMap::default();
            }
            _ => {
                self.h.clear();
            }
        }
        self.rebuild_derived(pass);
        if pass == 2 {
            self.h = vec![[0u64; 3]; self.q_frozen.len()];
        }
    }

    fn begin_list(&mut self, owner: VertexId) {
        self.begin_list_at(owner, self.next_pos);
    }

    /// Records `global_pos` for this list; a sharded pass injects the
    /// planner's position, so `H` activation compares global positions.
    fn begin_list_at(&mut self, owner: VertexId, global_pos: u64) {
        self.cur_pos = global_pos;
        self.next_pos = global_pos + 1;
        self.watcher.begin_list();
        if self.pass == 1 && self.s_endpoints.contains(&owner.0) {
            self.endpoint_pos.insert(owner.0, self.cur_pos);
        }
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.feed_slice(&[StreamItem::new(src, dst)]);
    }

    /// Native slice path: one pass-tag branch per run instead of per item,
    /// and the completion buffer swapped in once.
    fn feed_slice(&mut self, items: &[StreamItem]) {
        if self.pass == 0 {
            self.items_seen += items.len() as u64;
            for it in items {
                self.offer_edge(pack_pair(it.src, it.dst), true);
            }
            return; // nothing is watched in pass 0
        }
        let mut buf = std::mem::take(&mut self.completed_buf);
        for it in items {
            buf.clear();
            self.watcher.on_item(it.dst, |k, _| buf.push(k));
            for &key in &buf {
                self.on_completion(key, it.src);
            }
        }
        self.completed_buf = buf;
    }

    fn obs_counters(&self) -> Option<ObsCounters> {
        let cap = self.cfg.pair_capacity;
        let q_full = cap > 0 && cap != usize::MAX && self.q.len() == cap;
        Some(published_counters(
            self.counters,
            &self.watcher,
            &self.sampler,
            q_full,
        ))
    }

    fn finish(self) -> TriangleEstimate {
        let counted = self
            .q_frozen
            .iter()
            .enumerate()
            .filter(|(idx, rec)| rec.tri.lightest_slot(self.h[*idx]) == 0)
            .count() as u64;
        TriangleEstimate::assemble(
            self.cfg.edge_sampling,
            self.items_seen / 2,
            self.s_set.len(),
            self.discovered,
            self.q.len(),
            counted,
        )
    }
}

impl ShardAlgorithm for ShardedTriangle {
    fn merge_pass(&mut self, other: Self, pass: usize) -> Result<(), String> {
        if self.cfg.seed != other.cfg.seed
            || self.cfg.pair_capacity != other.cfg.pair_capacity
            || self.cfg.edge_sampling != other.cfg.edge_sampling
        {
            return Err("shard partials were configured differently".into());
        }
        match pass {
            0 => {
                self.items_seen += other.items_seen;
                for key in other.s_set {
                    self.offer_edge(key, false);
                }
                self.counters.admissions += other.counters.admissions;
                self.counters.evictions += other.counters.evictions;
                self.counters.rejections += other.counters.rejections;
            }
            1 => {
                self.discovered += other.discovered;
                for (key, apex_pos) in other.q {
                    self.q_insert(key, apex_pos, false);
                }
                for (v, pos) in other.endpoint_pos {
                    if self
                        .endpoint_pos
                        .insert(v, pos)
                        .is_some_and(|old| old != pos)
                    {
                        return Err(format!(
                            "S-endpoint {v} owns a list on two shards — plans disagree"
                        ));
                    }
                }
                self.counters.pairs_stored += other.counters.pairs_stored;
                self.counters.pairs_replaced += other.counters.pairs_replaced;
                self.counters.pairs_rejected += other.counters.pairs_rejected;
            }
            _ => {
                if self.h.len() != other.h.len() || self.q_frozen != other.q_frozen {
                    return Err("pass-2 partials froze different pair subsamples".into());
                }
                for (mine, theirs) in self.h.iter_mut().zip(&other.h) {
                    for s in 0..3 {
                        mine[s] += theirs[s];
                    }
                }
            }
        }
        Ok(())
    }
}

/// Pass-boundary serialization. Only frozen base state and the current
/// pass's write state cross the wire; all derived machinery (watcher,
/// endpoint index, frozen `Q` slots, monitors) is rebuilt — identically,
/// because it derives from totally ordered containers. This is both the
/// checkpoint/resume format and the shard-merge wire format.
impl Checkpoint for ShardedTriangle {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        save_config(
            w,
            self.cfg.seed,
            self.cfg.edge_sampling,
            self.cfg.pair_capacity,
        )?;
        write_usize(w, self.pass)?;
        write_u64(w, self.items_seen)?;
        write_usize(w, self.s_set.len())?;
        for &key in &self.s_set {
            write_u64(w, key)?;
        }
        write_u64(w, self.discovered)?;
        let mut endpoints: Vec<(u32, u64)> =
            self.endpoint_pos.iter().map(|(&v, &p)| (v, p)).collect();
        endpoints.sort_unstable();
        write_usize(w, endpoints.len())?;
        for (v, pos) in endpoints {
            write_u32(w, v)?;
            write_u64(w, pos)?;
        }
        write_usize(w, self.q.len())?;
        for (&(rank, e_key, apex), &apex_pos) in &self.q {
            write_u64(w, rank)?;
            write_u64(w, e_key)?;
            write_u32(w, apex)?;
            write_u64(w, apex_pos)?;
        }
        write_usize(w, self.h.len())?;
        for triple in &self.h {
            for &x in triple {
                write_u64(w, x)?;
            }
        }
        self.counters.save(w)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let (seed, edge_sampling, pair_capacity) = restore_config(r)?;
        let cfg = ShardedTriangleConfig {
            seed,
            edge_sampling,
            pair_capacity,
        };
        let pass = read_usize(r)?;
        let items_seen = read_u64(r)?;
        let n = read_usize(r)?;
        let mut s_set = BTreeSet::new();
        for _ in 0..n {
            s_set.insert(read_u64(r)?);
        }
        let discovered = read_u64(r)?;
        let n = read_usize(r)?;
        let mut endpoint_pos = FastMap::default();
        endpoint_pos.reserve(seq_reserve::<(u32, u64)>(n));
        for _ in 0..n {
            let v = read_u32(r)?;
            let pos = read_u64(r)?;
            endpoint_pos.insert(v, pos);
        }
        let n = read_usize(r)?;
        let mut q = BTreeMap::new();
        for _ in 0..n {
            let rank = read_u64(r)?;
            let e_key = read_u64(r)?;
            let apex = read_u32(r)?;
            let apex_pos = read_u64(r)?;
            q.insert((rank, e_key, apex), apex_pos);
        }
        if q.len() != n {
            return Err(corrupt("duplicate pair keys in subsample"));
        }
        if pair_capacity != usize::MAX && q.len() > pair_capacity {
            return Err(corrupt("more retained pairs than the subsample capacity"));
        }
        let mut h = read_seq(r, |r| Ok([read_u64(r)?, read_u64(r)?, read_u64(r)?]))?;
        if !h.is_empty() && h.len() != q.len() {
            return Err(corrupt("H vector does not cover the pair subsample"));
        }
        let counters = ObsCounters::restore(r)?;
        let sampler = EdgeSampler::rebuild(seed, edge_sampling, pass, s_set.iter().copied())?;
        let mut algo = ShardedTriangle {
            cfg,
            pass,
            cur_pos: 0,
            next_pos: 0,
            items_seen,
            s_set,
            s_endpoints: FastSet::default(),
            discovered,
            q,
            endpoint_pos,
            q_frozen: Vec::new(),
            monitors: FastMap::default(),
            monitors_vec_bytes: 0,
            h: Vec::new(),
            sampler,
            watcher: PairWatcher::new(),
            rank_fn: HashFn::from_seed(cfg.seed, PAIR_RANK_STREAM),
            completed_buf: Vec::new(),
            counters,
        };
        // Re-derive the saved pass's machinery so a restored partial is
        // immediately mergeable and finishable (process-per-shard parents
        // restore, merge, and finish without re-driving a pass).
        algo.rebuild_derived(pass);
        if pass == 2 {
            if h.is_empty() {
                h = vec![[0u64; 3]; algo.q_frozen.len()];
            }
            algo.h = h;
        }
        Ok(algo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::{exact, gen};
    use adjstream_stream::obs::Metrics;
    use adjstream_stream::runner::run_slice_passes;
    use adjstream_stream::shard::{run_sharded_hooked, ShardPlan};
    use adjstream_stream::{AdjListStream, StreamOrder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn items_of(g: &adjstream_graph::Graph, order: StreamOrder) -> Vec<StreamItem> {
        AdjListStream::new(g, order).collect_items()
    }

    fn full_cfg(seed: u64) -> ShardedTriangleConfig {
        ShardedTriangleConfig {
            seed,
            edge_sampling: EdgeSampling::Threshold { p: 1.0 },
            pair_capacity: usize::MAX,
        }
    }

    fn run_seq(cfg: ShardedTriangleConfig, items: &[StreamItem]) -> TriangleEstimate {
        let (est, _) = run_slice_passes(ShardedTriangle::new(cfg), |_| items).expect("run");
        est
    }

    /// With S = all edges and an unbounded Q the estimate is exact, across
    /// orders and graph shapes — the same exactness two_pass guarantees.
    #[test]
    fn exhaustive_sampling_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..6 {
            let g = gen::gnm(40, 220, &mut rng);
            let truth = exact::count_triangles(&g) as f64;
            for order in [
                StreamOrder::natural(40),
                StreamOrder::reversed(40),
                StreamOrder::shuffled(40, trial),
            ] {
                let est = run_seq(full_cfg(trial), &items_of(&g, order));
                assert_eq!(est.estimate, truth, "trial {trial}");
                assert_eq!(est.pairs_discovered, 3 * truth as u64);
                assert_eq!(est.counted, truth as u64);
            }
        }
        for (g, t) in [
            (gen::complete(8), 56.0),
            (gen::book(12), 12.0),
            (gen::disjoint_triangles(9), 9.0),
            (gen::complete_bipartite(4, 5), 0.0),
        ] {
            let n = g.vertex_count();
            let est = run_seq(full_cfg(3), &items_of(&g, StreamOrder::shuffled(n, 5)));
            assert_eq!(est.estimate, t, "graph {g:?}");
        }
    }

    #[test]
    fn exhaustive_bottomk_is_exact() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::gnm(30, 140, &mut rng);
        let truth = exact::count_triangles(&g) as f64;
        let cfg = ShardedTriangleConfig {
            seed: 7,
            edge_sampling: EdgeSampling::BottomK { k: 140 },
            pair_capacity: usize::MAX,
        };
        let est = run_seq(cfg, &items_of(&g, StreamOrder::shuffled(30, 3)));
        assert_eq!(est.estimate, truth);
        assert_eq!(est.edges_sampled, 140);
    }

    /// The headline invariant: sharded execution is bit-identical to the
    /// sequential driver at every shard count, under subsampling too.
    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::gnm(120, 900, &mut rng);
        let items = items_of(&g, StreamOrder::shuffled(120, 9));
        for cfg in [
            full_cfg(11),
            ShardedTriangleConfig {
                seed: 11,
                edge_sampling: EdgeSampling::BottomK { k: 96 },
                pair_capacity: 64,
            },
            ShardedTriangleConfig {
                seed: 12,
                edge_sampling: EdgeSampling::Threshold { p: 0.35 },
                pair_capacity: 40,
            },
        ] {
            let want = run_seq(cfg, &items);
            for shards in [1usize, 2, 4, 8] {
                let plan = ShardPlan::build(&items, shards);
                let (got, _) = run_sharded_hooked(
                    ShardedTriangle::new(cfg),
                    &plan,
                    &items,
                    &Metrics::disabled(),
                    |_| Ok(()),
                )
                .expect("sharded run");
                assert_eq!(got, want, "shards={shards} cfg={cfg:?}");
                assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
            }
        }
    }

    /// The estimator stays unbiased under subsampling.
    #[test]
    fn subsampled_estimator_is_unbiased() {
        let g = gen::disjoint_cliques(6, 10); // T = 200
        let n = g.vertex_count();
        let reps = 300;
        let mut sum = 0.0;
        for seed in 0..reps {
            let cfg = ShardedTriangleConfig {
                seed,
                edge_sampling: EdgeSampling::Threshold { p: 0.4 },
                pair_capacity: 120,
            };
            sum += run_seq(cfg, &items_of(&g, StreamOrder::shuffled(n, seed))).estimate;
        }
        let mean = sum / reps as f64;
        assert!((mean - 200.0).abs() < 20.0, "mean {mean} vs truth 200");
    }

    /// Checkpoint at each pass boundary, restore, finish the run — the
    /// resumed run must reproduce the estimate exactly.
    #[test]
    fn checkpoint_roundtrip_reproduces_the_run() {
        use adjstream_stream::shard::{decode_shard_payload, run_shard_pass_blob};

        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::gnm(60, 500, &mut rng);
        let items = items_of(&g, StreamOrder::shuffled(60, 2));
        let plan = ShardPlan::build(&items, 1);
        let runs = plan.runs_for(0);
        let cfg = ShardedTriangleConfig {
            seed: 9,
            edge_sampling: EdgeSampling::BottomK { k: 64 },
            pair_capacity: 96,
        };
        let want = run_seq(cfg, &items);
        let mut algo = ShardedTriangle::new(cfg);
        for pass in 0..3 {
            let mut blob = Vec::new();
            algo.save(&mut blob).expect("save");
            let payload =
                run_shard_pass_blob::<ShardedTriangle>(&blob, pass, &items, runs).expect("pass");
            algo = decode_shard_payload::<ShardedTriangle>(&payload)
                .expect("restore")
                .0;
        }
        let got = algo.finish();
        assert_eq!(got, want);
        assert!(got.counted > 0, "test graph should count triangles");
    }

    #[test]
    fn restore_rejects_garbage() {
        let err = ShardedTriangle::restore(&mut &[0xFFu8; 4][..])
            .err()
            .expect("truncated input must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn merge_rejects_mismatched_configs() {
        let a = ShardedTriangle::new(full_cfg(1));
        let b = ShardedTriangle::new(full_cfg(2));
        let mut a = a;
        assert!(a.merge_pass(b, 0).is_err());
    }
}
