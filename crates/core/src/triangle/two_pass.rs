//! The Section 3 two-pass `(1±ε)` triangle counter (Theorem 3.7).
//!
//! Space `Õ(m/T^{2/3})`: pass 1 samples a uniform edge set `S`; triangles
//! touching `S` are *discovered* across both passes (each `(e, τ)` pair
//! exactly once — in pass 1 if the apex list arrives after `e` enters `S`,
//! otherwise in pass 2); a reservoir keeps an `m′`-size subsample `Q` of
//! the discovered pairs; in pass 2 the algorithm computes, for every pair
//! `(e, τ) ∈ Q` and every edge `f ∈ τ`, the *later-apex count*
//!
//! ```text
//! H_{f,τ} = |{σ ∈ L(f) : apex(σ, f) arrives after apex(τ, f)}|
//! ```
//!
//! and finally counts `τ` only if its sampled edge minimizes `H` — the
//! lightest-edge rule that tames heavy-edge variance (Lemma 3.2).
//!
//! The edge sampler, the lightest-edge rule, the estimate formula and the
//! configuration codec are the shared [`super::kernel`]; what is this
//! variant's own is the reservoir slab of `Q` records whose `H` counters
//! grow incrementally during pass 2.

use std::io::{self, Read, Write};

use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_u32, read_u64, read_u8, read_usize, write_u32, write_u64, write_u8, write_usize,
    Checkpoint,
};
use adjstream_stream::hashing::FastMap;
use adjstream_stream::item::StreamItem;
use adjstream_stream::meter::{hashmap_bytes, vec_bytes, SpaceUsage};
use adjstream_stream::obs::ObsCounters;
use adjstream_stream::runner::MultiPassAlgorithm;
use adjstream_stream::sampling::{Reservoir, ReservoirEvent};

use super::kernel::{
    published_counters, restore_config, save_config, EdgeSampler, Offer, TriangleEstimate,
    TriangleSlots,
};
use crate::common::{pack_pair, read_seq, unpack_pair, EdgeSampling, PairWatcher};

/// Configuration for [`TwoPassTriangle`].
#[derive(Debug, Clone, Copy)]
pub struct TwoPassTriangleConfig {
    /// Seed for all sampling decisions (hash functions and reservoir).
    pub seed: u64,
    /// How the edge sample `S` is drawn. For the paper's bound take
    /// `BottomK { k: Θ(m/(ε²T^{2/3})) }` or `Threshold { p: k/m }`.
    pub edge_sampling: EdgeSampling,
    /// Capacity of the pair reservoir `Q` (the paper's second `m′`).
    pub pair_capacity: usize,
}

/// One `(e, τ)` pair resident in `Q`, with its per-edge `H` state.
#[derive(Debug, Clone)]
struct PairRecord {
    /// Generation tag guarding against slab-slot reuse.
    gen: u32,
    /// The pair's triangle; slot 0 is the sampled edge `e`.
    tri: TriangleSlots,
    /// `H` counters, one per triangle slot.
    h: [u64; 3],
    /// Whether each slot has passed its activation point in pass 2 (the
    /// end of the opposite vertex's list).
    active: [bool; 3],
}

/// Key → `(slab, gen, slot)` references into the record slab.
type SlotRefs<K> = FastMap<K, Vec<(u32, u32, u8)>>;

/// The record in slab slot `s` if it is still generation `g`.
fn live(slab: &[Option<PairRecord>], s: u32, g: u32) -> Option<&PairRecord> {
    slab.get(s as usize)?.as_ref().filter(|r| r.gen == g)
}

/// Per-sampled-edge bookkeeping.
#[derive(Debug, Clone, Copy)]
struct EdgeInfo {
    /// Arrival index of the list in which the edge first appeared (and was
    /// sampled).
    first_pos: u32,
    /// Discovered pairs charged to this edge (for eviction rollback).
    discoveries: u64,
}

/// The Section 3 two-pass triangle counting algorithm. See module docs.
pub struct TwoPassTriangle {
    cfg: TwoPassTriangleConfig,
    pass: usize,
    /// Index of the current non-empty adjacency list within the pass.
    pos: u32,
    next_pos: u32,
    items_pass1: u64,
    sampler: EdgeSampler,
    /// Packed edge → info, for edges currently in `S`.
    s_edges: FastMap<u64, EdgeInfo>,
    /// Valid discovered pair count `T′`.
    discovered: u64,
    /// Reservoir of `(slab, gen)` references.
    q: Reservoir<(u32, u32)>,
    slab: Vec<Option<PairRecord>>,
    free: Vec<u32>,
    /// Next generation for freed slab slots.
    free_gens: FastMap<u32, u32>,
    /// Packed edge → monitoring pairs `(slab, gen, slot)`.
    monitors: SlotRefs<u64>,
    /// Bytes held by `monitors`' inner vectors, maintained incrementally so
    /// `space_bytes` (sampled at every list boundary) stays O(1).
    monitors_vec_bytes: usize,
    /// Opposite vertex → pending slot activations `(slab, gen, slot)`.
    activations: SlotRefs<u32>,
    /// Bytes held by `activations`' inner vectors (see `monitors_vec_bytes`).
    activations_vec_bytes: usize,
    watcher: PairWatcher,
    /// Scratch buffer for completion callbacks.
    completed_buf: Vec<u64>,
    /// Sampler lifecycle counters (deterministic; see
    /// [`MultiPassAlgorithm::obs_counters`]).
    counters: ObsCounters,
}

impl TwoPassTriangle {
    /// Build the algorithm from its configuration.
    pub fn new(cfg: TwoPassTriangleConfig) -> Self {
        TwoPassTriangle {
            cfg,
            pass: 0,
            pos: 0,
            next_pos: 0,
            items_pass1: 0,
            sampler: EdgeSampler::new(cfg.seed, cfg.edge_sampling),
            s_edges: FastMap::default(),
            discovered: 0,
            q: Reservoir::new(cfg.seed ^ 0x9_1E57_0A1C, cfg.pair_capacity),
            slab: Vec::new(),
            free: Vec::new(),
            free_gens: FastMap::default(),
            monitors: FastMap::default(),
            monitors_vec_bytes: 0,
            activations: FastMap::default(),
            activations_vec_bytes: 0,
            watcher: PairWatcher::new(),
            completed_buf: Vec::new(),
            counters: ObsCounters::default(),
        }
    }

    /// Register watches/monitors/activations for a freshly stored record.
    fn attach(&mut self, slab: u32, gen: u32) {
        let tri = self.slab[slab as usize].as_ref().expect("just stored").tri;
        for slot in 0..3u8 {
            let edge = tri.slot_edge(slot as usize);
            let opp = tri.opposite(slot as usize);
            let (a, b) = unpack_pair(edge);
            self.watcher.watch(a, b);
            self.monitors_vec_bytes +=
                crate::common::push_map_vec(&mut self.monitors, edge, (slab, gen, slot), 12);
            self.activations_vec_bytes +=
                crate::common::push_map_vec(&mut self.activations, opp.0, (slab, gen, slot), 12);
        }
    }

    /// Tear down a record (unwatch; slab slot freed). Monitor and activation
    /// entries are cleaned lazily via generation checks.
    fn destroy(&mut self, slab: u32, gen: u32) {
        let record = self.slab.get_mut(slab as usize);
        let Some(rec) = record.and_then(|r| r.take_if(|r| r.gen == gen)) else {
            return;
        };
        for slot in 0..3 {
            let (a, b) = unpack_pair(rec.tri.slot_edge(slot));
            self.watcher.unwatch(a, b);
        }
        self.release(slab, gen);
    }

    /// Return an emptied slab slot to the free list under its next
    /// generation.
    fn release(&mut self, slab: u32, gen: u32) {
        self.free.push(slab);
        self.free_gens.insert(slab, gen.wrapping_add(1));
    }

    /// Handle a discovery of the pair `(e, τ)` where `e = {u, v}` (packed in
    /// `e_key`) and `w` is the apex.
    fn discover(&mut self, e_key: u64, w: VertexId) {
        self.discovered += 1;
        if let Some(info) = self.s_edges.get_mut(&e_key) {
            info.discoveries += 1;
        }
        let (slab, gen) = self.allocate_with_gen(TriangleSlots::new(e_key, w));
        match self.q.offer((slab, gen)) {
            ReservoirEvent::Stored { .. } => {
                self.counters.pairs_stored += 1;
                self.attach(slab, gen);
            }
            ReservoirEvent::Replaced { evicted, .. } => {
                self.counters.pairs_stored += 1;
                self.counters.pairs_replaced += 1;
                self.attach(slab, gen);
                self.destroy(evicted.0, evicted.1);
            }
            ReservoirEvent::Rejected => {
                self.counters.pairs_rejected += 1;
                // Not sampled: roll the allocation back.
                self.slab[slab as usize] = None;
                self.release(slab, gen);
            }
        }
    }

    /// Purge everything charged to an evicted sampled edge.
    fn purge_edge(&mut self, e_key: u64) {
        let Some(info) = self.s_edges.remove(&e_key) else {
            return;
        };
        let (a, b) = unpack_pair(e_key);
        self.watcher.unwatch(a, b);
        self.discovered -= info.discoveries;
        // Destroy pairs discovered at this edge.
        let victims: Vec<(u32, u32)> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.as_ref()
                    .filter(|rec| rec.tri.slot_edge(0) == e_key)
                    .map(|rec| (i as u32, rec.gen))
            })
            .collect();
        for (s, g) in victims {
            self.destroy(s, g);
        }
        let slab = &self.slab;
        self.q.retain(|&(s, g)| live(slab, s, g).is_some());
        self.q.set_seen(self.discovered);
    }

    /// Process one watched-pair completion in the current list of `owner`.
    fn on_completion(&mut self, key: u64, owner: VertexId) {
        // Discovery path: `key` is a sampled edge and `owner` its apex.
        if let Some(info) = self.s_edges.get(&key) {
            if self.pass == 0 || self.pos < info.first_pos {
                self.discover(key, owner);
            }
        }
        // H path (pass 2 only): bump active monitors of this edge.
        if self.pass == 1 {
            if let Some(entries) = self.monitors.get_mut(&key) {
                let slab = &mut self.slab;
                entries.retain(|&(s, g, slot)| {
                    match slab.get_mut(s as usize).and_then(|r| r.as_mut()) {
                        Some(rec) if rec.gen == g => {
                            if rec.active[slot as usize] {
                                rec.h[slot as usize] += 1;
                            }
                            true
                        }
                        _ => false,
                    }
                });
                if entries.is_empty() {
                    if let Some(dead) = self.monitors.remove(&key) {
                        self.monitors_vec_bytes -= dead.capacity() * 12 + 24;
                    }
                }
            }
        }
    }

    /// Pass-1 edge sampling on every item.
    fn sample_edge(&mut self, src: VertexId, dst: VertexId) {
        let key = pack_pair(src, dst);
        let s_edges = &self.s_edges;
        let offer = self.sampler.offer(key, |k| s_edges.contains_key(k));
        offer.count(&mut self.counters);
        if let Offer::New | Offer::NewEvicting(_) = offer {
            self.s_edges.insert(
                key,
                EdgeInfo {
                    first_pos: self.pos,
                    discoveries: 0,
                },
            );
            self.watcher.watch(src, dst);
        }
        if let Offer::NewEvicting(old) = offer {
            self.purge_edge(old);
        }
    }

    fn allocate_with_gen(&mut self, tri: TriangleSlots) -> (u32, u32) {
        let (idx, gen) = match self.free.pop() {
            Some(idx) => (idx, self.free_gens.remove(&idx).unwrap_or(1)),
            None => {
                self.slab.push(None);
                (self.slab.len() as u32 - 1, 0)
            }
        };
        self.slab[idx as usize] = Some(PairRecord {
            gen,
            tri,
            h: [0; 3],
            active: [false; 3],
        });
        (idx, gen)
    }
}

impl SpaceUsage for TwoPassTriangle {
    fn space_bytes(&self) -> usize {
        hashmap_bytes(&self.s_edges)
            + self.slab.capacity() * std::mem::size_of::<Option<PairRecord>>()
            + vec_bytes(&self.free)
            + hashmap_bytes(&self.monitors)
            + self.monitors_vec_bytes
            + hashmap_bytes(&self.activations)
            + self.activations_vec_bytes
            + self.watcher.space_bytes()
            + self.q.space_bytes()
            + hashmap_bytes(&self.free_gens)
            + self.sampler.space_bytes()
    }
}

impl MultiPassAlgorithm for TwoPassTriangle {
    type Output = TriangleEstimate;

    fn passes(&self) -> usize {
        2
    }

    fn requires_same_order(&self) -> bool {
        true
    }

    fn begin_pass(&mut self, pass: usize) {
        self.pass = pass;
        self.next_pos = 0;
        self.pos = 0;
    }

    fn begin_list(&mut self, _owner: VertexId) {
        self.pos = self.next_pos;
        self.next_pos += 1;
        self.watcher.begin_list();
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.feed_slice(&[StreamItem::new(src, dst)]);
    }

    /// Native slice path: the completion scratch buffer is swapped in and
    /// out once per run instead of once per item.
    fn feed_slice(&mut self, items: &[StreamItem]) {
        let mut buf = std::mem::take(&mut self.completed_buf);
        for it in items {
            if self.pass == 0 {
                self.items_pass1 += 1;
                self.sample_edge(it.src, it.dst);
            }
            buf.clear();
            self.watcher.on_item(it.dst, |k| buf.push(k));
            for &key in &buf {
                self.on_completion(key, it.src);
            }
        }
        self.completed_buf = buf;
    }

    fn end_list(&mut self, owner: VertexId) {
        if self.pass == 1 {
            if let Some(entries) = self.activations.remove(&owner.0) {
                self.activations_vec_bytes -= entries.capacity() * 12 + 24;
                for (s, g, slot) in entries {
                    if let Some(rec) = self.slab.get_mut(s as usize).and_then(|r| r.as_mut()) {
                        if rec.gen == g {
                            rec.active[slot as usize] = true;
                        }
                    }
                }
            }
        }
    }

    fn obs_counters(&self) -> Option<ObsCounters> {
        let q_full = self.q.capacity() > 0 && self.q.len() == self.q.capacity();
        Some(published_counters(
            self.counters,
            &self.watcher,
            &self.sampler,
            q_full,
        ))
    }

    fn finish(self) -> TriangleEstimate {
        let counted = self
            .q
            .items()
            .iter()
            .filter_map(|&(s, g)| live(&self.slab, s, g))
            .filter(|rec| rec.tri.lightest_slot(rec.h) == 0)
            .count() as u64;
        TriangleEstimate::assemble(
            self.cfg.edge_sampling,
            self.items_pass1 / 2,
            self.s_edges.len(),
            self.discovered,
            self.q.len(),
            counted,
        )
    }
}

/// Pass-boundary serialization for checkpoint/resume. The mid-list cursors
/// (`pos`, `next_pos`) and the completion scratch buffer are reset rather
/// than saved — both are (re)initialized by `begin_pass`/`begin_list` when
/// the resumed run enters pass 2. The sampler is rebuilt from the saved
/// `S` (see [`EdgeSampler::rebuild`]).
impl Checkpoint for TwoPassTriangle {
    fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        save_config(
            w,
            self.cfg.seed,
            self.cfg.edge_sampling,
            self.cfg.pair_capacity,
        )?;
        write_usize(w, self.pass)?;
        write_u64(w, self.items_pass1)?;
        write_u64(w, self.discovered)?;
        write_usize(w, self.s_edges.len())?;
        for (&key, info) in &self.s_edges {
            write_u64(w, key)?;
            write_u32(w, info.first_pos)?;
            write_u64(w, info.discoveries)?;
        }
        let (capacity, seen, rng_state) = self.q.to_parts();
        write_usize(w, capacity)?;
        write_u64(w, seen)?;
        write_u64(w, rng_state)?;
        write_usize(w, self.q.len())?;
        for &(s, g) in self.q.items() {
            write_u32(w, s)?;
            write_u32(w, g)?;
        }
        write_usize(w, self.slab.len())?;
        for slot in &self.slab {
            match slot {
                None => write_u8(w, 0)?,
                Some(rec) => {
                    write_u8(w, 1)?;
                    write_u32(w, rec.gen)?;
                    for v in rec.tri.0 {
                        write_u32(w, v.0)?;
                    }
                    for h in rec.h {
                        write_u64(w, h)?;
                    }
                    for a in rec.active {
                        write_u8(w, a as u8)?;
                    }
                }
            }
        }
        write_usize(w, self.free.len())?;
        for &f in &self.free {
            write_u32(w, f)?;
        }
        write_usize(w, self.free_gens.len())?;
        for (&slot, &gen) in &self.free_gens {
            write_u32(w, slot)?;
            write_u32(w, gen)?;
        }
        save_ref_map(w, &self.monitors)?;
        save_ref_map(w, &self.activations)?;
        self.watcher.save(w)?;
        self.counters.save(w)
    }

    fn restore(r: &mut dyn Read) -> io::Result<Self> {
        let (seed, edge_sampling, pair_capacity) = restore_config(r)?;
        let cfg = TwoPassTriangleConfig {
            seed,
            edge_sampling,
            pair_capacity,
        };
        let pass = read_usize(r)?;
        let items_pass1 = read_u64(r)?;
        let discovered = read_u64(r)?;
        let n = read_usize(r)?;
        let mut s_edges = FastMap::default();
        s_edges.reserve(n.min(1 << 16));
        for _ in 0..n {
            let key = read_u64(r)?;
            let first_pos = read_u32(r)?;
            let discoveries = read_u64(r)?;
            s_edges.insert(
                key,
                EdgeInfo {
                    first_pos,
                    discoveries,
                },
            );
        }
        let capacity = read_usize(r)?;
        let seen = read_u64(r)?;
        let rng_state = read_u64(r)?;
        let q_items = read_seq(r, |r| Ok((read_u32(r)?, read_u32(r)?)))?;
        let q = Reservoir::from_parts(capacity, seen, rng_state, q_items);
        let slab = read_seq(r, |r| {
            Ok(match read_u8(r)? {
                0 => None,
                1 => {
                    let gen = read_u32(r)?;
                    let mut verts = [VertexId(0); 3];
                    for v in &mut verts {
                        *v = VertexId(read_u32(r)?);
                    }
                    let mut h = [0u64; 3];
                    for x in &mut h {
                        *x = read_u64(r)?;
                    }
                    let mut active = [false; 3];
                    for a in &mut active {
                        *a = read_u8(r)? != 0;
                    }
                    Some(PairRecord {
                        gen,
                        tri: TriangleSlots(verts),
                        h,
                        active,
                    })
                }
                other => return Err(corrupt(format!("unknown slab slot tag {other}"))),
            })
        })?;
        let free = read_seq(r, read_u32)?;
        let n = read_usize(r)?;
        let mut free_gens = FastMap::default();
        free_gens.reserve(n.min(1 << 16));
        for _ in 0..n {
            let slot = read_u32(r)?;
            let gen = read_u32(r)?;
            free_gens.insert(slot, gen);
        }
        let (monitors, monitors_vec_bytes) = restore_ref_map(r)?;
        let (activations, activations_vec_bytes) = restore_ref_map(r)?;
        let watcher = PairWatcher::restore(r)?;
        let counters = ObsCounters::restore(r)?;
        let sampler = EdgeSampler::rebuild(seed, edge_sampling, s_edges.keys().copied())?;
        Ok(TwoPassTriangle {
            cfg,
            pass,
            pos: 0,
            next_pos: 0,
            items_pass1,
            sampler,
            s_edges,
            discovered,
            q,
            slab,
            free,
            free_gens,
            monitors,
            monitors_vec_bytes,
            activations,
            activations_vec_bytes,
            watcher,
            completed_buf: Vec::new(),
            counters,
        })
    }
}

/// Serialize a `key → Vec<(slab, gen, slot)>` reference map, preserving
/// vector order (iteration order inside each vector is behaviorally
/// significant; map-level order is not).
fn save_ref_map<K>(w: &mut dyn Write, map: &SlotRefs<K>) -> io::Result<()>
where
    K: Copy + Into<u64>,
{
    write_usize(w, map.len())?;
    for (&key, entries) in map {
        write_u64(w, key.into())?;
        write_usize(w, entries.len())?;
        for &(s, g, slot) in entries {
            write_u32(w, s)?;
            write_u32(w, g)?;
            write_u8(w, slot)?;
        }
    }
    Ok(())
}

/// Inverse of [`save_ref_map`], returning the map plus the incremental
/// byte count of its inner vectors (recomputed from the restored
/// capacities, which is exactly what the incremental counters track).
fn restore_ref_map<K>(r: &mut dyn Read) -> io::Result<(SlotRefs<K>, usize)>
where
    K: Eq + std::hash::Hash + TryFrom<u64>,
{
    let n = read_usize(r)?;
    let mut map = FastMap::default();
    map.reserve(n.min(1 << 16));
    let mut vec_bytes = 0usize;
    for _ in 0..n {
        let raw = read_u64(r)?;
        let key = K::try_from(raw).map_err(|_| corrupt(format!("map key {raw} out of range")))?;
        let entries = read_seq(r, |r| Ok((read_u32(r)?, read_u32(r)?, read_u8(r)?)))?;
        vec_bytes += entries.capacity() * 12 + 24;
        map.insert(key, entries);
    }
    Ok((map, vec_bytes))
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
        cfg: TwoPassTriangleConfig,
        order: StreamOrder,
    ) -> TriangleEstimate {
        let (est, _) = Runner::run(g, TwoPassTriangle::new(cfg), &PassOrders::Same(order));
        est
    }

    fn full_cfg(seed: u64) -> TwoPassTriangleConfig {
        TwoPassTriangleConfig {
            seed,
            edge_sampling: EdgeSampling::Threshold { p: 1.0 },
            pair_capacity: usize::MAX,
        }
    }

    /// With S = all edges and an unbounded reservoir the estimate is exact:
    /// every (e, τ) pair is discovered once, H is computed exactly, and each
    /// triangle is counted at precisely its lightest edge.
    #[test]
    fn exhaustive_sampling_is_exact_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..8 {
            let g = gen::gnm(40, 220, &mut rng);
            let truth = exact::count_triangles(&g) as f64;
            for (oi, order) in [
                StreamOrder::natural(40),
                StreamOrder::reversed(40),
                StreamOrder::shuffled(40, trial),
            ]
            .into_iter()
            .enumerate()
            {
                let est = run_once(&g, full_cfg(trial), order);
                assert_eq!(est.estimate, truth, "trial {trial} order {oi}: {est:?}");
                assert_eq!(est.pairs_discovered, 3 * truth as u64);
                assert_eq!(est.counted, truth as u64);
            }
        }
    }

    #[test]
    fn exhaustive_bottomk_is_exact() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::gnm(30, 140, &mut rng);
        let truth = exact::count_triangles(&g) as f64;
        let cfg = TwoPassTriangleConfig {
            seed: 7,
            edge_sampling: EdgeSampling::BottomK { k: 140 },
            pair_capacity: usize::MAX,
        };
        let est = run_once(&g, cfg, StreamOrder::shuffled(30, 3));
        assert_eq!(est.estimate, truth);
        assert_eq!(est.edges_sampled, 140);
    }

    #[test]
    fn exact_on_structured_graphs() {
        for (g, t) in [
            (gen::complete(8), 56u64),
            (gen::book(12), 12),
            (gen::disjoint_triangles(9), 9),
            (gen::complete_bipartite(4, 5), 0),
        ] {
            let n = g.vertex_count();
            let est = run_once(&g, full_cfg(3), StreamOrder::shuffled(n, 5));
            assert_eq!(est.estimate, t as f64, "graph {g:?}");
        }
    }

    /// The estimator is unbiased: averaging over many seeds at a moderate
    /// sampling rate converges to T.
    #[test]
    fn subsampled_estimator_is_unbiased() {
        let g = gen::disjoint_cliques(6, 10); // T = 10 * 20 = 200
        let truth = 200.0;
        let n = g.vertex_count();
        let reps = 300;
        let mut sum = 0.0;
        for seed in 0..reps {
            let cfg = TwoPassTriangleConfig {
                seed,
                edge_sampling: EdgeSampling::Threshold { p: 0.4 },
                pair_capacity: 120,
            };
            sum += run_once(&g, cfg, StreamOrder::shuffled(n, seed)).estimate;
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - truth).abs() < 0.1 * truth,
            "mean {mean} vs truth {truth}"
        );
    }

    /// Median amplification concentrates even on the heavy-edge book graph,
    /// where naive per-edge estimators blow up (ablation A1's motivation).
    #[test]
    fn median_concentrates_on_book_graph() {
        let g = gen::book(60); // 60 triangles, spine in all of them
        let n = g.vertex_count();
        let med = crate::amplify::median_of_runs(15, 40, 1, |seed| {
            let cfg = TwoPassTriangleConfig {
                seed,
                edge_sampling: EdgeSampling::Threshold { p: 0.5 },
                pair_capacity: 400,
            };
            run_once(&g, cfg, StreamOrder::shuffled(n, seed)).estimate
        });
        assert!(
            (med.median - 60.0).abs() < 24.0,
            "median {} too far from 60",
            med.median
        );
    }

    #[test]
    fn space_scales_with_budget_not_graph() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = gen::gnm(600, 8000, &mut rng);
        let small = TwoPassTriangleConfig {
            seed: 1,
            edge_sampling: EdgeSampling::BottomK { k: 50 },
            pair_capacity: 50,
        };
        let big = TwoPassTriangleConfig {
            seed: 1,
            edge_sampling: EdgeSampling::BottomK { k: 4000 },
            pair_capacity: 4000,
        };
        let (_, r_small) = Runner::run(
            &g,
            TwoPassTriangle::new(small),
            &PassOrders::Same(StreamOrder::natural(600)),
        );
        let (_, r_big) = Runner::run(
            &g,
            TwoPassTriangle::new(big),
            &PassOrders::Same(StreamOrder::natural(600)),
        );
        assert!(
            r_small.peak_state_bytes * 8 < r_big.peak_state_bytes,
            "small {} vs big {}",
            r_small.peak_state_bytes,
            r_big.peak_state_bytes
        );
    }

    /// The incremental monitor/activation byte counters must equal a full
    /// value rescan at every list boundary of a real run — otherwise the
    /// O(1) `space_bytes` would drift from the metered truth.
    #[test]
    fn incremental_accounting_matches_rescan_during_runs() {
        use adjstream_stream::item::StreamItem;
        use adjstream_stream::AdjListStream;

        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::gnm(60, 400, &mut rng);
        let order = StreamOrder::shuffled(60, 4);
        let items: Vec<StreamItem> = AdjListStream::new(&g, order).collect_items();
        let mut algo = TwoPassTriangle::new(TwoPassTriangleConfig {
            seed: 5,
            edge_sampling: EdgeSampling::BottomK { k: 60 },
            pair_capacity: 60,
        });
        let rescan = |a: &TwoPassTriangle| {
            let mon: usize = a.monitors.values().map(|v| v.capacity() * 12 + 24).sum();
            let act: usize = a.activations.values().map(|v| v.capacity() * 12 + 24).sum();
            (mon, act)
        };
        for pass in 0..2 {
            algo.begin_pass(pass);
            let mut current = None;
            for it in &items {
                if current != Some(it.src) {
                    if let Some(prev) = current {
                        algo.end_list(prev);
                        assert_eq!(
                            (algo.monitors_vec_bytes, algo.activations_vec_bytes),
                            rescan(&algo),
                            "pass {pass}"
                        );
                    }
                    algo.begin_list(it.src);
                    current = Some(it.src);
                }
                algo.item(it.src, it.dst);
            }
            if let Some(prev) = current {
                algo.end_list(prev);
            }
            algo.end_pass(pass);
            assert_eq!(
                (algo.monitors_vec_bytes, algo.activations_vec_bytes),
                rescan(&algo)
            );
        }
    }

    #[test]
    fn empty_and_triangle_free_graphs_estimate_zero() {
        let g = adjstream_graph::Graph::empty(10);
        let est = run_once(&g, full_cfg(1), StreamOrder::natural(10));
        assert_eq!(est.estimate, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let bip = gen::bipartite_gnm(20, 20, 150, &mut rng);
        let est = run_once(&bip, full_cfg(1), StreamOrder::shuffled(40, 2));
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.pairs_discovered, 0);
    }

    #[test]
    fn checkpoint_roundtrip_at_the_pass_boundary_is_bit_for_bit() {
        use adjstream_stream::meter::PeakTracker;
        use adjstream_stream::runner::drive_pass_slice;
        use adjstream_stream::AdjListStream;

        let mut rng = StdRng::seed_from_u64(77);
        let g = gen::gnm(60, 500, &mut rng).disjoint_union(&gen::disjoint_cliques(4, 6));
        let order = StreamOrder::shuffled(g.vertex_count(), 5);
        for edge_sampling in [
            EdgeSampling::BottomK { k: 64 },
            EdgeSampling::Threshold { p: 0.4 },
        ] {
            let cfg = TwoPassTriangleConfig {
                seed: 9,
                edge_sampling,
                pair_capacity: 96,
            };
            let mut peak = PeakTracker::new();
            let mut processed = 0usize;
            let mut original = TwoPassTriangle::new(cfg);
            drive_pass_slice(
                &mut original,
                0,
                &AdjListStream::new(&g, order.clone()).collect_items(),
                &mut peak,
                &mut processed,
            )
            .unwrap();

            let mut buf = Vec::new();
            original.save(&mut buf).unwrap();
            let mut restored = TwoPassTriangle::restore(&mut &buf[..]).unwrap();
            assert_eq!(restored.s_edges.len(), original.s_edges.len());
            assert_eq!(restored.q.items(), original.q.items());
            let rescan = |m: &FastMap<u64, Vec<(u32, u32, u8)>>| -> usize {
                m.values().map(|v| v.capacity() * 12 + 24).sum()
            };
            assert_eq!(
                restored.monitors_vec_bytes,
                rescan(&restored.monitors),
                "restored monitor byte accounting must match a from-scratch rescan"
            );
            let act_rescan: usize = restored
                .activations
                .values()
                .map(|v| v.capacity() * 12 + 24)
                .sum();
            assert_eq!(
                restored.activations_vec_bytes, act_rescan,
                "restored activation byte accounting must match a from-scratch rescan"
            );

            for algo in [&mut original, &mut restored] {
                drive_pass_slice(
                    algo,
                    1,
                    &AdjListStream::new(&g, order.clone()).collect_items(),
                    &mut peak,
                    &mut processed,
                )
                .unwrap();
            }
            let a = original.finish();
            let b = restored.finish();
            assert_eq!(a, b, "resumed run must reproduce the estimate exactly");
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert!(a.counted > 0, "test graph should actually count triangles");
        }
    }

    #[test]
    fn checkpoint_restore_rejects_garbage() {
        let err = TwoPassTriangle::restore(&mut &[0xFFu8; 4][..])
            .err()
            .expect("truncated input must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
