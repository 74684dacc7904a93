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

use std::hash::Hash;
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
use crate::common::{pack_pair, read_seq, seq_reserve, unpack_pair, EdgeSampling, PairWatcher};

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

/// One `(e, τ)` pair resident in `Q`, with its per-edge `H` state, its `Q`
/// position and its slots' places in the two reference lists.
#[derive(Debug, Clone)]
struct PairRecord {
    /// Generation tag guarding against slab-slot reuse.
    gen: u32,
    /// The pair's triangle; slot 0 is the sampled edge `e`.
    tri: TriangleSlots,
    /// `H` counters, one per triangle slot. Each counts lists of the
    /// slot edge's endpoints, so it is at most `n − 2`.
    h: [u32; 3],
    /// Whether each slot has passed its activation point in pass 2 (the
    /// end of the opposite vertex's list).
    active: [bool; 3],
    /// Store position of the record's entry in `Q`.
    q_pos: u32,
    /// Each slot's links in its two lists: `links[MONITORS]` in
    /// `monitors[slot edge]`, and `links[ACTIVATIONS]`, while the slot is
    /// inactive, in `activations[opposite vertex]`.
    links: [[Link; 3]; 2],
}

/// Index of the `monitors` links in [`PairRecord::links`].
const MONITORS: usize = 0;
/// Index of the `activations` links in [`PairRecord::links`].
const ACTIVATIONS: usize = 1;

/// A node's neighbours in its reference list. A node is one slot of one
/// record, numbered `slab * 3 + slot`.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// No node: the link past either end of a list.
const NIL: u32 = u32::MAX;

/// The links of a record in no list yet.
const UNLINKED: [[Link; 3]; 2] = [[Link {
    prev: NIL,
    next: NIL,
}; 3]; 2];

/// Slab length at which the next slot's nodes would reach [`NIL`].
const MAX_SLAB: usize = (NIL / 3) as usize;

/// The node of slab slot `slab`'s triangle slot `slot`.
fn node(slab: u32, slot: usize) -> u32 {
    slab * 3 + slot as u32
}

/// The live record and the triangle slot that node `n` names.
fn node_slot(slab: &mut [Option<PairRecord>], n: u32) -> (&mut PairRecord, usize) {
    let rec = slab[(n / 3) as usize]
        .as_mut()
        .expect("lists name live records");
    (rec, (n % 3) as usize)
}

/// Node `n`'s links in list `L`.
fn link_mut<const L: usize>(slab: &mut [Option<PairRecord>], n: u32) -> &mut Link {
    let (rec, slot) = node_slot(slab, n);
    &mut rec.links[L][slot]
}

/// The nodes of list `L` from `head` on, in order.
fn walk<const L: usize>(slab: &[Option<PairRecord>], head: u32) -> impl Iterator<Item = u32> + '_ {
    let next = move |&n: &u32| {
        let rec = slab[(n / 3) as usize]
            .as_ref()
            .expect("lists name live records");
        Some(rec.links[L][(n % 3) as usize].next).filter(|&m| m != NIL)
    };
    std::iter::successors(Some(head).filter(|&n| n != NIL), next)
}

/// Key → an intrusive list of record slots, threaded through the slots'
/// `links[L]` in the slab. A record has one node per slot in `monitors`
/// and one per inactive slot in `activations`, and
/// [`TwoPassTriangle::destroy`] unlinks them with the record, so no list
/// names a dead record.
#[derive(Debug)]
struct SlotRefs<K, const L: usize> {
    /// Key → `(head, tail)` of its list. An emptied list leaves the map.
    map: FastMap<K, (u32, u32)>,
}

impl<K: Copy + Eq + Hash, const L: usize> SlotRefs<K, L> {
    fn new() -> Self {
        SlotRefs {
            map: FastMap::default(),
        }
    }

    /// Append node `n` to `key`'s list.
    fn push(&mut self, slab: &mut [Option<PairRecord>], key: K, n: u32) {
        let mut prev = NIL;
        self.map
            .entry(key)
            .and_modify(|(_, tail)| prev = std::mem::replace(tail, n))
            .or_insert((n, n));
        if prev != NIL {
            link_mut::<L>(slab, prev).next = n;
        }
        *link_mut::<L>(slab, n) = Link { prev, next: NIL };
    }

    /// The first node of `key`'s list, or [`NIL`].
    fn head(&self, key: K) -> u32 {
        self.map.get(&key).map_or(NIL, |&(head, _)| head)
    }

    /// Unlink node `n` from `key`'s list as `Vec::swap_remove` removes an
    /// element: the tail node takes `n`'s place. So a list keeps the order
    /// that a vector under the same pushes and removals would have.
    fn swap_remove(&mut self, slab: &mut [Option<PairRecord>], key: K, n: u32) {
        let ends = self.map.get_mut(&key).expect("a live record's list");
        let tail = ends.1;
        let before_tail = link_mut::<L>(slab, tail).prev;
        if before_tail == NIL {
            debug_assert_eq!(tail, n, "a one-node list holds the node removed");
            self.map.remove(&key);
            return;
        }
        link_mut::<L>(slab, before_tail).next = NIL;
        ends.1 = before_tail;
        if n != tail {
            // Read after the unlink: if `n` preceded the tail, it is now
            // the tail itself.
            let Link { prev, next } = *link_mut::<L>(slab, n);
            *link_mut::<L>(slab, tail) = Link { prev, next };
            match prev {
                NIL => ends.0 = tail,
                p => link_mut::<L>(slab, p).next = tail,
            }
            match next {
                NIL => ends.1 = tail,
                m => link_mut::<L>(slab, m).prev = tail,
            }
        }
    }

    /// Remove `key`'s whole list, returning its head (or [`NIL`]). The
    /// nodes keep their links, so the caller can still walk them.
    fn take(&mut self, key: K) -> u32 {
        self.map.remove(&key).map_or(NIL, |(head, _)| head)
    }

    fn space_bytes(&self) -> usize {
        hashmap_bytes(&self.map)
    }
}

/// The live record that the reference `(s, g, _)` names.
fn referent(slab: &mut [Option<PairRecord>], s: u32, g: u32) -> &mut PairRecord {
    let rec = slab[s as usize]
        .as_mut()
        .expect("references name live records");
    debug_assert_eq!(rec.gen, g, "reference to a reused slab slot");
    rec
}

/// Per-sampled-edge bookkeeping.
#[derive(Debug, Clone, Copy)]
struct EdgeInfo {
    /// Arrival index of the list in which the edge first appeared (and was
    /// sampled).
    first_pos: u32,
    /// Discovered pairs charged to this edge (for eviction rollback): one
    /// per apex, so at most `n − 2`.
    discoveries: u32,
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
    /// Reservoir of `(slab, gen)` references, one per live record.
    q: Reservoir<(u32, u32)>,
    slab: Vec<Option<PairRecord>>,
    free: Vec<u32>,
    /// Next generation for freed slab slots.
    free_gens: FastMap<u32, u32>,
    /// Packed edge → monitoring pairs.
    monitors: SlotRefs<u64, MONITORS>,
    /// Opposite vertex → pending slot activations.
    activations: SlotRefs<u32, ACTIVATIONS>,
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
            monitors: SlotRefs::new(),
            activations: SlotRefs::new(),
            watcher: PairWatcher::new(),
            completed_buf: Vec::new(),
            counters: ObsCounters::default(),
        }
    }

    /// Register watches, monitors and activations for a record freshly
    /// stored at `Q` position `q_pos`.
    fn attach(&mut self, slab: u32, gen: u32, q_pos: u32) {
        let rec = referent(&mut self.slab, slab, gen);
        rec.q_pos = q_pos;
        let tri = rec.tri;
        for slot in 0..3 {
            let edge = tri.slot_edge(slot);
            let (a, b) = unpack_pair(edge);
            self.watcher.watch(a, b);
            let n = node(slab, slot);
            self.monitors.push(&mut self.slab, edge, n);
            self.activations
                .push(&mut self.slab, tri.opposite(slot).0, n);
        }
    }

    /// Tear down a record: unwatch its edges, unlink its nodes and free its
    /// slab slot. Returns its `Q` position, whose entry is the
    /// caller's to replace or remove.
    fn destroy(&mut self, slab: u32, gen: u32) -> u32 {
        let rec = referent(&mut self.slab, slab, gen);
        let (tri, active) = (rec.tri, rec.active);
        for slot in 0..3 {
            let (a, b) = unpack_pair(tri.slot_edge(slot));
            self.watcher.unwatch(a, b);
        }
        // The record stays in the slab until its nodes are unlinked: on a
        // stream that breaks the promise, two of its slots can share a
        // list, and the tail moved into a removed node's place may be its
        // own other slot.
        for (slot, &is_active) in active.iter().enumerate() {
            let n = node(slab, slot);
            self.monitors
                .swap_remove(&mut self.slab, tri.slot_edge(slot), n);
            // An active slot's activation node was consumed with its list.
            if !is_active {
                self.activations
                    .swap_remove(&mut self.slab, tri.opposite(slot).0, n);
            }
        }
        let rec = self.slab[slab as usize].take().expect("still live");
        self.release(slab, gen);
        rec.q_pos
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
            ReservoirEvent::Stored { slot } => {
                self.counters.pairs_stored += 1;
                self.attach(slab, gen, self.q.position(slot) as u32);
            }
            ReservoirEvent::Replaced { slot, evicted } => {
                self.counters.pairs_stored += 1;
                self.counters.pairs_replaced += 1;
                self.attach(slab, gen, self.q.position(slot) as u32);
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
        self.discovered -= u64::from(info.discoveries);
        // Destroy the pairs discovered at this edge: every record monitors
        // its slot-0 edge, so they are the slot-0 entries of
        // `monitors[e_key]`. Slab order keeps the free list and the
        // watcher's `swap_remove`s as a full slab scan would leave them.
        let mut victims: Vec<u32> = walk::<MONITORS>(&self.slab, self.monitors.head(e_key))
            .filter(|&n| n % 3 == 0)
            .map(|n| n / 3)
            .collect();
        victims.sort_unstable();
        for s in victims {
            let rec = self.slab[s as usize].as_ref();
            let g = rec.expect("lists name live records").gen;
            let q_pos = self.destroy(s, g);
            let slab = &mut self.slab;
            self.q.remove(q_pos as usize, |pos, &(s, g)| {
                referent(slab, s, g).q_pos = pos as u32;
            });
        }
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
            let mut n = self.monitors.head(key);
            while n != NIL {
                let (rec, slot) = node_slot(&mut self.slab, n);
                if rec.active[slot] {
                    rec.h[slot] += 1;
                }
                n = rec.links[MONITORS][slot].next;
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
                assert!(self.slab.len() < MAX_SLAB, "slab exceeds the node range");
                self.slab.push(None);
                (self.slab.len() as u32 - 1, 0)
            }
        };
        self.slab[idx as usize] = Some(PairRecord {
            gen,
            tri,
            h: [0; 3],
            active: [false; 3],
            q_pos: 0,
            links: UNLINKED,
        });
        (idx, gen)
    }
}

impl SpaceUsage for TwoPassTriangle {
    fn space_bytes(&self) -> usize {
        hashmap_bytes(&self.s_edges)
            + self.slab.capacity() * std::mem::size_of::<Option<PairRecord>>()
            + vec_bytes(&self.free)
            + self.monitors.space_bytes()
            + self.activations.space_bytes()
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
            let mut n = self.activations.take(owner.0);
            while n != NIL {
                let (rec, slot) = node_slot(&mut self.slab, n);
                rec.active[slot] = true;
                n = rec.links[ACTIVATIONS][slot].next;
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
            .iter()
            .map(|&(s, _)| {
                self.slab[s as usize]
                    .as_ref()
                    .expect("Q holds live records")
            })
            .filter(|rec| rec.tri.lightest_slot(rec.h.map(u64::from)) == 0)
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
/// `S` (see `EdgeSampler::rebuild`). The record positions and links are
/// not saved either: a reference list is saved as its `(slab, gen, slot)`
/// references in list order, and restore rethreads the links and
/// recomputes the positions from the saved order of `Q` and of each list.
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
            write_u64(w, info.discoveries.into())?;
        }
        let (capacity, seen, rng_state) = self.q.to_parts();
        write_usize(w, capacity)?;
        write_u64(w, seen)?;
        write_u64(w, rng_state)?;
        write_usize(w, self.q.len())?;
        for &(s, g) in self.q.iter() {
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
                        write_u64(w, h.into())?;
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
        save_ref_map(w, &self.monitors, &self.slab)?;
        save_ref_map(w, &self.activations, &self.slab)?;
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
        s_edges.reserve(seq_reserve::<(u64, EdgeInfo)>(n));
        for _ in 0..n {
            let key = read_u64(r)?;
            let first_pos = read_u32(r)?;
            let discoveries = read_count(r, "discovery count")?;
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
        let mut slab = read_seq(r, |r| {
            Ok(match read_u8(r)? {
                0 => None,
                1 => {
                    let gen = read_u32(r)?;
                    let mut verts = [VertexId(0); 3];
                    for v in &mut verts {
                        *v = VertexId(read_u32(r)?);
                    }
                    let mut h = [0u32; 3];
                    for x in &mut h {
                        *x = read_count(r, "H counter")?;
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
                        q_pos: UNSET,
                        links: UNLINKED,
                    })
                }
                other => return Err(corrupt(format!("unknown slab slot tag {other}"))),
            })
        })?;
        if slab.len() > MAX_SLAB {
            return Err(corrupt(format!("slab length {} too long", slab.len())));
        }
        for (pos, &(s, g)) in q_items.iter().enumerate() {
            match slab.get_mut(s as usize) {
                Some(Some(rec)) if rec.gen == g && rec.q_pos == UNSET => rec.q_pos = pos as u32,
                _ => return Err(corrupt("Q entry names no live record, or one twice")),
            }
        }
        if slab.iter().flatten().any(|rec| rec.q_pos == UNSET) {
            return Err(corrupt("live record outside Q"));
        }
        let q = Reservoir::from_parts(capacity, seen, rng_state, q_items);
        let free = read_seq(r, read_u32)?;
        if free
            .iter()
            .any(|&f| !matches!(slab.get(f as usize), Some(None)))
        {
            return Err(corrupt("free list names an occupied slab slot"));
        }
        let n = read_usize(r)?;
        let mut free_gens = FastMap::default();
        free_gens.reserve(seq_reserve::<(u32, u32)>(n));
        for _ in 0..n {
            let slot = read_u32(r)?;
            let gen = read_u32(r)?;
            free_gens.insert(slot, gen);
        }
        let monitors = restore_ref_map(r, &mut slab, |rec, slot| Some(rec.tri.slot_edge(slot)))?;
        // An active slot has no activation left.
        let activations = restore_ref_map(r, &mut slab, |rec, slot| {
            (!rec.active[slot]).then(|| rec.tri.opposite(slot).0.into())
        })?;
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
            activations,
            watcher,
            completed_buf: Vec::new(),
            counters,
        })
    }
}

/// A `Q` position not yet recovered on restore.
const UNSET: u32 = u32::MAX;

/// Read a checkpoint's `u64` counter into the `u32` it is held in,
/// refusing a value that would not fit.
fn read_count(r: &mut dyn Read, what: &str) -> io::Result<u32> {
    let raw = read_u64(r)?;
    u32::try_from(raw).map_err(|_| corrupt(format!("{what} {raw} exceeds u32")))
}

/// Serialize a reference map as `key → [(slab, gen, slot)]`, each list in
/// its order (which is behaviorally significant; map-level order is not).
fn save_ref_map<K, const L: usize>(
    w: &mut dyn Write,
    refs: &SlotRefs<K, L>,
    slab: &[Option<PairRecord>],
) -> io::Result<()>
where
    K: Copy + Into<u64>,
{
    write_usize(w, refs.map.len())?;
    for (&key, &(head, _)) in &refs.map {
        write_u64(w, key.into())?;
        write_usize(w, walk::<L>(slab, head).count())?;
        for n in walk::<L>(slab, head) {
            let rec = slab[(n / 3) as usize]
                .as_ref()
                .expect("lists name live records");
            write_u32(w, n / 3)?;
            write_u32(w, rec.gen)?;
            write_u8(w, (n % 3) as u8)?;
        }
    }
    Ok(())
}

/// Inverse of [`save_ref_map`]: thread each saved list through its
/// records' `links[L]`. A checkpoint written before references were
/// removed with their records also holds references to destroyed ones:
/// those are dropped here. `key_of` names the key each slot's node must
/// sit under, or `None` if the slot has no node in this map. A misplaced
/// or repeated reference, or a live slot left without its node, is
/// refused.
fn restore_ref_map<K, const L: usize>(
    r: &mut dyn Read,
    slab: &mut [Option<PairRecord>],
    key_of: impl Fn(&PairRecord, usize) -> Option<u64>,
) -> io::Result<SlotRefs<K, L>>
where
    K: Copy + Eq + Hash + TryFrom<u64>,
{
    let n = read_usize(r)?;
    let mut refs = SlotRefs::new();
    refs.map.reserve(seq_reserve::<(K, (u32, u32))>(n));
    // Tracked apart from the links: a one-node list links to `NIL` at
    // both ends, exactly like a node not yet placed.
    let mut placed = vec![false; slab.len() * 3];
    for _ in 0..n {
        let raw = read_u64(r)?;
        let key = K::try_from(raw).map_err(|_| corrupt(format!("map key {raw} out of range")))?;
        let (mut head, mut tail) = (NIL, NIL);
        for _ in 0..read_usize(r)? {
            let (s, g, slot) = (read_u32(r)?, read_u32(r)?, read_u8(r)?);
            if !matches!(slab.get(s as usize), Some(Some(rec)) if rec.gen == g) {
                continue;
            }
            if slot > 2 {
                return Err(corrupt(format!("reference to slot {slot}")));
            }
            let slot = usize::from(slot);
            let n = node(s, slot);
            let rec = referent(slab, s, g);
            if key_of(rec, slot) != Some(raw) || placed[n as usize] {
                return Err(corrupt("reference misplaced or repeated"));
            }
            placed[n as usize] = true;
            rec.links[L][slot] = Link {
                prev: tail,
                next: NIL,
            };
            match tail {
                NIL => head = n,
                t => link_mut::<L>(slab, t).next = n,
            }
            tail = n;
        }
        if head != NIL && refs.map.insert(key, (head, tail)).is_some() {
            return Err(corrupt(format!("map key {raw} repeated")));
        }
    }
    for (s, rec) in slab.iter().enumerate() {
        let Some(rec) = rec else { continue };
        if (0..3).any(|slot| key_of(rec, slot).is_some() && !placed[node(s as u32, slot) as usize])
        {
            return Err(corrupt("live record without its references"));
        }
    }
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangle::kernel::save_config;
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

    /// Drive both passes of `algo` over `items` item by item, calling
    /// `check` after every adjacency list and at the end of each pass.
    fn drive_checked(
        algo: &mut TwoPassTriangle,
        items: &[StreamItem],
        mut check: impl FnMut(&TwoPassTriangle, usize),
    ) {
        for pass in 0..2 {
            algo.begin_pass(pass);
            let mut current = None;
            for it in items {
                if current != Some(it.src) {
                    if let Some(prev) = current {
                        algo.end_list(prev);
                        check(algo, pass);
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
            check(algo, pass);
        }
    }

    /// The nodes of `key`'s list in `refs`, checking its links as it
    /// walks: the head's `prev` and the tail's `next` are `NIL`, each
    /// `prev` names the node before, every node is a live record's, and
    /// the map's tail is the last node.
    fn list_nodes<K: Copy + Eq + Hash, const L: usize>(
        refs: &SlotRefs<K, L>,
        slab: &[Option<PairRecord>],
        key: K,
        ctx: &str,
    ) -> Vec<u32> {
        let Some(&(head, tail)) = refs.map.get(&key) else {
            return Vec::new();
        };
        let mut nodes = Vec::new();
        let (mut prev, mut n) = (NIL, head);
        while n != NIL {
            assert!(nodes.len() < 3 * slab.len(), "{ctx}: a list cycles");
            let rec = slab[(n / 3) as usize].as_ref().unwrap_or_else(|| {
                panic!("{ctx}: list names dead slab slot {}", n / 3);
            });
            let link = rec.links[L][(n % 3) as usize];
            assert_eq!(link.prev, prev, "{ctx}: node {n}'s prev");
            nodes.push(n);
            (prev, n) = (n, link.next);
        }
        assert!(!nodes.is_empty(), "{ctx}: empty list in the map");
        assert_eq!(prev, tail, "{ctx}: the map's tail");
        nodes
    }

    /// Assert that `a` holds only live sample state: every live record's
    /// slot sits exactly once in its edge's `monitors` list, every
    /// inactive slot exactly once in its opposite vertex's `activations`
    /// list, and nothing else sits in either; every list's links agree
    /// (see [`list_nodes`]); `Q` is exactly the live records, each at its
    /// stored position; and `space_bytes` equals a recount from the maps
    /// and the slab.
    fn assert_live_state(a: &TwoPassTriangle, ctx: &str) {
        let live: Vec<(u32, &PairRecord)> = a
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i as u32, r.as_ref()?)))
            .collect();
        let rec = |s: u32, g: u32| -> &PairRecord {
            let rec = a.slab[s as usize].as_ref().unwrap_or_else(|| {
                panic!("{ctx}: dead reference to slab slot {s}");
            });
            assert_eq!(rec.gen, g, "{ctx}: reference to a reused slot {s}");
            rec
        };
        let mut monitored = Vec::new();
        for &key in a.monitors.map.keys() {
            for n in list_nodes(&a.monitors, &a.slab, key, ctx) {
                let r = a.slab[(n / 3) as usize].as_ref().expect("checked live");
                assert_eq!(r.tri.slot_edge((n % 3) as usize), key, "{ctx}");
                monitored.push(n);
            }
        }
        let mut pending = Vec::new();
        for &key in a.activations.map.keys() {
            for n in list_nodes(&a.activations, &a.slab, key, ctx) {
                let (r, slot) = (a.slab[(n / 3) as usize].as_ref().unwrap(), n % 3);
                assert!(
                    !r.active[slot as usize],
                    "{ctx}: activation of an active slot"
                );
                assert_eq!(r.tri.opposite(slot as usize).0, key, "{ctx}");
                pending.push(n);
            }
        }
        monitored.sort_unstable();
        pending.sort_unstable();
        let all: Vec<u32> = live
            .iter()
            .flat_map(|&(s, _)| (0..3).map(move |slot| node(s, slot)))
            .collect();
        assert_eq!(monitored, all, "{ctx}: each live slot monitors once");
        let inactive: Vec<u32> = live
            .iter()
            .flat_map(|&(s, r)| {
                (0..3)
                    .filter(|&slot| !r.active[slot])
                    .map(move |slot| node(s, slot))
            })
            .collect();
        assert_eq!(pending, inactive, "{ctx}: each inactive slot pends once");
        let mut q: Vec<(u32, u32)> = a.q.iter().copied().collect();
        for (rank, &(s, g)) in q.iter().enumerate() {
            assert_eq!(a.q.position(rank), rec(s, g).q_pos as usize, "{ctx}");
        }
        q.sort_unstable();
        let want: Vec<(u32, u32)> = live.iter().map(|&(i, r)| (i, r.gen)).collect();
        assert_eq!(q, want, "{ctx}: Q must be the live records");
        let recount = hashmap_bytes(&a.s_edges)
            + a.slab.capacity() * std::mem::size_of::<Option<PairRecord>>()
            + vec_bytes(&a.free)
            + hashmap_bytes(&a.monitors.map)
            + hashmap_bytes(&a.activations.map)
            + a.watcher.space_bytes()
            + a.q.space_bytes()
            + hashmap_bytes(&a.free_gens)
            + a.sampler.space_bytes();
        assert_eq!(a.space_bytes(), recount, "{ctx}: space recount");
    }

    /// At every list boundary of a real run, `space_bytes` equals a
    /// recount from the maps and the slab, and the reference lists hold
    /// exactly the live slots with consistent links. Checked on a bottom-k
    /// run and on a threshold run, where only `Q` replacements destroy
    /// records.
    #[test]
    fn incremental_accounting_matches_rescan_during_runs() {
        use adjstream_stream::AdjListStream;

        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::gnm(60, 400, &mut rng);
        let order = StreamOrder::shuffled(60, 4);
        let items: Vec<StreamItem> = AdjListStream::new(&g, order).collect_items();
        for edge_sampling in [
            EdgeSampling::BottomK { k: 60 },
            EdgeSampling::Threshold { p: 0.5 },
        ] {
            let mut algo = TwoPassTriangle::new(TwoPassTriangleConfig {
                seed: 5,
                edge_sampling,
                pair_capacity: 60,
            });
            drive_checked(&mut algo, &items, |a, pass| {
                assert_live_state(a, &format!("{edge_sampling:?} pass {pass}"));
            });
            let counters = algo.obs_counters().expect("published");
            assert!(counters.pairs_replaced > 0, "Q must replace");
        }
    }

    /// The indexed purge finds every pair discovered at an evicted edge:
    /// after each list, every live record's sampled edge is still in `S`,
    /// `monitors` and `activations` hold no dead reference, and `Q` holds
    /// exactly the live records.
    #[test]
    fn bottom_k_purge_leaves_no_orphaned_pair() {
        use adjstream_stream::AdjListStream;

        let mut rng = StdRng::seed_from_u64(13);
        let g = gen::disjoint_cliques(7, 12).disjoint_union(&gen::gnm(40, 160, &mut rng));
        let order = StreamOrder::shuffled(g.vertex_count(), 6);
        let items: Vec<StreamItem> = AdjListStream::new(&g, order).collect_items();
        let mut algo = TwoPassTriangle::new(TwoPassTriangleConfig {
            seed: 3,
            edge_sampling: EdgeSampling::BottomK { k: 40 },
            pair_capacity: 60,
        });
        let mut most_live = 0;
        drive_checked(&mut algo, &items, |a, pass| {
            let mut live = 0;
            for rec in a.slab.iter().flatten() {
                let e = rec.tri.slot_edge(0);
                assert!(a.s_edges.contains_key(&e), "pass {pass}: orphan of {e:#x}");
                live += 1;
            }
            most_live = most_live.max(live);
            assert_live_state(a, &format!("pass {pass}"));
        });
        let counters = algo.obs_counters().expect("published");
        assert!(counters.evictions > 0, "the sample must evict");
        assert!(most_live > 0, "pairs must be stored");
    }

    /// A stream that breaks the promise can make a record whose apex is
    /// an endpoint of its sampled edge (a self-loop item completes the
    /// pair), so two of its slots share a reference list. Destroying such
    /// records, by purge and by `Q` replacement, still leaves only live
    /// state.
    #[test]
    fn self_loops_leave_only_live_state() {
        use adjstream_stream::AdjListStream;

        let mut rng = StdRng::seed_from_u64(17);
        let g = gen::disjoint_cliques(6, 8).disjoint_union(&gen::gnm(30, 120, &mut rng));
        let order = StreamOrder::shuffled(g.vertex_count(), 2);
        let mut items: Vec<StreamItem> = Vec::new();
        for it in AdjListStream::new(&g, order).collect_items() {
            if items.last().map(|l: &StreamItem| l.src) != Some(it.src) {
                items.push(StreamItem::new(it.src, it.src));
            }
            items.push(it);
        }
        let mut algo = TwoPassTriangle::new(TwoPassTriangleConfig {
            seed: 4,
            edge_sampling: EdgeSampling::BottomK { k: 30 },
            pair_capacity: 25,
        });
        let mut degenerate = 0;
        drive_checked(&mut algo, &items, |a, pass| {
            degenerate += a
                .slab
                .iter()
                .flatten()
                .filter(|r| r.tri.0[2] == r.tri.0[0] || r.tri.0[2] == r.tri.0[1])
                .count();
            assert_live_state(a, &format!("pass {pass}"));
        });
        let counters = algo.obs_counters().expect("published");
        assert!(degenerate > 0, "self-loops must make degenerate records");
        assert!(counters.evictions > 0 && counters.pairs_replaced > 0);
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
            assert!(restored.q.iter().eq(original.q.iter()));
            assert_live_state(&restored, "restored");
            let mut again = Vec::new();
            restored.save(&mut again).unwrap();
            assert_eq!(again.len(), buf.len(), "a live state restores whole");

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

    /// A saved reference map, decoded: each key with its list of
    /// `(slab, gen, slot)` references, in saved order.
    type SavedRefs = Vec<(u64, Vec<(u32, u32, u8)>)>;

    fn decode_refs(mut bytes: &[u8]) -> SavedRefs {
        let r = &mut bytes;
        let mut refs = Vec::new();
        for _ in 0..read_usize(r).unwrap() {
            let key = read_u64(r).unwrap();
            let mut list = Vec::new();
            for _ in 0..read_usize(r).unwrap() {
                list.push((
                    read_u32(r).unwrap(),
                    read_u32(r).unwrap(),
                    read_u8(r).unwrap(),
                ));
            }
            refs.push((key, list));
        }
        assert!(bytes.is_empty(), "the whole section decodes");
        refs
    }

    fn encode_refs(refs: &SavedRefs) -> Vec<u8> {
        let mut w = Vec::new();
        write_usize(&mut w, refs.len()).unwrap();
        for (key, list) in refs {
            write_u64(&mut w, *key).unwrap();
            write_usize(&mut w, list.len()).unwrap();
            for &(s, g, slot) in list {
                write_u32(&mut w, s).unwrap();
                write_u32(&mut w, g).unwrap();
                write_u8(&mut w, slot).unwrap();
            }
        }
        w
    }

    /// Restore rethreads every list and recomputes every record's
    /// position from the saved order, so a checkpoint whose saved lists
    /// or slab disagree with its records is refused as `InvalidData`
    /// rather than restored into a state that later panics. The list
    /// cases edit the saved `monitors` bytes.
    #[test]
    fn checkpoint_restore_rejects_inconsistent_references() {
        use adjstream_stream::meter::PeakTracker;
        use adjstream_stream::runner::drive_pass_slice;
        use adjstream_stream::AdjListStream;

        let g = gen::disjoint_cliques(6, 4);
        let items = AdjListStream::new(&g, StreamOrder::natural(g.vertex_count())).collect_items();
        let mut base = TwoPassTriangle::new(TwoPassTriangleConfig {
            seed: 1,
            edge_sampling: EdgeSampling::Threshold { p: 1.0 },
            pair_capacity: 30,
        });
        drive_pass_slice(&mut base, 0, &items, &mut PeakTracker::new(), &mut 0).unwrap();
        assert!(!base.free.is_empty(), "Q must have replaced records");
        let mut buf = Vec::new();
        base.save(&mut buf).unwrap();
        // The `monitors` section ends where the `activations` map, the
        // watcher and the counters begin.
        let mut section = Vec::new();
        save_ref_map(&mut section, &base.monitors, &base.slab).unwrap();
        let mut after = Vec::new();
        save_ref_map(&mut after, &base.activations, &base.slab).unwrap();
        base.watcher.save(&mut after).unwrap();
        base.counters.save(&mut after).unwrap();
        let end = buf.len() - after.len();
        let start = end - section.len();
        assert_eq!(buf[start..end], section[..]);
        let saved = decode_refs(&section);
        assert_eq!(encode_refs(&saved), section);
        let live = saved[0].1[0].0;
        for what in [
            "repeated",
            "missing",
            "misplaced",
            "generation",
            "free",
            "outside Q",
        ] {
            let bad = match what {
                "free" | "outside Q" => {
                    let mut a = TwoPassTriangle::restore(&mut &buf[..]).unwrap();
                    if what == "free" {
                        a.free.push(live);
                    } else {
                        let spare = a.free[0];
                        let mut rec = a.slab.iter().flatten().next().unwrap().clone();
                        rec.gen = a.free_gens[&spare];
                        a.slab[spare as usize] = Some(rec);
                    }
                    let mut bad = Vec::new();
                    a.save(&mut bad).unwrap();
                    bad
                }
                _ => {
                    let mut refs = saved.clone();
                    let (key, list) = &mut refs[0];
                    match what {
                        "repeated" => list.push(list[0]),
                        "missing" => {
                            list.remove(0);
                        }
                        "misplaced" => *key ^= 1,
                        _ => list[0].1 = list[0].1.wrapping_add(1),
                    }
                    let mut bad = buf[..start].to_vec();
                    bad.extend(encode_refs(&refs));
                    bad.extend(&buf[end..]);
                    bad
                }
            };
            let err = TwoPassTriangle::restore(&mut &bad[..])
                .err()
                .unwrap_or_else(|| panic!("{what}: must be refused"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    mod list_model {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random pushes, `swap_remove`s and takes over three keys and
            /// the twelve nodes of four records leave every list in the
            /// order a `Vec` under the same steps holds, after every step.
            /// Lists often hold two slots of one record, as a self-loop
            /// makes them do.
            #[test]
            fn lists_keep_vec_order(
                ops in prop::collection::vec((0u8..5, 0u32..3, 0u32..12, any::<u8>()), 0..200)
            ) {
                let record = PairRecord {
                    gen: 0,
                    tri: TriangleSlots([VertexId(0); 3]),
                    h: [0; 3],
                    active: [false; 3],
                    q_pos: 0,
                    links: UNLINKED,
                };
                let mut slab = vec![Some(record); 4];
                let mut refs: SlotRefs<u32, ACTIVATIONS> = SlotRefs::new();
                let mut model: Vec<Vec<u32>> = vec![Vec::new(); 3];
                for (step, &(op, key, n, pick)) in ops.iter().enumerate() {
                    let listed = model.iter().any(|l| l.contains(&n));
                    let list = &mut model[key as usize];
                    match op {
                        0 | 1 if !listed => {
                            refs.push(&mut slab, key, n);
                            list.push(n);
                        }
                        2 | 3 if !list.is_empty() => {
                            let at = usize::from(pick) % list.len();
                            refs.swap_remove(&mut slab, key, list[at]);
                            list.swap_remove(at);
                        }
                        4 => {
                            let head = refs.take(key);
                            let taken: Vec<u32> = walk::<ACTIVATIONS>(&slab, head).collect();
                            prop_assert_eq!(taken, std::mem::take(list), "step {}: take", step);
                        }
                        _ => {}
                    }
                    for k in 0..3 {
                        let ctx = format!("step {step} key {k}");
                        prop_assert_eq!(list_nodes(&refs, &slab, k, &ctx), model[k as usize].clone());
                    }
                }
            }
        }
    }

    /// `H` counters and discovery counts are `u64` in the checkpoint and
    /// `u32` in memory: a saved value above `u32::MAX` is refused, never
    /// truncated.
    #[test]
    fn checkpoint_restore_rejects_counts_above_u32() {
        use adjstream_stream::meter::PeakTracker;
        use adjstream_stream::runner::drive_pass_slice;
        use adjstream_stream::AdjListStream;

        let g = gen::disjoint_cliques(6, 4);
        let items = AdjListStream::new(&g, StreamOrder::natural(g.vertex_count())).collect_items();
        let mut algo = TwoPassTriangle::new(full_cfg(1));
        drive_pass_slice(&mut algo, 0, &items, &mut PeakTracker::new(), &mut 0).unwrap();
        let mut buf = Vec::new();
        algo.save(&mut buf).unwrap();
        assert!(TwoPassTriangle::restore(&mut &buf[..]).is_ok());

        // Offsets follow `save`: the config, pass, items, `T′` and `|S|`,
        // then `S` entries of key, first position and discovery count.
        let mut config = Vec::new();
        save_config(&mut config, 1, full_cfg(1).edge_sampling, usize::MAX).unwrap();
        let s_start = config.len() + 4 * 8;
        let discoveries_at = s_start + 8 + 4;
        // Then `Q`'s parts, its entries, the slab length and the slab's
        // slots: a free one is a tag byte; a record is a tag, a
        // generation and three vertices before its `H` counters.
        let q_start = s_start + algo.s_edges.len() * (8 + 4 + 8);
        let slab_start = q_start + 4 * 8 + algo.q.len() * 8 + 8;
        let first = algo
            .slab
            .iter()
            .position(Option::is_some)
            .expect("a record");
        let h_at = slab_start + first + 1 + 4 + 12;

        let too_big = (u64::from(u32::MAX) + 1).to_le_bytes();
        for (at, what) in [(discoveries_at, "discovery count"), (h_at, "H counter")] {
            let mut bad = buf.clone();
            bad[at..at + 8].copy_from_slice(&too_big);
            let err = TwoPassTriangle::restore(&mut &bad[..])
                .err()
                .unwrap_or_else(|| panic!("{what} above u32::MAX must fail"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(what), "{what}: {err}");
            // The largest value that fits still restores.
            bad[at..at + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
            assert!(TwoPassTriangle::restore(&mut &bad[..]).is_ok(), "{what}");
        }
    }
}
