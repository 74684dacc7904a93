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
//! variant's own is the reservoir slab of `Q` records and their `H`
//! counters. `H_{f,τ}` counts the pass-2 completions of `f` after the end
//! of the list of `τ`'s vertex opposite `f`, so it is read as the
//! difference of a running completion count per watched pair and the
//! count stored when that list ended: a completion costs one increment,
//! however many records monitor its edge.
//!
//! Each pass keeps only what it reads. In pass 1 the watcher holds `S`
//! alone, so a completion is a discovery, and each record sits in one
//! `monitors` list, which a bottom-k eviction reads to purge the records
//! discovered at the evicted edge. When pass 2 begins, `monitors` is
//! dropped and the records in `Q` start watching their three edges and
//! wait in `activations` for the lists that activate their slots.

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

/// One `(e, τ)` pair resident in `Q`, with its per-edge `H` state, its `Q`
/// position and its nodes' places in the reference lists. A record is
/// named by its slab index alone: [`TwoPassTriangle::destroy`] unlinks its
/// nodes, and the caller drops its `Q` entry, before the slot is reused.
#[derive(Debug, Clone)]
struct PairRecord {
    /// The pair's triangle; slot 0 is the sampled edge `e`.
    tri: TriangleSlots,
    /// `H` state, one per triangle slot; read through
    /// [`TwoPassTriangle::h_values`]. An inactive slot holds its `H`; an
    /// active one holds its edge's completion count less its `H`, so that
    /// `H` is the count now less this (in wrapping arithmetic). `H` counts
    /// lists of the slot edge's endpoints, so it is at most `n − 2`.
    h: [u32; 3],
    /// Whether each slot has passed its activation point in pass 2 (the
    /// end of the opposite vertex's list).
    active: [bool; 3],
    /// Store position of the record's entry in `Q`.
    q_pos: u32,
    /// The record's links. In pass 1, `links[MONITOR]` in `monitors[e]`;
    /// in pass 2, `links[slot]`, while the slot is inactive, in
    /// `activations[opposite vertex]`.
    links: [Link; 3],
}

/// Index in [`PairRecord::links`] of the record's pass-1 `monitors` node.
/// In pass 2 link `s` is triangle slot `s`'s `activations` node.
const MONITOR: usize = 0;

/// Links per record.
const LINKS: u32 = 3;

/// A node's neighbours in its reference list. A node is one link of one
/// record, numbered `slab * LINKS + link`.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// No node: the link past either end of a list.
const NIL: u32 = u32::MAX;

/// The links of a record in no list yet.
const UNLINKED: [Link; 3] = [Link {
    prev: NIL,
    next: NIL,
}; 3];

/// Slab length at which the next record's nodes would reach [`NIL`].
const MAX_SLAB: usize = (NIL / LINKS) as usize;

/// The node of slab slot `slab`'s link `link`.
fn node(slab: u32, link: usize) -> u32 {
    slab * LINKS + link as u32
}

/// The live record at slab slot `s`.
fn referent(slab: &mut [Option<PairRecord>], s: u32) -> &mut PairRecord {
    slab[s as usize]
        .as_mut()
        .expect("references name live records")
}

/// The live record that node `n` belongs to, and the index of its link.
fn node_link(slab: &mut [Option<PairRecord>], n: u32) -> (&mut PairRecord, usize) {
    (referent(slab, n / LINKS), (n % LINKS) as usize)
}

/// Node `n`'s links.
fn link_mut(slab: &mut [Option<PairRecord>], n: u32) -> &mut Link {
    let (rec, link) = node_link(slab, n);
    &mut rec.links[link]
}

/// The nodes of the list from `head` on.
fn walk(slab: &[Option<PairRecord>], head: u32) -> impl Iterator<Item = u32> + '_ {
    let next = move |&n: &u32| {
        let rec = slab[(n / LINKS) as usize]
            .as_ref()
            .expect("lists name live records");
        Some(rec.links[(n % LINKS) as usize].next).filter(|&m| m != NIL)
    };
    std::iter::successors(Some(head).filter(|&n| n != NIL), next)
}

/// Key → an intrusive list of record nodes, threaded through the nodes'
/// links in the slab. The lists are an index over the slab: nothing reads
/// their order, restore rebuilds them, and [`TwoPassTriangle::destroy`]
/// unlinks a record's nodes with it, so no list names a dead record.
#[derive(Debug, Default)]
struct SlotRefs<K> {
    /// Key → the head of its list. An emptied list leaves the map.
    map: FastMap<K, u32>,
}

impl<K: Copy + Eq + Hash> SlotRefs<K> {
    /// Put node `n` at the front of `key`'s list.
    fn push(&mut self, slab: &mut [Option<PairRecord>], key: K, n: u32) {
        let next = self.map.insert(key, n).unwrap_or(NIL);
        if next != NIL {
            link_mut(slab, next).prev = n;
        }
        *link_mut(slab, n) = Link { prev: NIL, next };
    }

    /// The first node of `key`'s list, or [`NIL`].
    fn head(&self, key: K) -> u32 {
        self.map.get(&key).copied().unwrap_or(NIL)
    }

    /// Unlink node `n` from `key`'s list.
    fn unlink(&mut self, slab: &mut [Option<PairRecord>], key: K, n: u32) {
        let Link { prev, next } = *link_mut(slab, n);
        match (prev, next) {
            (NIL, NIL) => {
                self.map.remove(&key);
            }
            (NIL, _) => *self.map.get_mut(&key).expect("a live record's list") = next,
            _ => link_mut(slab, prev).next = next,
        }
        if next != NIL {
            link_mut(slab, next).prev = prev;
        }
    }

    /// Remove `key`'s whole list, returning its head (or [`NIL`]). The
    /// nodes keep their links, so the caller can still walk them.
    fn take(&mut self, key: K) -> u32 {
        self.map.remove(&key).unwrap_or(NIL)
    }

    fn space_bytes(&self) -> usize {
        hashmap_bytes(&self.map)
    }
}

/// Per-sampled-edge bookkeeping, held at the watcher slot of the edge.
#[derive(Debug, Clone, Copy)]
struct EdgeInfo {
    /// Arrival index of the list in which the edge first appeared (and was
    /// sampled); [`NOT_SAMPLED`]'s for a slot that holds no edge of `S`.
    first_pos: u32,
    /// Discovered pairs charged to this edge (for eviction rollback): one
    /// per apex, so at most `n − 2`.
    discoveries: u32,
}

/// The info of a watcher slot that holds no edge of `S`.
const NOT_SAMPLED: EdgeInfo = EdgeInfo {
    first_pos: u32::MAX,
    discoveries: 0,
};

impl EdgeInfo {
    /// Whether the slot holds an edge of `S`.
    fn sampled(self) -> bool {
        self.first_pos != NOT_SAMPLED.first_pos
    }
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
    /// `S`'s per-edge info, by the watcher slot of the edge's pair; every
    /// other slot below the length holds [`NOT_SAMPLED`]. An edge of `S`
    /// is watched from its sampling to the end of the run, so its slot
    /// stays its own.
    s_info: Vec<EdgeInfo>,
    /// `|S|`.
    s_len: usize,
    /// Valid discovered pair count `T′`.
    discovered: u64,
    /// Reservoir of slab indices, one per live record.
    q: Reservoir<u32>,
    slab: Vec<Option<PairRecord>>,
    /// Freed slab slots, reused last in, first out.
    free: Vec<u32>,
    /// Pass 1: sampled edge → the records of the pairs discovered at it.
    monitors: SlotRefs<u64>,
    /// Pass 2: opposite vertex → pending slot activations.
    activations: SlotRefs<u32>,
    /// Pass 1 watches `S`; pass 2 watches `S` and the records' edges.
    watcher: PairWatcher,
    /// Pass-2 completions of each watched pair, by watcher slot (a slot
    /// reused by another pair keeps counting; only differences are read).
    completions: Vec<u32>,
    /// Scratch buffer for completion callbacks: `(pair, watcher slot)`.
    completed_buf: Vec<(u64, u32)>,
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
            s_info: Vec::new(),
            s_len: 0,
            discovered: 0,
            q: Reservoir::new(cfg.seed ^ 0x9_1E57_0A1C, cfg.pair_capacity),
            slab: Vec::new(),
            free: Vec::new(),
            monitors: SlotRefs::default(),
            activations: SlotRefs::default(),
            watcher: PairWatcher::new(),
            completions: Vec::new(),
            completed_buf: Vec::new(),
            counters: ObsCounters::default(),
        }
    }

    /// Index a record freshly stored at `Q` position `q_pos`: in pass 1
    /// under its sampled edge, in pass 2 by its watches and activations.
    fn attach(&mut self, slab: u32, q_pos: u32) {
        referent(&mut self.slab, slab).q_pos = q_pos;
        if self.pass == 0 {
            self.link_monitor(slab);
        } else {
            self.watch_record(slab);
        }
    }

    /// Put the live record at slab slot `slab` into `monitors` under its
    /// sampled edge.
    fn link_monitor(&mut self, slab: u32) {
        let e = referent(&mut self.slab, slab).tri.slot_edge(0);
        self.monitors.push(&mut self.slab, e, node(slab, MONITOR));
    }

    /// Watch the three edges of the live record at slab slot `slab` and
    /// link its inactive slots into `activations`.
    fn watch_record(&mut self, slab: u32) {
        let tri = referent(&mut self.slab, slab).tri;
        for slot in 0..3 {
            let (a, b) = unpack_pair(tri.slot_edge(slot));
            self.watcher.watch(a, b);
        }
        self.link_activations(slab);
    }

    /// Put each inactive slot of the live record at slab slot `slab` into
    /// `activations` under its opposite vertex.
    fn link_activations(&mut self, slab: u32) {
        let rec = referent(&mut self.slab, slab);
        let (tri, active) = (rec.tri, rec.active);
        for slot in (0..3).filter(|&slot| !active[slot]) {
            self.activations
                .push(&mut self.slab, tri.opposite(slot).0, node(slab, slot));
        }
    }

    /// Tear down a record: unlink its nodes, in pass 2 unwatch its edges,
    /// and free its slab slot. Returns its `Q` position, whose entry is the
    /// caller's to replace or remove.
    fn destroy(&mut self, slab: u32) -> u32 {
        let rec = referent(&mut self.slab, slab);
        let (tri, active) = (rec.tri, rec.active);
        // The record stays in the slab until its nodes are unlinked: on a
        // stream that breaks the promise, two of its slots can share an
        // `activations` list, so a node's neighbour may be its own.
        if self.pass == 0 {
            self.monitors
                .unlink(&mut self.slab, tri.slot_edge(0), node(slab, MONITOR));
        } else {
            for slot in 0..3 {
                let (a, b) = unpack_pair(tri.slot_edge(slot));
                self.watcher.unwatch(a, b);
            }
            // An active slot's activation node was consumed with its list.
            for slot in (0..3).filter(|&slot| !active[slot]) {
                self.activations
                    .unlink(&mut self.slab, tri.opposite(slot).0, node(slab, slot));
            }
        }
        let rec = self.slab[slab as usize].take().expect("still live");
        self.free.push(slab);
        rec.q_pos
    }

    /// Handle a discovery of the pair `(e, τ)` where `e = {u, v}` (packed in
    /// `e_key`, watched at `slot`) and `w` is the apex.
    fn discover(&mut self, e_key: u64, slot: u32, w: VertexId) {
        self.discovered += 1;
        self.s_info[slot as usize].discoveries += 1;
        let slab = self.allocate(TriangleSlots::new(e_key, w));
        match self.q.offer(slab) {
            ReservoirEvent::Stored { slot } => {
                self.counters.pairs_stored += 1;
                self.attach(slab, self.q.position(slot) as u32);
            }
            ReservoirEvent::Replaced { slot, evicted } => {
                self.counters.pairs_stored += 1;
                self.counters.pairs_replaced += 1;
                self.attach(slab, self.q.position(slot) as u32);
                self.destroy(evicted);
            }
            ReservoirEvent::Rejected => {
                self.counters.pairs_rejected += 1;
                // Not sampled: roll the allocation back.
                self.slab[slab as usize] = None;
                self.free.push(slab);
            }
        }
    }

    /// Purge everything charged to an edge evicted from `S` in pass 1.
    fn purge_edge(&mut self, e_key: u64) {
        let slot = self.watcher.slot(e_key).expect("an edge of S is watched");
        let info = std::mem::replace(&mut self.s_info[slot as usize], NOT_SAMPLED);
        self.s_len -= 1;
        let (a, b) = unpack_pair(e_key);
        self.watcher.unwatch(a, b);
        self.discovered -= u64::from(info.discoveries);
        // Destroy the pairs discovered at this edge: the list
        // `monitors[e_key]`, which keeps no order. Slab order keeps the
        // free list, and so later slab reuse, as a full slab scan would
        // leave them.
        let mut victims: Vec<u32> = walk(&self.slab, self.monitors.head(e_key))
            .map(|n| n / LINKS)
            .collect();
        victims.sort_unstable();
        for s in victims {
            let q_pos = self.destroy(s);
            let slab = &mut self.slab;
            self.q.remove(q_pos as usize, |pos, &s| {
                referent(slab, s).q_pos = pos as u32;
            });
        }
        self.q.set_seen(self.discovered);
    }

    /// Process one completion of the pair `key`, at watcher slot `slot`,
    /// in the current list of `owner`.
    fn on_completion(&mut self, key: u64, slot: u32, owner: VertexId) {
        if self.pass == 0 {
            // Pass 1 watches only `S`, whose edges keep their slots while
            // an item's completions are handled: each is a discovery.
            self.discover(key, slot, owner);
            return;
        }
        // Discovery path: `key` is a sampled edge, `owner` its apex, and
        // the list comes before the one that sampled it. An edge of `S`
        // keeps its slot through pass 2, and a slot released by an earlier
        // completion of this item held no edge of `S`.
        let info = self.s_info.get(slot as usize).copied();
        if info.is_some_and(|info| info.sampled() && self.pos < info.first_pos) {
            self.discover(key, slot, owner);
        }
        // H path: count the completion. If an earlier completion of this
        // item released `slot` (a `Q` replacement unwatches the evicted
        // record's edges), no live record monitors `key`, and a record
        // watching the slot's next pair activates after this count.
        let slot = slot as usize;
        if slot >= self.completions.len() {
            self.completions.resize(slot + 1, 0);
        }
        self.completions[slot] = self.completions[slot].wrapping_add(1);
    }

    /// `rec`'s `H` counters (see [`PairRecord::h`]).
    fn h_values(&self, rec: &PairRecord) -> [u64; 3] {
        std::array::from_fn(|slot| {
            let h = rec.h[slot];
            u64::from(if rec.active[slot] {
                completion_count(&self.watcher, &self.completions, rec.tri.slot_edge(slot))
                    .wrapping_sub(h)
            } else {
                h
            })
        })
    }

    /// Pass-1 edge sampling on every item. The pass-1 watcher holds
    /// exactly `S`, so it answers the sampler's membership test.
    fn sample_edge(&mut self, src: VertexId, dst: VertexId) {
        let key = pack_pair(src, dst);
        let watcher = &self.watcher;
        let offer = self.sampler.offer(key, |&k| watcher.slot(k).is_some());
        offer.count(&mut self.counters);
        if let Offer::New | Offer::NewEvicting(_) = offer {
            let slot = self.watcher.watch(src, dst);
            let info = EdgeInfo {
                first_pos: self.pos,
                discoveries: 0,
            };
            set_info(&mut self.s_info, slot, info);
            self.s_len += 1;
        }
        if let Offer::NewEvicting(old) = offer {
            self.purge_edge(old);
        }
    }

    /// Store a fresh record for `tri` in a free slab slot, or a new one,
    /// and return its index.
    fn allocate(&mut self, tri: TriangleSlots) -> u32 {
        let idx = self.free.pop().unwrap_or_else(|| {
            assert!(self.slab.len() < MAX_SLAB, "slab exceeds the node range");
            self.slab.push(None);
            self.slab.len() as u32 - 1
        });
        self.slab[idx as usize] = Some(PairRecord {
            tri,
            h: [0; 3],
            active: [false; 3],
            q_pos: 0,
            links: UNLINKED,
        });
        idx
    }

    /// The edges of `S` with their info, in slot order.
    fn s_edges(&self) -> impl Iterator<Item = (u64, EdgeInfo)> + '_ {
        self.s_info
            .iter()
            .enumerate()
            .filter(|(_, info)| info.sampled())
            .map(|(slot, &info)| {
                let key = self.watcher.pair(slot as u32).expect("S is watched");
                (key, info)
            })
    }
}

/// Set the info at watcher slot `slot`, growing `s_info` with
/// [`NOT_SAMPLED`] slots to reach it.
fn set_info(s_info: &mut Vec<EdgeInfo>, slot: u32, info: EdgeInfo) {
    let slot = slot as usize;
    if slot >= s_info.len() {
        s_info.resize(slot + 1, NOT_SAMPLED);
    }
    s_info[slot] = info;
}

impl SpaceUsage for TwoPassTriangle {
    fn space_bytes(&self) -> usize {
        vec_bytes(&self.s_info)
            + self.slab.capacity() * std::mem::size_of::<Option<PairRecord>>()
            + vec_bytes(&self.free)
            + self.monitors.space_bytes()
            + self.activations.space_bytes()
            + self.watcher.space_bytes()
            + vec_bytes(&self.completions)
            + self.q.space_bytes()
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

    /// Pass 2 takes no more offers, so `S` is final and the sampler keeps
    /// only its saturation flag. No purge reads `monitors` any more, so it
    /// goes. What pass 1 leaves is shrunk to its contents, as a restore
    /// would build it, so a run resumed here meters what an uninterrupted
    /// one does. Then the records in `Q` start watching, in store order.
    fn begin_pass(&mut self, pass: usize) {
        if pass > 0 {
            self.sampler.close();
        }
        let watching = pass == 1 && self.pass == 0;
        self.pass = pass;
        self.next_pos = 0;
        self.pos = 0;
        if watching {
            self.monitors = SlotRefs::default();
            // The watcher holds `S` alone, so every slot's info moves.
            let old_slots = self.watcher.compact();
            self.s_info = old_slots.iter().map(|&o| self.s_info[o as usize]).collect();
            self.slab.shrink_to_fit();
            self.free.shrink_to_fit();
            let slab = &mut self.slab;
            self.q
                .shrink_to_fit(|pos, &s| referent(slab, s).q_pos = pos as u32);
            let stored: Vec<u32> = self.q.iter().copied().collect();
            for s in stored {
                self.watch_record(s);
            }
        }
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
            self.watcher.on_item(it.dst, |k, slot| buf.push((k, slot)));
            for &(key, slot) in &buf {
                self.on_completion(key, slot, it.src);
            }
        }
        self.completed_buf = buf;
    }

    /// Activates the slots opposite `owner`: each stores its edge's
    /// completion count less its `H`, so completions from here on raise
    /// its `H` and those of this list do not.
    fn end_list(&mut self, owner: VertexId) {
        if self.pass == 1 {
            let mut n = self.activations.take(owner.0);
            while n != NIL {
                let (rec, slot) = node_link(&mut self.slab, n);
                let edge = rec.tri.slot_edge(slot);
                let count = completion_count(&self.watcher, &self.completions, edge);
                rec.h[slot] = count.wrapping_sub(rec.h[slot]);
                rec.active[slot] = true;
                n = rec.links[slot].next;
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
            .map(|&s| {
                self.slab[s as usize]
                    .as_ref()
                    .expect("Q holds live records")
            })
            .filter(|rec| rec.tri.lightest_slot(self.h_values(rec)) == 0)
            .count() as u64;
        TriangleEstimate::assemble(
            self.cfg.edge_sampling,
            self.items_pass1 / 2,
            self.s_len,
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
/// `S` (see `EdgeSampler::rebuild`). The record positions come from the
/// saved order of `Q`, and the reference lists of the saved pass from the
/// records. The watcher saved at the pass-1 boundary holds only `S`; an
/// earlier build's also holds the records' edges, which restore unwatches.
/// The layout keeps three parts that this build no longer uses, so that
/// payloads of earlier builds still resume: a generation word beside each
/// `Q` entry and each record, saved as 0 and ignored on restore; a
/// `free_gens` section (slab slot → generation), saved empty and read
/// past; and the two reference lists, each saved as an empty
/// `key → [reference]` section and read past.
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
        write_usize(w, self.s_len)?;
        for (key, info) in self.s_edges() {
            write_u64(w, key)?;
            write_u32(w, info.first_pos)?;
            write_u64(w, info.discoveries.into())?;
        }
        let (capacity, seen, rng_state) = self.q.to_parts();
        write_usize(w, capacity)?;
        write_u64(w, seen)?;
        write_u64(w, rng_state)?;
        write_usize(w, self.q.len())?;
        for &s in self.q.iter() {
            write_u32(w, s)?;
            write_u32(w, 0)?; // generation word
        }
        write_usize(w, self.slab.len())?;
        for slot in &self.slab {
            match slot {
                None => write_u8(w, 0)?,
                Some(rec) => {
                    write_u8(w, 1)?;
                    write_u32(w, 0)?; // generation word
                    for v in rec.tri.0 {
                        write_u32(w, v.0)?;
                    }
                    for h in self.h_values(rec) {
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
        // The empty `free_gens`, `monitors` and `activations` sections.
        write_usize(w, 0)?;
        write_usize(w, 0)?;
        write_usize(w, 0)?;
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
        if pass > 1 {
            return Err(corrupt(format!("pass {pass} of a two-pass run")));
        }
        let items_pass1 = read_u64(r)?;
        let discovered = read_u64(r)?;
        let s_edges = read_seq(r, |r| {
            let key = read_u64(r)?;
            let info = EdgeInfo {
                first_pos: read_u32(r)?,
                discoveries: read_count(r, "discovery count")?,
            };
            if !info.sampled() {
                return Err(corrupt("sampled edge with no first position"));
            }
            Ok((key, info))
        })?;
        let capacity = read_usize(r)?;
        let seen = read_u64(r)?;
        let rng_state = read_u64(r)?;
        let q_items = read_seq(r, |r| {
            let s = read_u32(r)?;
            read_u32(r)?; // generation word
            Ok(s)
        })?;
        let mut slab = read_seq(r, |r| {
            Ok(match read_u8(r)? {
                0 => None,
                1 => {
                    read_u32(r)?; // generation word
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
                    // No completion is counted yet: an active slot holds
                    // 0 less its `H`.
                    for (x, _) in h.iter_mut().zip(active).filter(|&(_, a)| a) {
                        *x = x.wrapping_neg();
                    }
                    Some(PairRecord {
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
        for (pos, &s) in q_items.iter().enumerate() {
            match slab.get_mut(s as usize) {
                Some(Some(rec)) if rec.q_pos == UNSET => rec.q_pos = pos as u32,
                _ => return Err(corrupt("Q entry names no live record, or one twice")),
            }
        }
        if slab.iter().flatten().any(|rec| rec.q_pos == UNSET) {
            return Err(corrupt("live record outside Q"));
        }
        let q = Reservoir::from_parts(capacity, seen, rng_state, q_items);
        let free = read_seq(r, read_u32)?;
        let mut freed = vec![false; slab.len()];
        for &f in &free {
            match (slab.get(f as usize), freed.get_mut(f as usize)) {
                (Some(None), Some(seen @ false)) => *seen = true,
                _ => {
                    return Err(corrupt(
                        "free list names an occupied slab slot, or one twice",
                    ))
                }
            }
        }
        // Earlier builds' `free_gens` entries: a slab slot and a generation.
        for _ in 0..read_usize(r)? {
            r.read_exact(&mut [0; 8])?;
        }
        skip_ref_map(r)?;
        skip_ref_map(r)?;
        let mut watcher = PairWatcher::restore(r)?;
        let counters = ObsCounters::restore(r)?;
        let s_keys = || s_edges.iter().map(|&(key, _)| key);
        let record_edges = || {
            slab.iter()
                .flatten()
                .flat_map(|rec| (0..3).map(|slot| rec.tri.slot_edge(slot)))
        };
        if pass == 0 && !watches_exactly(&watcher, s_keys()) {
            // An earlier build's pass-1 watcher: `S` and the records'
            // edges, which this build watches from pass 2 on.
            if !watches_exactly(&watcher, s_keys().chain(record_edges())) {
                return Err(corrupt("watched pairs differ from the sample's"));
            }
            for edge in record_edges() {
                let (a, b) = unpack_pair(edge);
                watcher.unwatch(a, b);
            }
        } else if pass == 1 && !watches_exactly(&watcher, s_keys().chain(record_edges())) {
            return Err(corrupt("watched pairs differ from the sample's"));
        }
        let mut s_info = Vec::new();
        for &(key, info) in &s_edges {
            let slot = watcher.slot(key).expect("S is watched");
            if s_info
                .get(slot as usize)
                .is_some_and(|i: &EdgeInfo| i.sampled())
            {
                return Err(corrupt("sampled edge saved twice"));
            }
            set_info(&mut s_info, slot, info);
        }
        let in_s = |edge| {
            let info = watcher
                .slot(edge)
                .and_then(|slot| s_info.get(slot as usize));
            info.is_some_and(|info| info.sampled())
        };
        if slab.iter().flatten().any(|rec| !in_s(rec.tri.slot_edge(0))) {
            return Err(corrupt("record whose sampled edge is not in S"));
        }
        let sampler = EdgeSampler::rebuild(seed, edge_sampling, pass, s_keys())?;
        let mut algo = TwoPassTriangle {
            cfg,
            pass,
            pos: 0,
            next_pos: 0,
            items_pass1,
            sampler,
            s_info,
            s_len: s_edges.len(),
            discovered,
            q,
            slab,
            free,
            monitors: SlotRefs::default(),
            activations: SlotRefs::default(),
            watcher,
            completions: Vec::new(),
            completed_buf: Vec::new(),
            counters,
        };
        for s in 0..algo.slab.len() as u32 {
            if algo.slab[s as usize].is_some() {
                if pass == 0 {
                    algo.link_monitor(s);
                } else {
                    algo.link_activations(s);
                }
            }
        }
        Ok(algo)
    }
}

/// Pass-2 completions so far of the watched pair `edge`, from the counts
/// by watcher slot.
fn completion_count(watcher: &PairWatcher, completions: &[u32], edge: u64) -> u32 {
    watcher
        .slot(edge)
        .and_then(|slot| completions.get(slot as usize))
        .map_or(0, |&count| count)
}

/// A `Q` position not yet recovered on restore.
const UNSET: u32 = u32::MAX;

/// Read a checkpoint's `u64` counter into the `u32` it is held in,
/// refusing a value that would not fit.
fn read_count(r: &mut dyn Read, what: &str) -> io::Result<u32> {
    let raw = read_u64(r)?;
    u32::try_from(raw).map_err(|_| corrupt(format!("{what} {raw} exceeds u32")))
}

/// Read past a saved reference-list section without allocating: a key,
/// then 9-byte references (a slab index, a generation word and a slot).
/// This build saves it empty, and earlier builds saved the lists in full.
fn skip_ref_map(r: &mut dyn Read) -> io::Result<()> {
    for _ in 0..read_usize(r)? {
        read_u64(r)?;
        for _ in 0..read_usize(r)? {
            r.read_exact(&mut [0; 9])?;
        }
    }
    Ok(())
}

/// Whether `watcher` holds exactly one watch per pair in `pairs`, counted
/// with repeats, and nothing else: a later `unwatch` of any of them must
/// find what it releases.
fn watches_exactly(watcher: &PairWatcher, pairs: impl Iterator<Item = u64>) -> bool {
    let mut need: FastMap<u64, u32> = FastMap::default();
    for key in pairs {
        *need.entry(key).or_default() += 1;
    }
    need.len() == watcher.watched_pairs()
        && need.iter().all(|(&key, &refs)| watcher.refs(key) == refs)
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

    /// The nodes of `key`'s list in `refs`, sorted, checking its links as
    /// it walks: the head's `prev` and the tail's `next` are `NIL`, each
    /// `prev` names the node before, and every node is a live record's.
    fn list_nodes<K: Copy + Eq + Hash>(
        refs: &SlotRefs<K>,
        slab: &[Option<PairRecord>],
        key: K,
        ctx: &str,
    ) -> Vec<u32> {
        let mut nodes = Vec::new();
        let (mut prev, mut n) = (NIL, refs.head(key));
        while n != NIL {
            assert!(
                nodes.len() < LINKS as usize * slab.len(),
                "{ctx}: a list cycles"
            );
            let rec = slab[(n / LINKS) as usize].as_ref().unwrap_or_else(|| {
                panic!("{ctx}: list names dead slab slot {}", n / LINKS);
            });
            let link = rec.links[(n % LINKS) as usize];
            assert_eq!(link.prev, prev, "{ctx}: node {n}'s prev");
            nodes.push(n);
            (prev, n) = (n, link.next);
        }
        assert_eq!(
            nodes.is_empty(),
            !refs.map.contains_key(&key),
            "{ctx}: an empty list leaves the map"
        );
        nodes.sort_unstable();
        nodes
    }

    /// Whether `key` is an edge of `S` in `a`.
    fn in_s(a: &TwoPassTriangle, key: u64) -> bool {
        a.watcher
            .slot(key)
            .and_then(|slot| a.s_info.get(slot as usize))
            .is_some_and(|info| info.sampled())
    }

    /// Assert that `a` holds only live sample state for its pass. In pass
    /// 1 every live record sits exactly once in its sampled edge's
    /// `monitors` list, `activations` is empty, and the watcher holds `S`
    /// alone; in pass 2 `monitors` is empty, every inactive slot sits
    /// exactly once in its opposite vertex's `activations` list, and the
    /// watcher holds `S` and one watch per record edge. Every list's links
    /// agree (see [`list_nodes`]); `S`'s info names `|S|` watched slots,
    /// and every record's sampled edge is one of them; `Q` is exactly the
    /// live records, each at its stored position; the completion counts
    /// are empty until pass 2; and `space_bytes` equals a recount from the
    /// maps, the slab and the counts.
    fn assert_live_state(a: &TwoPassTriangle, ctx: &str) {
        assert!(a.pass == 1 || a.completions.is_empty(), "{ctx}: counts");
        let live: Vec<(u32, &PairRecord)> = a
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i as u32, r.as_ref()?)))
            .collect();
        let rec = |s: u32| -> &PairRecord {
            a.slab[s as usize].as_ref().unwrap_or_else(|| {
                panic!("{ctx}: dead reference to slab slot {s}");
            })
        };
        let mut monitored = Vec::new();
        for &key in a.monitors.map.keys() {
            for n in list_nodes(&a.monitors, &a.slab, key, ctx) {
                let r = a.slab[(n / LINKS) as usize].as_ref().expect("checked live");
                assert_eq!(n % LINKS, MONITOR as u32, "{ctx}: a monitors node");
                assert_eq!(r.tri.slot_edge(0), key, "{ctx}");
                monitored.push(n);
            }
        }
        let mut pending = Vec::new();
        for &key in a.activations.map.keys() {
            for n in list_nodes(&a.activations, &a.slab, key, ctx) {
                let r = a.slab[(n / LINKS) as usize].as_ref().expect("checked live");
                let slot = (n % LINKS) as usize;
                assert!(!r.active[slot], "{ctx}: activation of an active slot");
                assert_eq!(r.tri.opposite(slot).0, key, "{ctx}");
                pending.push(n);
            }
        }
        monitored.sort_unstable();
        pending.sort_unstable();
        let (all, inactive): (Vec<u32>, Vec<u32>) = if a.pass == 0 {
            let all = live.iter().map(|&(s, _)| node(s, MONITOR)).collect();
            (all, Vec::new())
        } else {
            let inactive = live
                .iter()
                .flat_map(|&(s, r)| {
                    (0..3)
                        .filter(|&slot| !r.active[slot])
                        .map(move |slot| node(s, slot))
                })
                .collect();
            (Vec::new(), inactive)
        };
        assert_eq!(monitored, all, "{ctx}: each live record monitors once");
        assert_eq!(pending, inactive, "{ctx}: each inactive slot pends once");
        let s_keys: Vec<u64> = a.s_edges().map(|(key, _)| key).collect();
        assert_eq!(s_keys.len(), a.s_len, "{ctx}: |S|");
        let record_edges = live
            .iter()
            .flat_map(|&(_, r)| (0..3).map(|slot| r.tri.slot_edge(slot)))
            .filter(|_| a.pass == 1);
        assert!(
            watches_exactly(&a.watcher, s_keys.iter().copied().chain(record_edges)),
            "{ctx}: watched pairs"
        );
        for &(s, r) in &live {
            assert!(in_s(a, r.tri.slot_edge(0)), "{ctx}: record {s} outside S");
        }
        let mut q: Vec<u32> = a.q.iter().copied().collect();
        for (rank, &s) in q.iter().enumerate() {
            assert_eq!(a.q.position(rank), rec(s).q_pos as usize, "{ctx}");
        }
        q.sort_unstable();
        let want: Vec<u32> = live.iter().map(|&(i, _)| i).collect();
        assert_eq!(q, want, "{ctx}: Q must be the live records");
        let recount = vec_bytes(&a.s_info)
            + a.slab.capacity() * std::mem::size_of::<Option<PairRecord>>()
            + vec_bytes(&a.free)
            + hashmap_bytes(&a.monitors.map)
            + hashmap_bytes(&a.activations.map)
            + a.watcher.space_bytes()
            + vec_bytes(&a.completions)
            + a.q.space_bytes()
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
                assert!(in_s(a, e), "pass {pass}: orphan of {e:#x}");
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
            assert_eq!(restored.s_len, original.s_len);
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

    /// A reference-list section in the layout earlier builds saved: each
    /// key with its references, each a slab index, a generation word and a
    /// slot.
    type SavedRefs = Vec<(u64, Vec<(u32, u32, u8)>)>;

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

    /// Restore recomputes every record's position from the saved order of
    /// `Q`, rebuilds the saved pass's reference list from the slab, checks
    /// that each record's sampled edge is in `S`, and counts the watches
    /// that `S` (and, after pass 2, the records) need, so a checkpoint
    /// whose free list, records or watcher disagree is refused as
    /// `InvalidData` rather than restored into a state that later panics.
    /// A saved list section is read past, whatever references it holds.
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
        let live = base.slab.iter().position(Option::is_some).unwrap();
        let mut done = TwoPassTriangle::restore(&mut &buf[..]).unwrap();
        drive_pass_slice(&mut done, 1, &items, &mut PeakTracker::new(), &mut 0).unwrap();
        let mut after = Vec::new();
        done.save(&mut after).unwrap();
        let cases = [
            ("free", &buf, "occupied"),
            ("free twice", &buf, "twice"),
            ("outside Q", &buf, "outside Q"),
            ("sampled edge", &buf, "not in S"),
            ("sampled edge", &after, "watched pairs"),
            ("apex", &after, "watched pairs"),
        ];
        for (what, blob, message) in cases {
            let mut a = TwoPassTriangle::restore(&mut &blob[..]).unwrap();
            match what {
                "free" => a.free.push(live as u32),
                "free twice" => a.free.push(a.free[0]),
                "outside Q" => {
                    let spare = a.free[0];
                    a.slab[spare as usize] = a.slab[live].clone();
                }
                "sampled edge" => a.slab[live].as_mut().unwrap().tri.0[0].0 += 1000,
                _ => a.slab[live].as_mut().unwrap().tri.0[2].0 += 1000,
            }
            let mut bad = Vec::new();
            a.save(&mut bad).unwrap();
            let err = TwoPassTriangle::restore(&mut &bad[..])
                .err()
                .unwrap_or_else(|| panic!("{what}: must be refused"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains(message), "{what}: {err}");
        }

        // The two empty list sections end where the watcher and the
        // counters begin. Arbitrary lists there, which name dead, reused,
        // missing and misplaced records, restore to the same state.
        let mut after = Vec::new();
        base.watcher.save(&mut after).unwrap();
        base.counters.save(&mut after).unwrap();
        let end = buf.len() - after.len();
        let start = end - 16;
        assert_eq!(buf[start..end], [0; 16]);
        let monitors: SavedRefs = vec![
            (
                7,
                vec![(live as u32, 0, 0), (live as u32, 0, 0), (u32::MAX, 3, 9)],
            ),
            (u64::MAX, vec![]),
        ];
        let activations: SavedRefs = vec![(1, vec![(0, 1, 2)])];
        let mut listed = buf[..start].to_vec();
        listed.extend(encode_refs(&monitors));
        listed.extend(encode_refs(&activations));
        listed.extend(&buf[end..]);
        let restored = TwoPassTriangle::restore(&mut &listed[..]).expect("lists are read past");
        assert_live_state(&restored, "saved lists");
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let plain = TwoPassTriangle::restore(&mut &buf[..]).unwrap();
        plain.save(&mut want).unwrap();
        restored.save(&mut got).unwrap();
        assert_eq!(got, want, "saved lists leave the state as it is");
    }

    /// Earlier builds saved a generation tag beside each `Q` entry and
    /// each record, and a `free_gens` section of freed slots and their
    /// next tags. Restore reads those words and ignores them: a payload
    /// with arbitrary tags and a long `free_gens` section restores to the
    /// state of the zeroed payload and saves its bytes, and a cut section,
    /// or one that counts more entries than the payload holds, is
    /// `UnexpectedEof`.
    #[test]
    fn checkpoint_restore_ignores_generation_words() {
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

        // Offsets follow `save`: the config, pass, items, `T′` and `S`,
        // then `Q`'s parts and entries (a slab index and a generation
        // word), the slab (a tag byte, then a record's generation word,
        // vertices, `H` and flags) and the free list.
        let mut tags = (1u32..).map(|i| i.wrapping_mul(0x9E37_79B9));
        let mut tagged = buf.clone();
        let mut tag_at = |at: usize| {
            assert_eq!(tagged[at..at + 4], [0; 4], "a zero generation word");
            tagged[at..at + 4].copy_from_slice(&tags.next().unwrap().to_le_bytes());
        };
        let q_start = 25 + 4 * 8 + base.s_len * (8 + 4 + 8) + 4 * 8;
        for i in 0..base.q.len() {
            tag_at(q_start + i * 8 + 4);
        }
        let mut at = q_start + base.q.len() * 8 + 8;
        for slot in &base.slab {
            at += 1;
            if slot.is_some() {
                tag_at(at);
                at += 4 + 3 * 4 + 3 * 8 + 3;
            }
        }
        let free_gens = at + 8 + base.free.len() * 4;
        assert_eq!(tagged[free_gens..free_gens + 8], [0; 8]);
        let entries = 5000;
        let mut section = Vec::new();
        write_usize(&mut section, entries).unwrap();
        for i in 0..entries as u32 {
            write_u32(&mut section, i).unwrap();
            write_u32(&mut section, i.wrapping_mul(0x85EB_CA6B)).unwrap();
        }
        tagged.splice(free_gens..free_gens + 8, section.iter().copied());

        let (mut want, mut got) = (Vec::new(), Vec::new());
        let plain = TwoPassTriangle::restore(&mut &buf[..]).unwrap();
        plain.save(&mut want).unwrap();
        let restored = TwoPassTriangle::restore(&mut &tagged[..]).expect("tags are ignored");
        assert_live_state(&restored, "tagged");
        assert!(restored.q.iter().eq(plain.q.iter()));
        restored.save(&mut got).unwrap();
        assert_eq!(got, want, "tags leave the state as it is");

        let end = free_gens + section.len();
        for cut in [free_gens + 3, free_gens + 8 + 5, end - 1] {
            let err = TwoPassTriangle::restore(&mut &tagged[..cut])
                .err()
                .unwrap_or_else(|| panic!("a section cut at {cut} must fail"));
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        }
        let mut overlong = tagged.clone();
        overlong[free_gens..free_gens + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = TwoPassTriangle::restore(&mut &overlong[..])
            .err()
            .expect("an overlong section must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }

    mod list_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random pushes, unlinks and takes over three keys and the
            /// nine nodes of three records leave every list holding the
            /// nodes that a set under the same steps holds, with links
            /// that agree (see [`list_nodes`]), after every step. Lists
            /// often hold two nodes of one record, as a self-loop makes
            /// them do.
            #[test]
            fn lists_hold_their_node_sets(
                ops in prop::collection::vec((0u8..5, 0u32..3, 0u32..9, any::<u8>()), 0..200)
            ) {
                let record = PairRecord {
                    tri: TriangleSlots([VertexId(0); 3]),
                    h: [0; 3],
                    active: [false; 3],
                    q_pos: 0,
                    links: UNLINKED,
                };
                let mut slab = vec![Some(record); 3];
                let mut refs: SlotRefs<u32> = SlotRefs::default();
                let mut model: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); 3];
                for (step, &(op, key, n, pick)) in ops.iter().enumerate() {
                    let listed = model.iter().any(|l| l.contains(&n));
                    let list = &mut model[key as usize];
                    match op {
                        0 | 1 if !listed => {
                            refs.push(&mut slab, key, n);
                            list.insert(n);
                        }
                        2 | 3 if !list.is_empty() => {
                            let victim = *list.iter().nth(usize::from(pick) % list.len()).unwrap();
                            refs.unlink(&mut slab, key, victim);
                            list.remove(&victim);
                        }
                        4 => {
                            let mut taken: Vec<u32> = walk(&slab, refs.take(key)).collect();
                            taken.sort_unstable();
                            let want: Vec<u32> = std::mem::take(list).into_iter().collect();
                            prop_assert_eq!(taken, want, "step {}: take", step);
                        }
                        _ => {}
                    }
                    for k in 0..3 {
                        let ctx = format!("step {step} key {k}");
                        let want: Vec<u32> = model[k as usize].iter().copied().collect();
                        prop_assert_eq!(list_nodes(&refs, &slab, k, &ctx), want);
                    }
                }
            }
        }
    }

    mod h_walk {
        use super::*;
        use adjstream_stream::meter::PeakTracker;
        use adjstream_stream::runner::drive_pass_slice;
        use adjstream_stream::AdjListStream;
        use proptest::prelude::*;

        /// The `H` walk that the completion counts replaced, kept as the
        /// reference: every pass-2 completion of an edge raises `H` at
        /// each active slot of a live record whose slot edge it is. Records
        /// are named by their pair's triangle slots, which no two records
        /// share on a stream that keeps the promise (each `(e, τ)` is
        /// discovered once).
        #[derive(Default)]
        struct WalkedH(FastMap<[VertexId; 3], [u32; 3]>);

        impl WalkedH {
            fn bump(&mut self, a: &TwoPassTriangle, key: u64) {
                for rec in a.slab.iter().flatten() {
                    for slot in 0..3 {
                        if rec.active[slot] && rec.tri.slot_edge(slot) == key {
                            self.0.entry(rec.tri.0).or_default()[slot] += 1;
                        }
                    }
                }
            }

            fn h(&self, rec: &PairRecord) -> [u64; 3] {
                let h = self.0.get(&rec.tri.0).copied().unwrap_or_default();
                h.map(u64::from)
            }
        }

        /// Each live record's `H` in `a` against the walk's, by slab slot.
        fn assert_h(a: &TwoPassTriangle, walked: &WalkedH, ctx: &str) {
            for (s, rec) in a.slab.iter().enumerate() {
                let Some(rec) = rec else { continue };
                let want = walked.h(rec);
                prop_assert_eq!(a.h_values(rec), want, "{}: record {}", ctx, s);
            }
        }

        /// Run pass `pass` of `a` as `feed_slice` does, item by item, and
        /// walk each pass-2 completion right after `on_completion`, where
        /// the walk used to run; compare every record's `H` after each
        /// list.
        fn walk_pass(
            a: &mut TwoPassTriangle,
            pass: usize,
            items: &[StreamItem],
            walked: &mut WalkedH,
        ) {
            a.begin_pass(pass);
            for list in items.chunk_by(|x, y| x.src == y.src) {
                let owner = list[0].src;
                a.begin_list(owner);
                for it in list {
                    if pass == 0 {
                        a.items_pass1 += 1;
                        a.sample_edge(it.src, it.dst);
                    }
                    let mut buf = Vec::new();
                    a.watcher.on_item(it.dst, |k, slot| buf.push((k, slot)));
                    for (key, slot) in buf {
                        a.on_completion(key, slot, owner);
                        if pass == 1 {
                            walked.bump(a, key);
                        }
                    }
                }
                a.end_list(owner);
                assert_h(a, walked, &format!("pass {pass} after list {}", owner.0));
            }
            a.end_pass(pass);
        }

        /// The estimate the walked `H` gives for the run in `a`.
        fn walked_estimate(a: &TwoPassTriangle, walked: &WalkedH) -> TriangleEstimate {
            let counted =
                a.q.iter()
                    .filter(|&&s| {
                        let rec = a.slab[s as usize].as_ref().expect("Q holds live records");
                        rec.tri.lightest_slot(walked.h(rec)) == 0
                    })
                    .count() as u64;
            TriangleEstimate::assemble(
                a.cfg.edge_sampling,
                a.items_pass1 / 2,
                a.s_len,
                a.discovered,
                a.q.len(),
                counted,
            )
        }

        fn roundtrip(a: &TwoPassTriangle) -> TwoPassTriangle {
            let mut blob = Vec::new();
            a.save(&mut blob).expect("save");
            TwoPassTriangle::restore(&mut &blob[..]).expect("restore")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// On random graphs with planted cliques and a heavy-edge book,
            /// under both samplers and a `Q` small enough that pass-2
            /// discoveries replace its entries, the completion counts give
            /// every live record the walk's `H` after every list, and the
            /// estimate the walk gives. The shipped `feed_slice` run,
            /// resumed at the pass boundary in some cases, ends with the
            /// same records and `H`; so does its save after pass 2, once
            /// restored.
            #[test]
            fn h_counters_match_the_walk(
                (seed, n, m) in (any::<u64>(), 24usize..56, 60usize..260),
                (bottom_k, pair_capacity, resume) in (any::<bool>(), 12usize..32, any::<bool>()),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = gen::gnm(n, m, &mut rng)
                    .disjoint_union(&gen::disjoint_cliques(4, 9))
                    .disjoint_union(&gen::book(12));
                let order = StreamOrder::shuffled(g.vertex_count(), seed);
                let items = AdjListStream::new(&g, order).collect_items();
                let edge_sampling = if bottom_k {
                    EdgeSampling::BottomK { k: m / 3 }
                } else {
                    EdgeSampling::Threshold { p: 0.5 }
                };
                let cfg = TwoPassTriangleConfig { seed, edge_sampling, pair_capacity };

                let mut walked = WalkedH::default();
                let mut reference = TwoPassTriangle::new(cfg);
                walk_pass(&mut reference, 0, &items, &mut walked);
                let replaced = reference.counters.pairs_replaced;
                walk_pass(&mut reference, 1, &items, &mut walked);
                prop_assert!(
                    reference.counters.pairs_replaced > replaced,
                    "pass 2 must replace Q entries"
                );
                let want = walked_estimate(&reference, &walked);

                let mut shipped = TwoPassTriangle::new(cfg);
                let (peak, processed) = (&mut PeakTracker::new(), &mut 0);
                drive_pass_slice(&mut shipped, 0, &items, peak, processed).expect("pass 0");
                if resume {
                    shipped = roundtrip(&shipped);
                }
                drive_pass_slice(&mut shipped, 1, &items, peak, processed).expect("pass 1");
                let after = roundtrip(&shipped);
                for a in [&shipped, &after] {
                    prop_assert_eq!(a.slab.len(), reference.slab.len());
                    assert_h(a, &walked, "end");
                }
                for got in [reference.finish(), shipped.finish(), after.finish()] {
                    prop_assert_eq!(got.counted, want.counted);
                    prop_assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
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
        let q_start = s_start + algo.s_len * (8 + 4 + 8);
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
