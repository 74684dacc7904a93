//! The shared core of the Section 3 triangle estimator (Theorem 3.7).
//!
//! Every variant runs the same estimator: sample an edge set `S`, discover
//! the `(e, τ)` pairs with `e ∈ S`, keep a subsample `Q` of them, credit
//! `τ` only at its lightest edge — the argmin of `(weight, edge key)` over
//! its three edges — and return `k · (T′/|Q|) · counted`, with `T′` the
//! discovered-pair count and `k` the inverse edge-sampling rate. This
//! module owns those shared pieces:
//!
//! * [`EdgeSampler`] draws `S` (threshold or bottom-k) and reports each
//!   offer as an [`Offer`] the caller acts on and counts;
//! * [`TriangleSlots`] names a pair's three edges and applies the
//!   lightest-edge rule to any per-slot weights;
//! * [`TriangleEstimate::assemble`] is the estimate formula;
//! * [`save_config`] / [`restore_config`] are the checkpoint codec of the
//!   sampling configuration.
//!
//! The variants keep only what is their own: the pass schedule and the
//! weight each uses for lightness (`H` in the two-pass reservoir slab and
//! the sharded bottom-k `Q`, the exact `T(f)` in the three-pass form).

use std::io::{self, Read, Write};

use adjstream_graph::VertexId;
use adjstream_stream::checkpoint::{
    corrupt, read_f64, read_u64, read_u8, read_usize, write_f64, write_u64, write_u8, write_usize,
};
use adjstream_stream::meter::SpaceUsage;
use adjstream_stream::obs::ObsCounters;
use adjstream_stream::sampling::{BottomKEvent, BottomKHeap, ThresholdSampler};

use crate::common::{pack_pair, unpack_pair, EdgeSampling, PairWatcher};

/// Result of one Section 3 triangle estimator run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangleEstimate {
    /// The triangle count estimate `T̂`.
    pub estimate: f64,
    /// Edges in the final sample `S`.
    pub edges_sampled: usize,
    /// Discovered `(edge, triangle)` pairs `T′` (valid at end of run).
    pub pairs_discovered: u64,
    /// Pairs retained in `Q`.
    pub q_size: usize,
    /// Pairs whose sampled edge won the lightest-edge rule.
    pub counted: u64,
    /// Edge count `m` observed in the sampling pass.
    pub m: u64,
    /// The estimate a *naive* sampler (no lightest-edge rule) would return
    /// from the same run: `k·T′/3`, which counts each triangle once per
    /// sampled edge. Exposed for ablation A1 — on heavy-edge graphs its
    /// variance explodes while `estimate` stays controlled.
    pub naive_estimate: f64,
}

impl TriangleEstimate {
    /// The Theorem 3.7 estimate `k · (T′/|Q|) · counted` of a run that
    /// sampled `edges_sampled` of `m` edges under `sampling`.
    pub(crate) fn assemble(
        sampling: EdgeSampling,
        m: u64,
        edges_sampled: usize,
        pairs_discovered: u64,
        q_size: usize,
        counted: u64,
    ) -> Self {
        let k = inverse_rate(sampling, m, edges_sampled);
        let subsample_scale = if q_size == 0 {
            0.0
        } else {
            pairs_discovered as f64 / q_size as f64
        };
        TriangleEstimate {
            estimate: k * subsample_scale * counted as f64,
            edges_sampled,
            pairs_discovered,
            q_size,
            counted,
            m,
            naive_estimate: k * pairs_discovered as f64 / 3.0,
        }
    }
}

/// The inverse edge-sampling rate `k`: `1/p` for threshold sampling, and
/// `m/|S|` (at least 1) for a bottom-k sample of `|S|` edges.
fn inverse_rate(sampling: EdgeSampling, m: u64, s_len: usize) -> f64 {
    match sampling {
        EdgeSampling::Threshold { p } if p > 0.0 => 1.0 / p,
        EdgeSampling::BottomK { .. } if s_len > 0 => (m as f64 / s_len as f64).max(1.0),
        _ => 0.0,
    }
}

/// What offering one edge key to an [`EdgeSampler`] did to `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// The key entered `S`.
    New,
    /// The key entered a full bottom-k `S`, evicting the returned key.
    NewEvicting(u64),
    /// The key was already in `S`.
    Present,
    /// The key was not admitted.
    Rejected,
}

impl Offer {
    /// Tally this offer into the sampler lifecycle counters.
    pub(crate) fn count(self, counters: &mut ObsCounters) {
        match self {
            Offer::New => counters.admissions += 1,
            Offer::NewEvicting(_) => {
                counters.admissions += 1;
                counters.evictions += 1;
            }
            Offer::Present => {}
            Offer::Rejected => counters.rejections += 1,
        }
    }
}

/// The edge sampler drawing `S` (DESIGN.md §2).
pub(crate) enum EdgeSampler {
    /// Stateless hash threshold: membership is a pure function of the key.
    Threshold(ThresholdSampler),
    /// The `k` smallest-hashed keys offered so far, as a heap: the caller
    /// keeps `S`'s membership.
    BottomK(BottomKHeap),
    /// A sampler whose `S` is final: its membership state is dropped and
    /// only whether it was saturated is kept (see [`EdgeSampler::close`]).
    Closed {
        /// [`EdgeSampler::is_saturated`] when the sampler closed.
        saturated: bool,
    },
}

impl EdgeSampler {
    /// A fresh sampler for `sampling`.
    pub(crate) fn new(seed: u64, sampling: EdgeSampling) -> Self {
        match sampling {
            EdgeSampling::Threshold { p } => EdgeSampler::Threshold(ThresholdSampler::new(seed, p)),
            EdgeSampling::BottomK { k } => EdgeSampler::BottomK(BottomKHeap::new(seed, k)),
        }
    }

    /// Rebuild the sampler of a run restored after pass `pass` from its
    /// saved `S`, whose keys are distinct. Bottom-k membership is a pure
    /// function of the seeded hash, so re-offering the keys in any order
    /// reproduces it; the threshold sampler is stateless. The heap holds
    /// only the saved keys, so a corrupt `k` reserves nothing. Past pass 0
    /// `S` is final and the sampler comes back closed.
    pub(crate) fn rebuild(
        seed: u64,
        sampling: EdgeSampling,
        pass: usize,
        keys: impl ExactSizeIterator<Item = u64>,
    ) -> io::Result<Self> {
        let mut sampler = match sampling {
            EdgeSampling::Threshold { p } => EdgeSampler::Threshold(ThresholdSampler::new(seed, p)),
            EdgeSampling::BottomK { k } if keys.len() > k => {
                return Err(corrupt("more sampled edges than the bottom-k capacity"));
            }
            EdgeSampling::BottomK { k } => {
                EdgeSampler::BottomK(BottomKHeap::from_keys(seed, k, keys))
            }
        };
        if pass > 0 {
            sampler.close();
        }
        Ok(sampler)
    }

    /// Offer `key`. Neither sampler keeps `S`'s membership, so `in_s` asks
    /// the caller whether a key that passes the sampler's hash test is
    /// already in `S`; the caller applies the returned [`Offer`] to `S`.
    pub(crate) fn offer(&mut self, key: u64, in_s: impl FnOnce(&u64) -> bool) -> Offer {
        match self {
            EdgeSampler::Threshold(t) if !t.accepts(key) => Offer::Rejected,
            EdgeSampler::Threshold(_) => {
                if in_s(&key) {
                    Offer::Present
                } else {
                    Offer::New
                }
            }
            EdgeSampler::BottomK(b) => match b.offer(key, in_s) {
                BottomKEvent::Inserted => Offer::New,
                BottomKEvent::InsertedEvicting(old) => Offer::NewEvicting(old),
                BottomKEvent::AlreadyPresent => Offer::Present,
                BottomKEvent::Rejected => Offer::Rejected,
            },
            EdgeSampler::Closed { .. } => panic!("offer to a closed edge sampler"),
        }
    }

    /// Drop the sampler's state once `S` is final, keeping only whether
    /// it is saturated. A closed sampler takes no more offers.
    pub(crate) fn close(&mut self) {
        let saturated = self.is_saturated();
        *self = EdgeSampler::Closed { saturated };
    }

    /// Metered bytes: a flat 32 for the stateless threshold sampler, and
    /// none for a closed one.
    pub(crate) fn space_bytes(&self) -> usize {
        match self {
            EdgeSampler::Threshold(_) => 32,
            EdgeSampler::BottomK(b) => b.space_bytes(),
            EdgeSampler::Closed { .. } => 0,
        }
    }

    /// Whether a bottom-k sample is frozen at its capacity.
    pub(crate) fn is_saturated(&self) -> bool {
        match self {
            EdgeSampler::BottomK(b) => b.capacity() > 0 && b.len() == b.capacity(),
            EdgeSampler::Threshold(_) => false,
            &EdgeSampler::Closed { saturated } => saturated,
        }
    }
}

/// Publish a variant's counters: its own tallies plus the watcher's, with
/// one freeze for each saturated bounded structure (the edge sample and,
/// per `q_full`, the pair subsample) at publication time.
pub(crate) fn published_counters(
    mut counters: ObsCounters,
    watcher: &PairWatcher,
    sampler: &EdgeSampler,
    q_full: bool,
) -> ObsCounters {
    counters.merge(&watcher.obs_counters());
    counters.freezes += u64::from(sampler.is_saturated()) + u64::from(q_full);
    counters
}

/// The triangle of one discovered `(e, τ)` pair: vertices `[u, v, w]` with
/// the sampled edge `e = {u, v}` in slot 0 and the apex `w`. Slot `s`
/// covers the edge `[{u,v}, {u,w}, {v,w}][s]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TriangleSlots(pub(crate) [VertexId; 3]);

impl TriangleSlots {
    /// The pair of sampled edge `e_key` and apex `w`.
    pub(crate) fn new(e_key: u64, w: VertexId) -> Self {
        let (u, v) = unpack_pair(e_key);
        TriangleSlots([u, v, w])
    }

    /// The slot's edge as a packed canonical pair.
    pub(crate) fn slot_edge(&self, slot: usize) -> u64 {
        let [u, v, w] = self.0;
        match slot {
            0 => pack_pair(u, v),
            1 => pack_pair(u, w),
            _ => pack_pair(v, w),
        }
    }

    /// The vertex opposite the slot's edge (`τ^{-f}`).
    pub(crate) fn opposite(&self, slot: usize) -> VertexId {
        let [u, v, w] = self.0;
        match slot {
            0 => w,
            1 => v,
            _ => u,
        }
    }

    /// Slot of `ρ(τ)`, the lightest edge: the argmin over
    /// `(weights[slot], edge key)`. The edge-key tiebreak depends only on
    /// the triangle, so every pair of one triangle agrees on `ρ(τ)` as the
    /// paper requires; the pair counts iff this is slot 0.
    pub(crate) fn lightest_slot(&self, weights: [u64; 3]) -> usize {
        (0..3)
            .min_by_key(|&s| (weights[s], self.slot_edge(s)))
            .expect("three slots")
    }
}

/// Save a Section 3 configuration: seed, sampling mode, pair capacity.
pub(crate) fn save_config(
    w: &mut dyn Write,
    seed: u64,
    sampling: EdgeSampling,
    pair_capacity: usize,
) -> io::Result<()> {
    write_u64(w, seed)?;
    match sampling {
        EdgeSampling::Threshold { p } => {
            write_u8(w, 0)?;
            write_f64(w, p)?;
        }
        EdgeSampling::BottomK { k } => {
            write_u8(w, 1)?;
            write_usize(w, k)?;
        }
    }
    write_usize(w, pair_capacity)
}

/// Inverse of [`save_config`].
pub(crate) fn restore_config(r: &mut dyn Read) -> io::Result<(u64, EdgeSampling, usize)> {
    let seed = read_u64(r)?;
    let sampling = match read_u8(r)? {
        0 => EdgeSampling::Threshold { p: read_f64(r)? },
        1 => EdgeSampling::BottomK { k: read_usize(r)? },
        other => return Err(corrupt(format!("unknown edge-sampling tag {other}"))),
    };
    Ok((seed, sampling, read_usize(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangle::{
        ShardedTriangle, ShardedTriangleConfig, TwoPassTriangle, TwoPassTriangleConfig,
    };
    use adjstream_graph::gen;
    use adjstream_stream::checkpoint::Checkpoint;
    use adjstream_stream::meter::PeakTracker;
    use adjstream_stream::runner::{drive_pass_slice, MultiPassAlgorithm};
    use adjstream_stream::{AdjListStream, StreamOrder};

    const SEED: u64 = 3;
    const PAIR_CAPACITY: usize = 8;
    const K: usize = 16;

    /// The rejection each checkpointed variant's restore returns, if any.
    type Restore = fn(&[u8]) -> Option<io::Error>;
    const RESTORES: [Restore; 2] = [
        |blob| TwoPassTriangle::restore(&mut &blob[..]).err(),
        |blob| ShardedTriangle::restore(&mut &blob[..]).err(),
    ];

    /// A pass-0 boundary checkpoint over `K_12` (66 edges), so a bottom-k
    /// sample of `K` edges is full.
    fn boundary_blob<A: MultiPassAlgorithm + Checkpoint>(mut algo: A) -> Vec<u8> {
        let g = gen::complete(12);
        let items = AdjListStream::new(&g, StreamOrder::natural(12)).collect_items();
        drive_pass_slice(&mut algo, 0, &items, &mut PeakTracker::new(), &mut 0).expect("pass 0");
        let mut blob = Vec::new();
        algo.save(&mut blob).expect("save");
        blob
    }

    mod bottom_k {
        use super::*;
        use adjstream_stream::hashing::FastSet;
        use adjstream_stream::sampling::{BottomKEvent, BottomKSampler};
        use proptest::prelude::*;

        /// Keys from a small universe, so most offers repeat a key.
        fn keys() -> impl Strategy<Value = Vec<u64>> {
            prop::collection::vec(0u64..48, 0..160)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The heap sampler with `S` kept by the caller makes the
            /// offers of the sampler with its own member map, also after
            /// a rebuild from `S` part-way through the keys.
            #[test]
            fn heap_with_a_caller_set_offers_as_the_bottom_k_sampler(
                keys in keys(),
                seed in any::<u64>(),
                pick in 0usize..4,
                split in 0usize..160,
            ) {
                let distinct = keys.iter().collect::<FastSet<_>>().len();
                let k = [0, 1, 5, distinct + 1][pick];
                let sampling = EdgeSampling::BottomK { k };
                let mut sampler = EdgeSampler::new(seed, sampling);
                let mut s: FastSet<u64> = FastSet::default();
                let mut model = BottomKSampler::new(seed, k);
                for (i, &key) in keys.iter().enumerate() {
                    if i == split {
                        sampler = EdgeSampler::rebuild(seed, sampling, 0, s.iter().copied())
                            .expect("S fits the capacity");
                    }
                    let got = sampler.offer(key, |k| s.contains(k));
                    match got {
                        Offer::New => {
                            s.insert(key);
                        }
                        Offer::NewEvicting(old) => {
                            s.insert(key);
                            s.remove(&old);
                        }
                        Offer::Present | Offer::Rejected => {}
                    }
                    let want = match model.offer(key) {
                        BottomKEvent::Inserted => Offer::New,
                        BottomKEvent::InsertedEvicting(old) => Offer::NewEvicting(old),
                        BottomKEvent::AlreadyPresent => Offer::Present,
                        BottomKEvent::Rejected => Offer::Rejected,
                    };
                    prop_assert_eq!(got, want, "k {} offer {} key {}", k, i, key);
                    prop_assert_eq!(s.len(), model.len());
                }
                let mut members: Vec<u64> = model.keys().collect();
                let mut got: Vec<u64> = s.into_iter().collect();
                members.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, members);
                prop_assert_eq!(sampler.is_saturated(), k > 0 && model.len() == k);
            }
        }
    }

    #[test]
    fn restore_rejects_an_unknown_sampling_tag() {
        let mut blob = Vec::new();
        write_u64(&mut blob, SEED).unwrap();
        write_u8(&mut blob, 7).unwrap();
        for restore in RESTORES {
            let err = restore(&blob).expect("bad tag must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("edge-sampling tag 7"), "{err}");
        }
    }

    #[test]
    fn restore_rejects_more_sampled_edges_than_the_bottom_k_capacity() {
        let edge_sampling = EdgeSampling::BottomK { k: K };
        let blobs = [
            boundary_blob(TwoPassTriangle::new(TwoPassTriangleConfig {
                seed: SEED,
                edge_sampling,
                pair_capacity: PAIR_CAPACITY,
            })),
            boundary_blob(ShardedTriangle::new(ShardedTriangleConfig {
                seed: SEED,
                edge_sampling,
                pair_capacity: PAIR_CAPACITY,
            })),
        ];
        // The same configuration saved with one slot fewer: a fixed-width
        // prefix of every checkpoint.
        let mut shrunk = Vec::new();
        save_config(
            &mut shrunk,
            SEED,
            EdgeSampling::BottomK { k: K - 1 },
            PAIR_CAPACITY,
        )
        .unwrap();
        for (mut blob, restore) in blobs.into_iter().zip(RESTORES) {
            assert!(restore(&blob).is_none(), "the saved checkpoint restores");
            blob[..shrunk.len()].copy_from_slice(&shrunk);
            let err = restore(&blob).expect("an overfull sample must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains("more sampled edges than the bottom-k capacity"),
                "{err}"
            );
        }
    }
}
