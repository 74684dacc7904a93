//! Streaming cycle-counting algorithms from *The Complexity of Counting
//! Cycles in the Adjacency List Streaming Model* (Kallaugher, McGregor,
//! Price, Vorotnikova; PODS 2019).
//!
//! The paper's two new upper bounds:
//!
//! * [`triangle::TwoPassTriangle`] — Section 3's `(1±ε)` triangle counter,
//!   `Õ(m/T^{2/3})` space, two same-order passes (Theorem 3.7),
//! * [`fourcycle::TwoPassFourCycle`] — Section 4's `O(1)`-approximation 4-cycle
//!   counter, `Õ(m/T^{3/8})` space, two passes (Theorem 4.6),
//!
//! and the baselines they are measured against in Table 1:
//!
//! * [`triangle::OnePassTriangle`] — the `Õ(m/√T)` single-pass estimator in
//!   the style of McGregor–Vorotnikova–Vu \[27\],
//! * [`triangle::ThreePassTriangle`] — the pedagogical three-pass
//!   exact-lightest-edge algorithm of Section 2.1,
//! * [`triangle::TriangleDistinguisher`] — \[27\]'s two-pass
//!   `Õ(m/T^{2/3})` 0-vs-`T` distinguisher,
//! * [`triangle::WedgeSamplerTriangle`] — a one-pass wedge-sampling
//!   estimator (the `Õ(P₂/T)` row, Buriol et al. \[12\] adapted to
//!   adjacency-list order),
//! * [`triangle::ShardedTriangle`] — a shard-mergeable three-pass variant
//!   of Theorem 3.7 whose per-pass state composes across graph shards
//!   ([`adjstream_stream::shard::run_sharded_hooked`]), bit-identical to its own
//!   sequential run at any shard count,
//! * [`exact_stream`] — trivial `O(m)`-space exact counters (the "store the
//!   graph" row every sublinear bound is measured against).
//!
//! All algorithms implement
//! [`adjstream_stream::runner::MultiPassAlgorithm`]; drive them with
//! [`adjstream_stream::Runner`]. The [`amplify`] helpers run the
//! `Θ(log 1/δ)` median repetitions from Theorems 3.7/4.6.

#![warn(missing_docs)]

pub mod amplify;
pub mod common;
pub mod dynamic;
pub mod estimate;
pub mod exact_stream;
pub mod fourcycle;
pub mod sampled_subgraph;
pub mod transitivity;
pub mod triangle;

pub use common::{EdgeSampling, PairWatcher};
