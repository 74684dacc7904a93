//! Samplers realizing the paper's "keep a uniform size-m′ subset" steps.
//!
//! Two realizations of edge sampling are provided (see DESIGN.md §2):
//!
//! * [`ThresholdSampler`] — Bernoulli/hash-threshold sampling: an edge is in
//!   `S` iff its hash falls below a threshold. Membership is a pure function
//!   of the key, so both stream appearances of an edge agree, nothing is
//!   ever evicted, and downstream reservoirs stay exactly uniform.
//! * [`BottomKSampler`] — fixed-size bottom-k hashing: `S` is the `k` keys
//!   with the smallest hashes. This matches the negative-association
//!   analysis in the paper (fixed |S|) at the cost of evictions mid-stream.
//!   Its decision rule is [`BottomKHeap`], which a caller that already
//!   keeps `S` uses directly, without a second membership map.
//!
//! [`Reservoir`] sub-samples discovered items (the paper's `Q`).

mod bottomk;
mod reservoir;
mod threshold;

pub use bottomk::{BottomKEvent, BottomKHeap, BottomKSampler};
pub use reservoir::{Reservoir, ReservoirEvent};
pub use threshold::ThresholdSampler;
