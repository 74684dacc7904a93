//! Vertex relabelling shared by the promise-checker tests.

use std::collections::HashMap;

use adjstream::graph::VertexId;
use adjstream::stream::StreamItem;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Relabel every vertex id through a seeded injective map into the full
/// `u32` range, 0 and `u32::MAX` included, so that canonical edge-key
/// order differs from both id order and stream position order.
pub fn relabel_ids(items: &[StreamItem], seed: u64) -> Vec<StreamItem> {
    let mut ids: Vec<u32> = items.iter().flat_map(|it| [it.src.0, it.dst.0]).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut targets = vec![0, u32::MAX];
    while targets.len() < ids.len() {
        let t = rng.random::<u32>();
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    targets.truncate(ids.len());
    targets.shuffle(&mut rng);
    let map: HashMap<u32, u32> = ids.into_iter().zip(targets).collect();
    items
        .iter()
        .map(|it| StreamItem::new(VertexId(map[&it.src.0]), VertexId(map[&it.dst.0])))
        .collect()
}
