//! Pass-optimal unknown-`T` triangle estimation: all guess levels in one
//! two-pass execution.
//!
//! A level-by-level guess-and-verify search pays two passes per level;
//! [`crate::estimate::estimate_triangles_auto`] instead folds every level's
//! repetitions into one shared execution via
//! [`adjstream_stream::batch::BatchJob`]. This algorithm is the
//! *single-instance* counterpart of that idea: it runs
//! every level **in parallel inside a single two-pass execution**: level
//! `i` is a full [`TwoPassTriangle`] instance with budget
//! `m₀·2^i`, all fed the same items. At finish, the coarsest (cheapest)
//! level whose estimate is consistent with its own budget's `T`-guess wins.
//! Space is the *sum* of the level budgets — dominated by the finest level,
//! i.e. a constant factor over the right budget had `T` been known — which
//! is the classic trade of passes for a `log` factor in space.

use adjstream_graph::VertexId;
use adjstream_stream::meter::SpaceUsage;
use adjstream_stream::obs::ObsCounters;
use adjstream_stream::runner::MultiPassAlgorithm;

use crate::common::EdgeSampling;
use crate::triangle::{TriangleEstimate, TwoPassTriangle, TwoPassTriangleConfig};

/// Result of a [`MultiLevelTriangle`] run.
#[derive(Debug, Clone)]
pub struct MultiLevelEstimate {
    /// The accepted estimate.
    pub estimate: f64,
    /// Index of the accepted level (0 = coarsest).
    pub accepted_level: usize,
    /// Per-level estimates, coarsest first.
    pub levels: Vec<TriangleEstimate>,
}

/// All-levels-at-once unknown-`T` triangle counter. See module docs.
pub struct MultiLevelTriangle {
    levels: Vec<TwoPassTriangle>,
    budgets: Vec<usize>,
}

impl MultiLevelTriangle {
    /// Build with `levels` parallel instances at budgets
    /// `base_budget · 2^i` for `i` in `0..levels`.
    pub fn new(seed: u64, base_budget: usize, levels: usize) -> Self {
        assert!(levels >= 1, "need at least one level");
        assert!(base_budget >= 1);
        let mut instances = Vec::with_capacity(levels);
        let mut budgets = Vec::with_capacity(levels);
        for i in 0..levels {
            let budget = base_budget.saturating_mul(1 << i);
            budgets.push(budget);
            instances.push(TwoPassTriangle::new(TwoPassTriangleConfig {
                seed: seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                edge_sampling: EdgeSampling::BottomK { k: budget },
                pair_capacity: budget,
            }));
        }
        MultiLevelTriangle {
            levels: instances,
            budgets,
        }
    }

    /// The per-level budgets.
    pub fn budgets(&self) -> &[usize] {
        &self.budgets
    }
}

impl SpaceUsage for MultiLevelTriangle {
    fn space_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.space_bytes()).sum()
    }
}

impl MultiPassAlgorithm for MultiLevelTriangle {
    type Output = MultiLevelEstimate;

    fn passes(&self) -> usize {
        2
    }

    fn requires_same_order(&self) -> bool {
        true
    }

    fn begin_pass(&mut self, pass: usize) {
        for l in &mut self.levels {
            l.begin_pass(pass);
        }
    }

    fn begin_list(&mut self, owner: VertexId) {
        for l in &mut self.levels {
            l.begin_list(owner);
        }
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        for l in &mut self.levels {
            l.item(src, dst);
        }
    }

    /// Forward whole runs so each level's native slice path engages.
    fn feed_slice(&mut self, items: &[adjstream_stream::item::StreamItem]) {
        for l in &mut self.levels {
            l.feed_slice(items);
        }
    }

    fn end_list(&mut self, owner: VertexId) {
        for l in &mut self.levels {
            l.end_list(owner);
        }
    }

    fn end_pass(&mut self, pass: usize) {
        for l in &mut self.levels {
            l.end_pass(pass);
        }
    }

    fn obs_counters(&self) -> Option<ObsCounters> {
        let mut c = ObsCounters::default();
        for l in &self.levels {
            if let Some(lc) = l.obs_counters() {
                c.merge(&lc);
            }
        }
        Some(c)
    }

    fn finish(self) -> MultiLevelEstimate {
        let results: Vec<TriangleEstimate> = self.levels.into_iter().map(|l| l.finish()).collect();
        // A level with budget b is trustworthy for T ≳ (c·m/b)^{3/2}
        // (inverting b = c·m/T^{2/3}, with c = 8 for a comfortable
        // constant). Accept the coarsest level whose estimate meets its own
        // trust floor; fall back to the finest.
        let m = results.first().map(|r| r.m).unwrap_or(0) as f64;
        let mut accepted = results.len() - 1;
        for (i, (r, &b)) in results.iter().zip(&self.budgets).enumerate() {
            let trust_floor = if b as f64 >= m {
                0.0
            } else {
                (8.0 * m / b as f64).powf(1.5)
            };
            if r.estimate >= trust_floor {
                accepted = i;
                break;
            }
        }
        MultiLevelEstimate {
            estimate: results[accepted].estimate,
            accepted_level: accepted,
            levels: results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::{exact, gen};
    use adjstream_stream::{PassOrders, Runner, StreamOrder};

    #[test]
    fn budgets_are_geometric() {
        let a = MultiLevelTriangle::new(1, 10, 4);
        assert_eq!(a.budgets(), &[10, 20, 40, 80]);
    }

    #[test]
    fn two_passes_suffice_for_unknown_t() {
        // T = 240 on m = 180; no T is supplied anywhere.
        let g = gen::disjoint_cliques(6, 12);
        let n = g.vertex_count();
        let mut good = 0;
        for seed in 0..15u64 {
            let levels = 6;
            let algo = MultiLevelTriangle::new(seed, 8, levels);
            let (est, report) =
                Runner::run(&g, algo, &PassOrders::Same(StreamOrder::shuffled(n, seed)));
            assert_eq!(report.passes, 2);
            if (est.estimate - 240.0).abs() < 120.0 {
                good += 1;
            }
        }
        assert!(good >= 11, "only {good}/15 within 50%");
    }

    #[test]
    fn triangle_free_accepts_the_finest_level_at_zero() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::bipartite_gnm(25, 25, 200, &mut rng);
        let algo = MultiLevelTriangle::new(2, 8, 6);
        let (est, _) = Runner::run(&g, algo, &PassOrders::Same(StreamOrder::shuffled(50, 1)));
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.accepted_level, est.levels.len() - 1);
    }

    #[test]
    fn space_is_dominated_by_the_finest_level() {
        let g = gen::disjoint_cliques(5, 30);
        let n = g.vertex_count();
        let run = |levels: usize| {
            let algo = MultiLevelTriangle::new(4, 16, levels);
            let (_, r) = Runner::run(&g, algo, &PassOrders::Same(StreamOrder::natural(n)));
            r.peak_state_bytes
        };
        let shallow = run(2);
        let deep = run(5); // finest budget 8× larger
        assert!(shallow < deep, "{shallow} vs {deep}");
        let _ = exact::count_triangles(&g);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_rejected() {
        MultiLevelTriangle::new(1, 8, 0);
    }
}
