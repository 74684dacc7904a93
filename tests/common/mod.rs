//! The reference path the integration tests hold the estimation drivers
//! to: one `Runner::try_run` per repetition seed, summarized with
//! `median_of_survivors`.

use adjstream::algo::common::EdgeSampling;
use adjstream::algo::estimate::{triangle_budget, Accuracy};
use adjstream::algo::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream::graph::Graph;
use adjstream::stream::estimator::repetitions_for_confidence;
use adjstream::stream::{PassOrders, Runner, StreamOrder};

/// Repetition `i` of a triangle estimate under `acc` with lower bound
/// `t_lower`: the `Runner::try_run` of the two-pass instance seeded
/// `acc.seed + i`, quarantined (`None`) when its peak state breaks
/// `acc.budget.max_bytes_per_instance`.
pub fn per_seed_triangle_runs(
    g: &Graph,
    order: &StreamOrder,
    t_lower: u64,
    acc: &Accuracy,
) -> Vec<Option<f64>> {
    let budget = triangle_budget(g.edge_count(), t_lower, acc.epsilon);
    let orders = PassOrders::Same(order.clone());
    (0..repetitions_for_confidence(acc.delta))
        .map(|i| {
            let algo = TwoPassTriangle::new(TwoPassTriangleConfig {
                seed: acc.seed.wrapping_add(i as u64),
                edge_sampling: EdgeSampling::BottomK { k: budget },
                pair_capacity: budget,
            });
            let (est, report) =
                Runner::try_run(g, algo, &orders).expect("graph streams satisfy the promise");
            acc.budget
                .max_bytes_per_instance
                .is_none_or(|limit| report.peak_state_bytes <= limit)
                .then_some(est.estimate)
        })
        .collect()
}
