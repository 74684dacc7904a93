//! The checkpoint law: a run saved at an interior pass boundary, restored,
//! and run through its remaining passes ends as the uninterrupted run
//! does, with the same estimate bits, published counters and peak state.
//!
//! [`assert_checkpoint_law`] checks every boundary of any type that is both
//! a `MultiPassAlgorithm` and a `Checkpoint`; it is applied to each such
//! type in `adjstream-core` on one promise-valid stream with hubs. There
//! the two-pass triangle counter's `Q` holds records at its boundary, and
//! none of them watches its edges until pass 2 begins after the restore.

use adjstream_core::common::EdgeSampling;
use adjstream_core::fourcycle::{TwoPassFourCycle, TwoPassFourCycleConfig};
use adjstream_core::triangle::{
    ShardedTriangle, ShardedTriangleConfig, TwoPassTriangle, TwoPassTriangleConfig,
};
use adjstream_graph::gen;
use adjstream_stream::checkpoint::Checkpoint;
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::obs::ObsCounters;
use adjstream_stream::runner::{drive_pass_slice, MultiPassAlgorithm};
use adjstream_stream::{AdjListStream, StreamItem, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a run ends with.
#[derive(Debug, PartialEq)]
struct Outcome {
    estimate_bits: u64,
    counters: Option<ObsCounters>,
    peak_state_bytes: usize,
}

/// Run `algo` over `items`; if `resume_at` is `Some(b)`, save it after
/// pass `b - 1` and continue from its restored copy. `at_boundary` sees the
/// state saved at every interior boundary.
fn run<A: MultiPassAlgorithm + Checkpoint>(
    mut algo: A,
    items: &[StreamItem],
    resume_at: Option<usize>,
    estimate: impl Fn(A::Output) -> f64,
    mut at_boundary: impl FnMut(usize, &A),
) -> Outcome {
    let mut peak = PeakTracker::new();
    let mut processed = 0usize;
    for pass in 0..algo.passes() {
        if pass > 0 {
            at_boundary(pass, &algo);
        }
        if resume_at == Some(pass) {
            let mut blob = Vec::new();
            algo.save(&mut blob).expect("save");
            algo = A::restore(&mut &blob[..]).expect("restore");
        }
        drive_pass_slice(&mut algo, pass, items, &mut peak, &mut processed).expect("pass");
    }
    let counters = algo.obs_counters();
    Outcome {
        estimate_bits: estimate(algo.finish()).to_bits(),
        counters,
        peak_state_bytes: peak.peak(),
    }
}

/// Assert the checkpoint law for the algorithm `make` builds: resumed at
/// each interior pass boundary, the run ends with the uninterrupted run's
/// [`Outcome`]. `at_boundary` sees the uninterrupted run's state at each
/// boundary, for checks of the type's own.
fn assert_checkpoint_law<A, E>(
    name: &str,
    make: impl Fn() -> A,
    items: &[StreamItem],
    estimate: E,
    at_boundary: impl FnMut(usize, &A),
) where
    A: MultiPassAlgorithm + Checkpoint,
    E: Fn(A::Output) -> f64 + Copy,
{
    let whole = run(make(), items, None, estimate, at_boundary);
    for boundary in 1..make().passes() {
        let resumed = run(make(), items, Some(boundary), estimate, |_, _| {});
        assert_eq!(resumed, whole, "{name} resumed after pass {boundary}");
    }
}

/// Random edges, planted cliques and two books, whose spine vertices are
/// hubs in many triangles, streamed in one shuffled order.
fn items() -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(36);
    let g = gen::gnm(120, 700, &mut rng)
        .disjoint_union(&gen::disjoint_cliques(5, 7))
        .disjoint_union(&gen::book(40))
        .disjoint_union(&gen::book(25));
    AdjListStream::new(&g, StreamOrder::shuffled(g.vertex_count(), 8)).collect_items()
}

#[test]
fn two_pass_triangle_obeys_the_checkpoint_law() {
    let items = items();
    for edge_sampling in [
        EdgeSampling::BottomK { k: 250 },
        EdgeSampling::Threshold { p: 0.4 },
    ] {
        let make = || {
            TwoPassTriangle::new(TwoPassTriangleConfig {
                seed: 4,
                edge_sampling,
                pair_capacity: 60,
            })
        };
        let name = format!("two-pass {edge_sampling:?}");
        let mut boundaries = 0;
        assert_checkpoint_law(
            &name,
            make,
            &items,
            |e| e.estimate,
            |_, algo| {
                // `Q` holds records, yet every watch so far is an admission
                // to `S`: the records start watching in pass 2.
                let c = algo.obs_counters().expect("published");
                assert!(c.pairs_stored > c.pairs_replaced, "{name}: Q is empty");
                assert_eq!(c.watches_started, c.admissions, "{name}");
                boundaries += 1;
            },
        );
        assert_eq!(boundaries, 1);
    }
}

#[test]
fn sharded_triangle_obeys_the_checkpoint_law() {
    let items = items();
    for edge_sampling in [
        EdgeSampling::BottomK { k: 250 },
        EdgeSampling::Threshold { p: 0.4 },
    ] {
        let make = || {
            ShardedTriangle::new(ShardedTriangleConfig {
                seed: 4,
                edge_sampling,
                pair_capacity: 60,
            })
        };
        let name = format!("sharded {edge_sampling:?}");
        assert_checkpoint_law(&name, make, &items, |e| e.estimate, |_, _| {});
    }
}

#[test]
fn two_pass_four_cycle_obeys_the_checkpoint_law() {
    let items = items();
    for max_wedges in [None, Some(200)] {
        let make = || {
            TwoPassFourCycle::new(TwoPassFourCycleConfig {
                max_wedges,
                ..TwoPassFourCycleConfig::paper(4, 250)
            })
        };
        let name = format!("four-cycle, wedge cap {max_wedges:?}");
        assert_checkpoint_law(&name, make, &items, |e| e.estimate, |_, _| {});
    }
}
