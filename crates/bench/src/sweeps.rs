//! Space–accuracy sweeps: run an algorithm at a sequence of space budgets,
//! reporting the median estimate, relative error, and measured peak state.

use adjstream_core::amplify::collect_runs;
use adjstream_core::common::EdgeSampling;
use adjstream_core::fourcycle::{FourCycleEstimator, TwoPassFourCycle, TwoPassFourCycleConfig};
use adjstream_core::triangle::{
    OnePassTriangle, ThreePassTriangle, TriangleDistinguisher, TwoPassTriangle,
    TwoPassTriangleConfig, WedgeSamplerTriangle,
};
use adjstream_stream::estimator::{median, relative_error};
use adjstream_stream::{PassOrders, Runner, StreamOrder};

use crate::workloads::Workload;

/// Triangle algorithms under comparison (the Table 1 upper-bound rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriangleAlgo {
    /// `Õ(P₂/T)` one-pass wedge sampler (budget = slots).
    WedgeSampler,
    /// `Õ(m/√T)` one-pass edge sampler.
    OnePass,
    /// `Õ(m/T^{2/3})` two-pass (Theorem 3.7).
    TwoPass,
    /// Section 2.1 three-pass exact-lightest.
    ThreePass,
}

impl TriangleAlgo {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TriangleAlgo::WedgeSampler => "1-pass wedge O(P2/T)",
            TriangleAlgo::OnePass => "1-pass edge O(m/sqrtT)",
            TriangleAlgo::TwoPass => "2-pass Thm3.7 O(m/T^2/3)",
            TriangleAlgo::ThreePass => "3-pass S2.1 O(m/T^2/3)",
        }
    }

    /// The paper's space budget for this algorithm at `(m, t, p2)`.
    pub fn paper_budget(self, m: usize, t: u64, p2: u64) -> f64 {
        let (m, t, p2) = (m as f64, t.max(1) as f64, p2.max(1) as f64);
        match self {
            TriangleAlgo::WedgeSampler => p2 / t,
            TriangleAlgo::OnePass => m / t.sqrt(),
            TriangleAlgo::TwoPass => m / t.powf(2.0 / 3.0),
            TriangleAlgo::ThreePass => m / t.powf(2.0 / 3.0),
        }
    }
}

/// One point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Configured budget (sample size / slots).
    pub budget: usize,
    /// Median estimate across repetitions.
    pub median_estimate: f64,
    /// Relative error of the median against the workload truth.
    pub rel_error: f64,
    /// Largest peak state observed across repetitions, bytes.
    pub peak_bytes: usize,
    /// Repetitions run.
    pub reps: usize,
}

/// Run one triangle algorithm once; returns `(estimate, peak_bytes)`.
pub fn run_triangle_once(
    algo: TriangleAlgo,
    w: &Workload,
    budget: usize,
    seed: u64,
) -> (f64, usize) {
    let n = w.n();
    let order = PassOrders::Same(StreamOrder::shuffled(n, seed ^ 0x0DDE));
    match algo {
        TriangleAlgo::WedgeSampler => {
            let (est, r) = Runner::run(&w.graph, WedgeSamplerTriangle::new(seed, budget), &order);
            (est.estimate, r.peak_state_bytes)
        }
        TriangleAlgo::OnePass => {
            let (est, r) = Runner::run(
                &w.graph,
                OnePassTriangle::new(seed, EdgeSampling::BottomK { k: budget }),
                &order,
            );
            (est.estimate, r.peak_state_bytes)
        }
        TriangleAlgo::TwoPass => {
            let cfg = TwoPassTriangleConfig {
                seed,
                edge_sampling: EdgeSampling::BottomK { k: budget },
                pair_capacity: budget,
            };
            let (est, r) = Runner::run(&w.graph, TwoPassTriangle::new(cfg), &order);
            (est.estimate, r.peak_state_bytes)
        }
        TriangleAlgo::ThreePass => {
            let (est, r) = Runner::run(
                &w.graph,
                ThreePassTriangle::new(seed, EdgeSampling::BottomK { k: budget }, budget),
                &order,
            );
            (est.estimate, r.peak_state_bytes)
        }
    }
}

/// Median-of-`reps` sweep point for a triangle algorithm.
pub fn sweep_triangle_point(
    algo: TriangleAlgo,
    w: &Workload,
    budget: usize,
    reps: usize,
    base_seed: u64,
) -> SweepPoint {
    let mut estimates = Vec::with_capacity(reps);
    let mut peak = 0usize;
    let results: Vec<(f64, usize)> = parallel_runs(reps, |i| {
        run_triangle_once(algo, w, budget, base_seed.wrapping_add(i as u64 * 7919))
    });
    for (e, p) in results {
        estimates.push(e);
        peak = peak.max(p);
    }
    let med = median(&estimates);
    SweepPoint {
        budget,
        median_estimate: med,
        rel_error: relative_error(med, w.truth as f64),
        peak_bytes: peak,
        reps,
    }
}

/// Run the 4-cycle algorithm once; returns `(estimate, peak_bytes)`.
pub fn run_fourcycle_once(
    w: &Workload,
    budget: usize,
    estimator: FourCycleEstimator,
    seed: u64,
) -> (f64, usize) {
    let n = w.n();
    let orders = PassOrders::PerPass(vec![
        StreamOrder::shuffled(n, seed ^ 0xC4),
        StreamOrder::shuffled(n, seed ^ 0xC5),
    ]);
    let cfg = TwoPassFourCycleConfig {
        seed,
        edge_sample_size: budget,
        estimator,
        max_wedges: None,
    };
    let (est, r) = Runner::run(&w.graph, TwoPassFourCycle::new(cfg), &orders);
    (est.estimate, r.peak_state_bytes)
}

/// Median-of-`reps` sweep point for the 4-cycle algorithm.
pub fn sweep_fourcycle_point(
    w: &Workload,
    budget: usize,
    estimator: FourCycleEstimator,
    reps: usize,
    base_seed: u64,
) -> SweepPoint {
    let results: Vec<(f64, usize)> = parallel_runs(reps, |i| {
        run_fourcycle_once(
            w,
            budget,
            estimator,
            base_seed.wrapping_add(i as u64 * 104729),
        )
    });
    let estimates: Vec<f64> = results.iter().map(|r| r.0).collect();
    let peak = results.iter().map(|r| r.1).max().unwrap_or(0);
    let med = median(&estimates);
    SweepPoint {
        budget,
        median_estimate: med,
        rel_error: relative_error(med, w.truth as f64),
        peak_bytes: peak,
        reps,
    }
}

/// Success rate of the two-pass distinguisher at a budget over yes/no
/// workload pairs.
pub fn distinguisher_success(
    yes: &Workload,
    no: &Workload,
    budget: usize,
    trials: usize,
    base_seed: u64,
) -> (f64, f64) {
    let run = |w: &Workload, seed: u64| {
        let n = w.n();
        let (v, _) = Runner::run(
            &w.graph,
            TriangleDistinguisher::new(seed, budget),
            &PassOrders::Same(StreamOrder::shuffled(n, seed ^ 0xD157)),
        );
        v.found_triangle
    };
    let yes_hits = (0..trials)
        .filter(|&i| run(yes, base_seed + i as u64))
        .count();
    let no_rejects = (0..trials)
        .filter(|&i| !run(no, base_seed + 1_000 + i as u64))
        .count();
    (
        yes_hits as f64 / trials as f64,
        no_rejects as f64 / trials as f64,
    )
}

/// Geometric budget ladder from `lo` to `hi` with the given number of
/// steps (inclusive endpoints, deduplicated).
pub fn budget_ladder(lo: usize, hi: usize, steps: usize) -> Vec<usize> {
    assert!(lo >= 1 && hi >= lo && steps >= 2);
    let ratio = (hi as f64 / lo as f64).powf(1.0 / (steps - 1) as f64);
    let mut out: Vec<usize> = (0..steps)
        .map(|i| (lo as f64 * ratio.powi(i as i32)).round() as usize)
        .collect();
    out.dedup();
    out
}

/// Fan `count` indexed jobs over the available cores, preserving order.
fn parallel_runs<T, F>(count: usize, job: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(usize) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    collect_runs(count, 0, threads, |i| job(i as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn budget_ladder_is_geometric() {
        let l = budget_ladder(10, 1000, 5);
        assert_eq!(l.first(), Some(&10));
        assert_eq!(l.last(), Some(&1000));
        assert!(l.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn two_pass_sweep_point_converges_at_full_budget() {
        let w = workloads::clique_triangles(5, 8); // T = 80
        let m = w.m();
        // Budget m samples every edge; Q (capacity m = 80 < 3T = 240) still
        // subsamples, so expect tight concentration rather than exactness.
        let p = sweep_triangle_point(TriangleAlgo::TwoPass, &w, m, 9, 5);
        assert!(p.rel_error < 0.25, "{p:?}");
        assert!(p.peak_bytes > 0);
    }

    #[test]
    fn fourcycle_sweep_point_converges_at_full_budget() {
        let w = workloads::planted_four_cycles(20, 12);
        let p = sweep_fourcycle_point(&w, w.m(), FourCycleEstimator::DistinctCycles, 3, 7);
        assert_eq!(p.median_estimate, 12.0);
    }

    #[test]
    fn distinguisher_yes_no_rates() {
        let yes = workloads::planted_triangles(300, 30, 1);
        let no = workloads::planted_triangles(300, 0, 2);
        let (y, n) = distinguisher_success(&yes, &no, yes.m(), 5, 3);
        assert_eq!(y, 1.0);
        assert_eq!(n, 1.0);
    }
}
