//! High-level estimation drivers: the `(ε, δ)` interface of Theorems 3.7
//! and 4.6, plus a guess-and-verify driver for unknown `T`.
//!
//! The low-level algorithms take a raw sample budget, exactly like the
//! paper's pseudocode ("choose a sample size m′"). These drivers wrap them
//! the way the theorem statements are used: pick `m′ = Θ(m/(ε²T^{2/3}))`
//! from an accuracy target and a `T` lower bound, run `Θ(log 1/δ)`
//! repetitions, and take the median.
//!
//! Every driver hands all repetitions — and, for
//! [`estimate_triangles_auto`], all guess levels — to one [`BatchJob`],
//! which replays each pass once and fans every item out to the resident
//! instances. The whole estimate then costs exactly as many stream passes
//! as a *single* run: 2, restoring the pass-optimality the theorems
//! assume. Instance seeds are `seed + i` per repetition (split-mixed per
//! guess level), and every instance observes the identical item sequence,
//! so repetition `i` is bit for bit the [`Runner::try_run`] of the
//! instance seeded `seed + i`: the theorems' "R independent copies",
//! sharing one replay.
//!
//! # Fault tolerance
//!
//! The drivers are survivor-aware: a repetition that blows its
//! [`Budget::max_bytes_per_instance`] limit is quarantined rather than
//! aborting the estimate, and the median is taken over the survivors as
//! long as at least [`Accuracy::min_survivors`] of them (default: the
//! majority [`quorum`]) remain. Below quorum, the fallible `try_*` drivers
//! return [`EstimateError::Degraded`]. Batch-wide limits —
//! [`Budget::max_total_bytes`] and [`Budget::deadline`] — abort the whole
//! estimate with [`EstimateError::Run`].
//!
//! Budgets are checked at adjacency-list and pass boundaries *during* the
//! shared replay, and per-instance panics are isolated by the batch's
//! quarantine.
//!
//! [`Runner::try_run`]: adjstream_stream::Runner::try_run

use std::path::Path;

use adjstream_graph::Graph;
use adjstream_stream::batch::{BatchConfig, BatchJob, BatchOutcome, BatchReport, Budget};
use adjstream_stream::estimator::repetitions_for_confidence;
use adjstream_stream::hashing::SplitMix64;
use adjstream_stream::obs::MetricsSnapshot;
use adjstream_stream::{
    Checkpoint, GraphPasses, MultiPassAlgorithm, PassOrders, RunError, StreamOrder,
};

use crate::amplify::{median_of_survivors, quorum, DegradedRun, MedianReport};
use crate::common::EdgeSampling;
use crate::fourcycle::{FourCycleEstimator, TwoPassFourCycle, TwoPassFourCycleConfig};
use crate::triangle::{TwoPassTriangle, TwoPassTriangleConfig};

/// Accuracy contract for the drivers.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Multiplicative error target `ε` (Theorem 3.7) — ignored by the
    /// 4-cycle driver, whose guarantee is a fixed constant factor. Must be
    /// positive and finite.
    pub epsilon: f64,
    /// Failure probability `δ`, in `(0, 1)`.
    pub delta: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the repetitions; `0` is clamped to `1` (run on
    /// the calling thread).
    pub threads: usize,
    /// Resource limits (space, wall clock); default unlimited. Per-instance
    /// limits quarantine individual repetitions, batch-wide limits abort
    /// the whole estimate (see the module docs on fault tolerance).
    pub budget: Budget,
    /// Minimum repetitions that must survive quarantine for the median to
    /// be reported; `None` uses the majority [`quorum`] of the repetition
    /// count. Values above the repetition count are clamped down to it
    /// ("all must survive"), and `Some(0)` still requires one survivor —
    /// a median of nothing does not exist.
    pub min_survivors: Option<usize>,
    /// Collect structured run metrics into [`CountEstimate::metrics`].
    /// Default off; turning it on never changes the estimate, the peak
    /// byte counts, or the survivor set.
    pub collect_metrics: bool,
}

impl Default for Accuracy {
    fn default() -> Self {
        Accuracy {
            epsilon: 0.25,
            delta: 0.1,
            seed: 2019,
            threads: 4,
            budget: Budget::default(),
            min_survivors: None,
            collect_metrics: false,
        }
    }
}

impl Accuracy {
    /// Check the contract and normalize the knobs, panicking with a clear
    /// message on values that would otherwise fail silently: a non-finite
    /// or non-positive `ε` makes [`triangle_budget`] degenerate to the full
    /// stream (no space savings, no warning), and `δ` outside `(0, 1)` has
    /// no meaning as a failure probability. `threads = 0` is clamped to 1 —
    /// "no parallelism" is a sensible reading, not an error.
    ///
    /// Every driver calls this on entry, so the panics happen at the API
    /// boundary rather than deep inside a budget formula.
    pub fn validated(self) -> Accuracy {
        assert!(
            self.epsilon.is_finite() && self.epsilon > 0.0,
            "Accuracy.epsilon must be positive and finite, got {}",
            self.epsilon
        );
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "Accuracy.delta must be in (0, 1), got {}",
            self.delta
        );
        Accuracy {
            threads: self.threads.max(1),
            ..self
        }
    }
}

/// Why a fallible estimation driver gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// Too few repetitions survived quarantine to report a median with the
    /// amplified confidence.
    Degraded(DegradedRun),
    /// The underlying stream execution failed as a whole: invalid stream,
    /// batch-wide space budget, deadline, or checkpoint trouble.
    Run(RunError),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::Degraded(e) => e.fmt(f),
            EstimateError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EstimateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimateError::Degraded(e) => Some(e),
            EstimateError::Run(e) => Some(e),
        }
    }
}

impl From<DegradedRun> for EstimateError {
    fn from(e: DegradedRun) -> Self {
        EstimateError::Degraded(e)
    }
}

impl From<RunError> for EstimateError {
    fn from(e: RunError) -> Self {
        EstimateError::Run(e)
    }
}

/// Result of a high-level estimation.
#[derive(Debug, Clone)]
pub struct CountEstimate {
    /// The amplified estimate.
    pub count: f64,
    /// Edge-sample budget used per run (for the auto driver: at the
    /// accepted guess level).
    pub budget: usize,
    /// Repetitions run (per guess level, for the auto driver).
    pub repetitions: usize,
    /// Per-run diagnostics (for the auto driver: at the accepted level).
    pub report: MedianReport,
    /// Total stream passes the estimate cost: exactly the algorithm's own
    /// pass count (2), regardless of repetition or level count.
    pub stream_passes: usize,
    /// The batched run's execution summary.
    pub batch: BatchReport,
    /// Structured run metrics, collected when
    /// [`Accuracy::collect_metrics`] was set (for the auto driver:
    /// aggregated over every level's repetitions).
    pub metrics: Option<MetricsSnapshot>,
}

/// Budget `m′ = c·m/(ε²·T^{2/3})` clamped to `[16, m]`.
pub fn triangle_budget(m: usize, t_lower: u64, epsilon: f64) -> usize {
    assert!(
        epsilon.is_finite() && epsilon > 0.0,
        "epsilon must be positive and finite, got {epsilon}"
    );
    let t = t_lower.max(1) as f64;
    let raw = 4.0 * m as f64 / (epsilon * epsilon * t.powf(2.0 / 3.0));
    (raw.ceil() as usize).clamp(16, m.max(16))
}

/// Budget `m′ = c·m/T^{3/8}` clamped to `[16, m]`.
pub fn four_cycle_budget(m: usize, t_lower: u64) -> usize {
    let t = t_lower.max(1) as f64;
    let raw = 8.0 * m as f64 / t.powf(3.0 / 8.0);
    (raw.ceil() as usize).clamp(16, m.max(16))
}

/// The Theorem 3.7 space bound as a concrete byte budget: the algorithm
/// stores `m′ = c·m/(ε²·T^{2/3})` sampled items ([`triangle_budget`]) of
/// `⌈log₂ n⌉` bits each, i.e. `Õ(m/T^{2/3})` words. Useful as a principled
/// default for [`Budget::max_bytes_per_instance`] — an instance that grows
/// past a constant multiple of this value is violating the theorem's space
/// promise, not just being unlucky. Note it bounds the *asymptotic state*
/// (the samples), not the implementation's constant-factor overheads
/// (hash-map headers, watch lists), so callers should allow slack — the
/// CLI multiplies it by 16.
pub fn theoretical_space_budget(m: usize, n: usize, t_lower: u64, epsilon: f64) -> usize {
    let words = triangle_budget(m, t_lower, epsilon);
    let bits_per_word = (n.max(2) as f64).log2().ceil().max(1.0) as usize;
    (words * bits_per_word).div_ceil(8)
}

/// Survivor threshold for `reps` repetitions under `acc`: the explicit
/// override clamped to `[1, reps]`, or the majority [`quorum`] by default.
fn required_survivors(acc: &Accuracy, reps: usize) -> usize {
    acc.min_survivors
        .unwrap_or_else(|| quorum(reps))
        .clamp(1, reps)
}

/// Seed for guess level `level`: a split-mix of the master seed, so the
/// per-repetition seed blocks (`level_seed + i`) of different levels are
/// decorrelated. Levels sharing the master seed verbatim would run
/// *identical* repetitions at every guess, making the levels' accept/reject
/// decisions fully correlated and voiding the union bound over levels.
fn level_seed(master: u64, level: usize) -> u64 {
    SplitMix64::new(master).mix(level as u64)
}

/// Package a batched run's median as a [`CountEstimate`].
fn estimate_from_batch(
    report: MedianReport,
    budget: usize,
    reps: usize,
    batch: BatchReport,
) -> CountEstimate {
    CountEstimate {
        count: report.median,
        budget,
        repetitions: reps,
        report,
        stream_passes: batch.passes,
        metrics: batch.metrics.clone(),
        batch,
    }
}

/// Batch configuration for an accuracy contract: thread count plus the
/// resource budget and the metrics flag, defaults elsewhere.
fn batch_config(acc: &Accuracy) -> BatchConfig {
    BatchConfig {
        budget: acc.budget,
        metrics: acc.collect_metrics,
        ..BatchConfig::with_threads(acc.threads)
    }
}

/// Run `job` to completion over `g` streamed per `orders`, generating each
/// distinct order once, and checkpointing to `checkpoint` (when given) at
/// every interior pass boundary.
fn run_batch<A>(
    mut job: BatchJob<A>,
    g: &Graph,
    orders: &PassOrders,
    checkpoint: Option<&Path>,
) -> Result<BatchOutcome<A::Output>, RunError>
where
    A: MultiPassAlgorithm + Checkpoint + Send,
{
    let source = GraphPasses::new(g, orders, job.passes(), job.requires_same_order())?;
    job.set_source_generations(source.generations());
    job.run(
        |pass| source.items(pass),
        |job| checkpoint.map_or(Ok(()), |path| job.write_checkpoint(path)),
    )
}

/// The survivor-aware run vector of a finished batch of estimators.
fn estimates<E>(outputs: &[Option<E>], estimate: impl Fn(&E) -> f64) -> Vec<Option<f64>> {
    outputs.iter().map(|e| e.as_ref().map(&estimate)).collect()
}

fn triangle_instance(seed: u64, budget: usize) -> TwoPassTriangle {
    TwoPassTriangle::new(TwoPassTriangleConfig {
        seed,
        edge_sampling: EdgeSampling::BottomK { k: budget },
        pair_capacity: budget,
    })
}

/// Estimate the triangle count with the Theorem 3.7 algorithm, given a
/// lower bound `t_lower ≤ T` (the theorem's implicit promise — without any
/// bound, use [`estimate_triangles_auto`]). Fallible: degraded runs and
/// execution failures come back as typed [`EstimateError`]s.
pub fn try_estimate_triangles(
    g: &Graph,
    order: &StreamOrder,
    t_lower: u64,
    acc: Accuracy,
) -> Result<CountEstimate, EstimateError> {
    let acc = acc.validated();
    let budget = triangle_budget(g.edge_count(), t_lower, acc.epsilon);
    let reps = repetitions_for_confidence(acc.delta);
    let required = required_survivors(&acc, reps);
    let instances: Vec<TwoPassTriangle> = (0..reps)
        .map(|i| triangle_instance(acc.seed.wrapping_add(i as u64), budget))
        .collect();
    let out = run_batch(
        BatchJob::new(instances, &batch_config(&acc))?,
        g,
        &PassOrders::Same(order.clone()),
        None,
    )?;
    let report = median_of_survivors(&estimates(&out.outputs, |e| e.estimate), required)?;
    Ok(estimate_from_batch(report, budget, reps, out.report))
}

/// Like [`try_estimate_triangles`], but running under a pass-boundary
/// checkpoint file so an interrupted run can be resumed.
///
/// With `resume == false` the batch executes from scratch, writing
/// `checkpoint` atomically at every pass boundary; with `resume == true`
/// the repetition set, budget state, and algorithm state are restored from
/// `checkpoint` and only the remaining passes run — producing a
/// [`CountEstimate`] bit-for-bit equal to the uninterrupted run (estimates
/// and survivor sets; space metering reflects only the passes actually
/// executed). On success the checkpoint file is removed.
pub fn try_estimate_triangles_checkpointed(
    g: &Graph,
    order: &StreamOrder,
    t_lower: u64,
    acc: Accuracy,
    checkpoint: &Path,
    resume: bool,
) -> Result<CountEstimate, EstimateError> {
    let acc = acc.validated();
    let budget = triangle_budget(g.edge_count(), t_lower, acc.epsilon);
    let reps = repetitions_for_confidence(acc.delta);
    let required = required_survivors(&acc, reps);
    let cfg = batch_config(&acc);
    let job = if resume {
        BatchJob::<TwoPassTriangle>::restore_from_file(checkpoint, &cfg)?
    } else {
        let instances: Vec<TwoPassTriangle> = (0..reps)
            .map(|i| triangle_instance(acc.seed.wrapping_add(i as u64), budget))
            .collect();
        BatchJob::new(instances, &cfg)?
    };
    let out = run_batch(job, g, &PassOrders::Same(order.clone()), Some(checkpoint))?;
    let runs = estimates(&out.outputs, |e| e.estimate);
    let reps = runs.len();
    let report = median_of_survivors(&runs, required.min(reps.max(1)))?;
    let _ = std::fs::remove_file(checkpoint);
    Ok(estimate_from_batch(report, budget, reps, out.report))
}

/// Panicking convenience wrapper around [`try_estimate_triangles`] for
/// callers that treat any estimation failure as a bug.
pub fn estimate_triangles(
    g: &Graph,
    order: &StreamOrder,
    t_lower: u64,
    acc: Accuracy,
) -> CountEstimate {
    match try_estimate_triangles(g, order, t_lower, acc) {
        Ok(est) => est,
        Err(e) => panic!("triangle estimation failed: {e}"),
    }
}

/// Estimate the triangle count with *no* prior bound on `T`: standard
/// guess-and-verify. Guesses descend geometrically from `m^{3/2}` (the
/// maximum possible `T`); each level runs the two-pass algorithm at the
/// budget its guess implies and accepts once the estimate is consistent
/// with (at least half) the guess. Each level draws its repetition seeds
/// from a split-mix of the master seed and the level index, so levels are
/// independent as the union-bound analysis requires.
///
/// Every level's every repetition is resident in one [`BatchJob`], so the
/// whole search costs exactly 2 stream passes (at the price of summing the
/// levels' budgets in memory) instead of two per repetition per level; the
/// accept scan then walks levels top-down over the already-computed run
/// vectors and keeps the first acceptable level, exactly the level a
/// level-by-level search would have stopped at.
pub fn try_estimate_triangles_auto(
    g: &Graph,
    order: &StreamOrder,
    acc: Accuracy,
) -> Result<CountEstimate, EstimateError> {
    let acc = acc.validated();
    let m = g.edge_count();
    let t_max = (m as f64).powf(1.5).max(1.0);
    // Guess ladder t_max, t_max/4, … down to (and including) the first
    // guess ≤ 1 — the ladder a level-by-level search visits.
    let mut guesses = Vec::new();
    let mut guess = t_max;
    while guess >= 1.0 {
        guesses.push(guess);
        if guess <= 1.0 {
            break;
        }
        guess /= 4.0;
    }
    let reps = repetitions_for_confidence(acc.delta);
    // All levels × all repetitions resident at once, level-major so level
    // ℓ's runs are the contiguous block [ℓ·reps, (ℓ+1)·reps).
    let budgets: Vec<usize> = guesses
        .iter()
        .map(|&guess| triangle_budget(m, guess as u64, acc.epsilon))
        .collect();
    let mut instances = Vec::with_capacity(guesses.len() * reps);
    for (level, &budget) in budgets.iter().enumerate() {
        let base = level_seed(acc.seed, level);
        for i in 0..reps {
            instances.push(triangle_instance(base.wrapping_add(i as u64), budget));
        }
    }
    let out = run_batch(
        BatchJob::new(instances, &batch_config(&acc))?,
        g,
        &PassOrders::Same(order.clone()),
        None,
    )?;
    let required = required_survivors(&acc, reps);
    let mut accepted = None;
    for (level, (&guess, &budget)) in guesses.iter().zip(&budgets).enumerate() {
        let runs = estimates(&out.outputs[level * reps..(level + 1) * reps], |e| {
            e.estimate
        });
        // A level whose survivors fall below quorum cannot render a
        // trustworthy accept/reject verdict, so the whole search is
        // degraded — a level-by-level search would have failed at this
        // level (or an earlier one).
        let report = median_of_survivors(&runs, required)?;
        let accept = report.median >= guess / 2.0;
        let is_last = level + 1 == guesses.len();
        if accept || is_last {
            accepted = Some((budget, report));
            break;
        }
    }
    let (budget, report) = accepted.expect("at least one level runs");
    Ok(estimate_from_batch(report, budget, reps, out.report))
}

/// Panicking convenience wrapper around [`try_estimate_triangles_auto`].
pub fn estimate_triangles_auto(g: &Graph, order: &StreamOrder, acc: Accuracy) -> CountEstimate {
    match try_estimate_triangles_auto(g, order, acc) {
        Ok(est) => est,
        Err(e) => panic!("triangle estimation failed: {e}"),
    }
}

/// Estimate the 4-cycle count with the Theorem 4.6 algorithm (constant-
/// factor approximation), given a lower bound `t_lower ≤ T`. Fallible:
/// degraded runs and execution failures come back as typed
/// [`EstimateError`]s.
pub fn try_estimate_four_cycles(
    g: &Graph,
    orders: [&StreamOrder; 2],
    t_lower: u64,
    acc: Accuracy,
) -> Result<CountEstimate, EstimateError> {
    let acc = acc.validated();
    let budget = four_cycle_budget(g.edge_count(), t_lower);
    let reps = repetitions_for_confidence(acc.delta);
    let required = required_survivors(&acc, reps);
    let instances: Vec<TwoPassFourCycle> = (0..reps)
        .map(|i| {
            TwoPassFourCycle::new(TwoPassFourCycleConfig {
                seed: acc.seed.wrapping_add(i as u64),
                edge_sample_size: budget,
                estimator: FourCycleEstimator::DistinctCycles,
                max_wedges: None,
            })
        })
        .collect();
    let out = run_batch(
        BatchJob::new(instances, &batch_config(&acc))?,
        g,
        &PassOrders::PerPass(vec![orders[0].clone(), orders[1].clone()]),
        None,
    )?;
    let report = median_of_survivors(&estimates(&out.outputs, |e| e.estimate), required)?;
    Ok(estimate_from_batch(report, budget, reps, out.report))
}

/// Panicking convenience wrapper around [`try_estimate_four_cycles`].
pub fn estimate_four_cycles(
    g: &Graph,
    orders: [&StreamOrder; 2],
    t_lower: u64,
    acc: Accuracy,
) -> CountEstimate {
    match try_estimate_four_cycles(g, orders, t_lower, acc) {
        Ok(est) => est,
        Err(e) => panic!("4-cycle estimation failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::{exact, gen};
    use adjstream_stream::Runner;

    fn acc() -> Accuracy {
        Accuracy {
            epsilon: 0.3,
            delta: 0.2,
            seed: 5,
            threads: 2,
            ..Accuracy::default()
        }
    }

    /// The reference path: one [`Runner::try_run`] per repetition seed,
    /// quarantining any repetition whose peak breaks the per-instance byte
    /// limit.
    fn per_seed_runs<A: MultiPassAlgorithm>(
        g: &Graph,
        orders: &PassOrders,
        a: &Accuracy,
        instance: impl Fn(u64) -> A,
        estimate: impl Fn(A::Output) -> f64,
    ) -> Vec<Option<f64>> {
        let reps = repetitions_for_confidence(a.delta);
        (0..reps)
            .map(|i| {
                let algo = instance(a.seed.wrapping_add(i as u64));
                let (out, report) = Runner::try_run(g, algo, orders).unwrap();
                a.budget
                    .max_bytes_per_instance
                    .is_none_or(|limit| report.peak_state_bytes <= limit)
                    .then(|| estimate(out))
            })
            .collect()
    }

    fn per_seed_triangle_runs(
        g: &Graph,
        order: &StreamOrder,
        t_lower: u64,
        a: &Accuracy,
    ) -> Vec<Option<f64>> {
        let budget = triangle_budget(g.edge_count(), t_lower, a.epsilon);
        per_seed_runs(
            g,
            &PassOrders::Same(order.clone()),
            a,
            |seed| triangle_instance(seed, budget),
            |e| e.estimate,
        )
    }

    #[test]
    fn budgets_scale_and_clamp() {
        assert_eq!(triangle_budget(1000, 0, 0.5), 1000); // T unknown-small: full
        let b = triangle_budget(100_000, 1_000_000, 1.0);
        assert!((16..100_000).contains(&b));
        assert!(triangle_budget(10, 1_000_000_000, 1.0) >= 16);
        assert!(four_cycle_budget(50_000, 4096) < 50_000);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn triangle_budget_rejects_zero_epsilon() {
        triangle_budget(1000, 100, 0.0);
    }

    #[test]
    fn estimate_triangles_with_bound() {
        let g = gen::disjoint_cliques(6, 12); // T = 240
        let order = StreamOrder::shuffled(g.vertex_count(), 3);
        let est = estimate_triangles(&g, &order, 240, acc());
        let rel = (est.count - 240.0).abs() / 240.0;
        assert!(rel < 0.3, "estimate {}", est.count);
        assert!(est.repetitions >= 3);
        assert!(est.budget <= g.edge_count());
    }

    #[test]
    fn batched_runs_match_per_seed_runs_bit_for_bit() {
        let g = gen::disjoint_cliques(5, 10);
        let order = StreamOrder::shuffled(g.vertex_count(), 7);
        for threads in [1, 3] {
            let a = Accuracy { threads, ..acc() };
            let runs = per_seed_triangle_runs(&g, &order, 100, &a);
            let want = median_of_survivors(&runs, quorum(runs.len())).unwrap();
            let got = estimate_triangles(&g, &order, 100, a);
            assert_eq!(got.report.runs, want.runs, "threads = {threads}");
            assert_eq!(got.count.to_bits(), want.median.to_bits());
            assert_eq!(got.stream_passes, 2);
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_batched_run() {
        let g = gen::disjoint_cliques(5, 10);
        let order = StreamOrder::shuffled(g.vertex_count(), 7);
        let path = std::env::temp_dir().join(format!(
            "adjstream-estimate-ckpt-{}.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let plain = try_estimate_triangles(&g, &order, 100, acc()).unwrap();
        let ckpt =
            try_estimate_triangles_checkpointed(&g, &order, 100, acc(), &path, false).unwrap();
        assert_eq!(plain.report.runs, ckpt.report.runs);
        assert_eq!(plain.count, ckpt.count);
        assert!(
            !path.exists(),
            "checkpoint file is removed after a successful run"
        );
    }

    #[test]
    fn four_cycle_runs_match_per_seed_runs_bit_for_bit() {
        let g = gen::disjoint_four_cycles(60);
        let o1 = StreamOrder::shuffled(g.vertex_count(), 1);
        let o2 = StreamOrder::shuffled(g.vertex_count(), 2);
        let budget = four_cycle_budget(g.edge_count(), 60);
        let runs = per_seed_runs(
            &g,
            &PassOrders::PerPass(vec![o1.clone(), o2.clone()]),
            &acc(),
            |seed| {
                TwoPassFourCycle::new(TwoPassFourCycleConfig {
                    seed,
                    edge_sample_size: budget,
                    estimator: FourCycleEstimator::DistinctCycles,
                    max_wedges: None,
                })
            },
            |e| e.estimate,
        );
        let t = estimate_four_cycles(&g, [&o1, &o2], 60, acc());
        assert_eq!(t.report.runs, median_of_survivors(&runs, 1).unwrap().runs);
        // Two distinct per-pass orders: the batch generated the stream
        // twice but still took only 2 passes total.
        assert_eq!(t.batch.stream_generations, 2);
        assert_eq!(t.stream_passes, 2);
    }

    #[test]
    fn auto_mode_finds_t_without_a_bound() {
        let g = gen::disjoint_cliques(6, 12); // T = 240, m = 180
        let order = StreamOrder::shuffled(g.vertex_count(), 4);
        let est = estimate_triangles_auto(&g, &order, acc());
        let rel = (est.count - 240.0).abs() / 240.0;
        assert!(rel < 0.35, "auto estimate {}", est.count);
    }

    #[test]
    fn auto_mode_handles_triangle_free() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let g = gen::bipartite_gnm(30, 30, 250, &mut rng);
        let order = StreamOrder::shuffled(g.vertex_count(), 1);
        assert_eq!(estimate_triangles_auto(&g, &order, acc()).count, 0.0);
    }

    #[test]
    fn auto_accepts_the_level_a_per_level_search_stops_at() {
        let g = gen::disjoint_cliques(4, 9);
        let order = StreamOrder::shuffled(g.vertex_count(), 8);
        let t = estimate_triangles_auto(&g, &order, acc());
        // Reference ladder: per-seed runs level by level, stopping at the
        // first level whose median reaches half its guess.
        let mut guess = (g.edge_count() as f64).powf(1.5);
        let mut level = 0;
        let (budget, runs) = loop {
            let a = Accuracy {
                seed: level_seed(acc().seed, level),
                ..acc()
            };
            let runs = per_seed_triangle_runs(&g, &order, guess as u64, &a);
            let median = median_of_survivors(&runs, quorum(runs.len()))
                .unwrap()
                .median;
            if median >= guess / 2.0 || guess / 4.0 < 1.0 {
                break (
                    triangle_budget(g.edge_count(), guess as u64, a.epsilon),
                    runs,
                );
            }
            guess /= 4.0;
            level += 1;
        };
        assert_eq!(t.budget, budget, "same accepted level");
        assert_eq!(t.report.runs, median_of_survivors(&runs, 1).unwrap().runs);
    }

    #[test]
    fn auto_batched_takes_exactly_two_passes() {
        // Pass count is the algorithm's own (2), independent of how many
        // guess levels the ladder has.
        let g = gen::disjoint_cliques(6, 12);
        let order = StreamOrder::shuffled(g.vertex_count(), 4);
        let est = estimate_triangles_auto(&g, &order, acc());
        assert_eq!(est.stream_passes, 2);
        assert_eq!(est.batch.passes, 2);
        assert_eq!(
            est.batch.stream_generations, 1,
            "same order ⇒ one generation"
        );
        // Many levels really were resident: more instances than one level's
        // repetitions.
        assert!(est.batch.instances > est.repetitions);
    }

    #[test]
    fn auto_levels_use_distinct_seeds() {
        // Regression for the correlated-seed bug: two levels of the ladder
        // must not run identical repetitions. Compare the run vectors of
        // the same graph estimated at two different explicit levels using
        // the seeds the ladder would derive.
        let g = gen::disjoint_cliques(6, 12);
        let order = StreamOrder::shuffled(g.vertex_count(), 4);
        let at_level = |level: usize| {
            let a = Accuracy {
                seed: super::level_seed(5, level),
                ..acc()
            };
            // Same guess ⇒ same budget: any run-vector difference is the
            // seeds, not the sample size.
            estimate_triangles(&g, &order, 240, a).report.runs
        };
        assert_ne!(super::level_seed(5, 0), super::level_seed(5, 1));
        assert_ne!(at_level(0), at_level(1), "levels must be decorrelated");
    }

    #[test]
    fn estimate_four_cycles_constant_factor() {
        let g = gen::disjoint_four_cycles(200);
        let truth = exact::count_four_cycles(&g) as f64;
        let o1 = StreamOrder::shuffled(g.vertex_count(), 1);
        let o2 = StreamOrder::shuffled(g.vertex_count(), 2);
        let est = estimate_four_cycles(&g, [&o1, &o2], 200, acc());
        let ratio = est.count / truth;
        assert!((0.2..=5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn accuracy_validation_boundaries() {
        // threads = 0 clamps to 1 (run on the calling thread).
        let v = Accuracy {
            threads: 0,
            ..acc()
        }
        .validated();
        assert_eq!(v.threads, 1);
        // In-range values pass through untouched.
        let v = acc().validated();
        assert_eq!(v.threads, 2);
        assert_eq!(v.epsilon, 0.3);
    }
    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn accuracy_rejects_nonpositive_epsilon() {
        let _ = Accuracy {
            epsilon: 0.0,
            ..acc()
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive and finite")]
    fn accuracy_rejects_nan_epsilon() {
        let _ = Accuracy {
            epsilon: f64::NAN,
            ..acc()
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn accuracy_rejects_delta_of_one() {
        let _ = Accuracy {
            delta: 1.0,
            ..acc()
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn accuracy_rejects_zero_delta() {
        let _ = Accuracy {
            delta: 0.0,
            ..acc()
        }
        .validated();
    }

    #[test]
    fn theoretical_space_budget_tracks_the_theorem() {
        // More edges ⇒ more space; a better T bound ⇒ less space.
        let base = theoretical_space_budget(10_000, 1_000, 1_000, 0.5);
        assert!(base > 0);
        assert!(theoretical_space_budget(40_000, 1_000, 1_000, 0.5) > base);
        assert!(theoretical_space_budget(10_000, 1_000, 1_000_000, 0.5) < base);
        // Degenerate inputs stay sane.
        assert!(theoretical_space_budget(0, 0, 0, 1.0) > 0);
    }

    #[test]
    fn tiny_instance_budget_degrades_like_the_per_seed_reference() {
        // 1 byte per instance quarantines every repetition (each stores at
        // least a sampler), so the batch and the per-seed reference both
        // fail the quorum with the same typed error.
        let g = gen::disjoint_cliques(5, 10);
        let order = StreamOrder::shuffled(g.vertex_count(), 7);
        let strangled = Accuracy {
            budget: Budget {
                max_bytes_per_instance: Some(1),
                ..Budget::default()
            },
            ..acc()
        };
        let reps = repetitions_for_confidence(acc().delta);
        let want = DegradedRun {
            survivors: 0,
            required: quorum(reps),
            repetitions: reps,
        };
        let runs = per_seed_triangle_runs(&g, &order, 100, &strangled);
        assert_eq!(median_of_survivors(&runs, quorum(reps)).unwrap_err(), want);
        let err = try_estimate_triangles(&g, &order, 100, strangled).unwrap_err();
        assert_eq!(err, EstimateError::Degraded(want));
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let g = gen::disjoint_cliques(5, 10);
        let order = StreamOrder::shuffled(g.vertex_count(), 7);
        let roomy = Accuracy {
            budget: Budget {
                max_bytes_per_instance: Some(1 << 30),
                max_total_bytes: Some(1 << 34),
                deadline: Some(std::time::Duration::from_secs(3600)),
            },
            ..acc()
        };
        let plain = estimate_triangles(&g, &order, 100, acc());
        let budgeted = try_estimate_triangles(&g, &order, 100, roomy).unwrap();
        assert_eq!(plain.report.runs, budgeted.report.runs);
        assert_eq!(budgeted.report.dead_runs, 0);
    }

    #[test]
    fn zero_deadline_is_a_typed_error() {
        let g = gen::disjoint_cliques(4, 8);
        let order = StreamOrder::shuffled(g.vertex_count(), 2);
        let a = Accuracy {
            budget: Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..Budget::default()
            },
            ..acc()
        };
        let err = try_estimate_triangles(&g, &order, 100, a).unwrap_err();
        assert_eq!(
            err,
            EstimateError::Run(RunError::DeadlineExceeded { limit_ms: 0 })
        );
    }

    #[test]
    fn aggregate_budget_aborts_the_estimate() {
        let g = gen::disjoint_cliques(4, 8);
        let order = StreamOrder::shuffled(g.vertex_count(), 2);
        let a = Accuracy {
            budget: Budget {
                max_total_bytes: Some(1),
                ..Budget::default()
            },
            ..acc()
        };
        let err = try_estimate_triangles(&g, &order, 100, a).unwrap_err();
        assert!(
            matches!(
                err,
                EstimateError::Run(RunError::SpaceBudgetExceeded { limit: 1, .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn min_survivors_above_reps_is_clamped_to_all() {
        let g = gen::disjoint_cliques(4, 8);
        let order = StreamOrder::shuffled(g.vertex_count(), 2);
        let a = Accuracy {
            min_survivors: Some(usize::MAX),
            ..acc()
        };
        // Healthy run: all repetitions survive, so even "all must survive"
        // succeeds.
        let est = try_estimate_triangles(&g, &order, 100, a).unwrap();
        assert_eq!(est.report.dead_runs, 0);
    }

    #[test]
    fn estimate_error_display_and_source() {
        let degraded = EstimateError::Degraded(DegradedRun {
            survivors: 2,
            required: 9,
            repetitions: 15,
        });
        assert!(degraded.to_string().contains("2 of 15"));
        let run = EstimateError::from(RunError::DeadlineExceeded { limit_ms: 7 });
        assert!(run.to_string().contains('7'));
        use std::error::Error;
        assert!(degraded.source().is_some());
        assert!(run.source().is_some());
    }
}
