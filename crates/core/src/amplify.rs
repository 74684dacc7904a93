//! Median amplification (Theorems 3.7 and 4.6).
//!
//! Both theorems run `Θ(log 1/δ)` independent copies of a
//! constant-success-probability estimator and report the median. The
//! repetitions are embarrassingly parallel; [`median_of_runs`] fans them out
//! over scoped threads. The drivers in [`crate::estimate`]
//! produce the run vector differently (one shared stream replay via
//! [`adjstream_stream::batch::BatchJob`]) but summarize it through the same
//! [`MedianReport::from_runs`], so identical runs report identical
//! statistics either way.

use adjstream_stream::estimator::{mean, median, variance};

/// Minimum number of surviving repetitions for a trustworthy median of
/// `reps` runs: a strict majority plus one (`⌈reps/2⌉ + 1`), capped at
/// `reps`. The median-amplification analysis needs more than half of the
/// repetitions present — with exactly half, a single adversarial loss can
/// move the median across the acceptance threshold. The extra `+1` keeps
/// one run of slack so the median index itself is never supplied by a
/// boundary run.
pub fn quorum(reps: usize) -> usize {
    reps.min(reps.div_ceil(2) + 1)
}

/// Too few repetitions survived (panic quarantine, per-instance budget) to
/// report a median with the amplified confidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedRun {
    /// Repetitions that ran to completion.
    pub survivors: usize,
    /// Minimum survivors the caller required (the quorum).
    pub required: usize,
    /// Repetitions attempted.
    pub repetitions: usize,
}

impl std::fmt::Display for DegradedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "degraded run: only {} of {} repetitions survived (need {})",
            self.survivors, self.repetitions, self.required
        )
    }
}

impl std::error::Error for DegradedRun {}

/// Summary of a batch of independent estimator runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MedianReport {
    /// The amplified (median) estimate, taken over the non-NaN runs.
    pub median: f64,
    /// Mean of the non-NaN runs (diagnostic; sensitive to heavy-edge
    /// variance).
    pub mean: f64,
    /// Sample variance of the non-NaN runs (diagnostic).
    pub variance: f64,
    /// The individual run estimates, in repetition order, NaNs included —
    /// this vector is the bitwise-reproducibility contract between
    /// per-seed runs and the batched drivers. Runs killed before producing an
    /// estimate (see [`MedianReport::dead_runs`]) do not appear here.
    pub runs: Vec<f64>,
    /// Runs that produced NaN and were excluded from the summary
    /// statistics. A nonzero count flags degenerate repetitions (e.g. a
    /// 0/0 in a sparse-sample estimator) without crashing the estimate.
    pub nan_runs: usize,
    /// Repetitions quarantined before producing any estimate (panic,
    /// per-instance budget). Zero for fully healthy runs; bounded above by
    /// `repetitions − quorum` whenever this report exists at all (see
    /// [`median_of_survivors`]).
    pub dead_runs: usize,
}

impl MedianReport {
    /// Summarize a run vector: median/mean/variance over the non-NaN runs,
    /// with the NaN count surfaced in [`MedianReport::nan_runs`]. If every
    /// run is NaN the summary statistics are NaN.
    pub fn from_runs(runs: Vec<f64>) -> MedianReport {
        assert!(!runs.is_empty(), "need at least one run");
        let finite: Vec<f64> = runs.iter().copied().filter(|x| !x.is_nan()).collect();
        let nan_runs = runs.len() - finite.len();
        if finite.is_empty() {
            return MedianReport {
                median: f64::NAN,
                mean: f64::NAN,
                variance: f64::NAN,
                runs,
                nan_runs,
                dead_runs: 0,
            };
        }
        MedianReport {
            median: median(&finite),
            mean: mean(&finite),
            variance: variance(&finite),
            runs,
            nan_runs,
            dead_runs: 0,
        }
    }
}

/// Summarize a run vector in which some repetitions were quarantined
/// (`None`: the instance panicked or blew its space budget before producing
/// an estimate). Succeeds iff at least `min_survivors.max(1)` repetitions
/// survived; the resulting report's `runs` vector holds the survivor values
/// in repetition order and `dead_runs` counts the quarantined slots.
pub fn median_of_survivors(
    runs: &[Option<f64>],
    min_survivors: usize,
) -> Result<MedianReport, DegradedRun> {
    let survivors: Vec<f64> = runs.iter().filter_map(|r| *r).collect();
    let required = min_survivors.max(1);
    if survivors.len() < required {
        return Err(DegradedRun {
            survivors: survivors.len(),
            required,
            repetitions: runs.len(),
        });
    }
    let dead_runs = runs.len() - survivors.len();
    let mut report = MedianReport::from_runs(survivors);
    report.dead_runs = dead_runs;
    Ok(report)
}

/// Run `reps` independent copies of `run` (seeded `base_seed + i`) and
/// collect their outputs in repetition order, distributing over `threads`
/// with the same seed schedule as [`median_of_runs`]. This is the
/// fault-aware sibling of that function: `run` may return `Option<f64>` (a
/// `None` marks a dead repetition) for use with [`median_of_survivors`].
pub fn collect_runs<T, F>(reps: usize, base_seed: u64, threads: usize, run: F) -> Vec<T>
where
    T: Send + Default,
    F: Fn(u64) -> T + Sync,
{
    assert!(reps > 0, "need at least one run");
    let mut runs: Vec<T> = std::iter::repeat_with(T::default).take(reps).collect();
    if threads <= 1 {
        for (i, slot) in runs.iter_mut().enumerate() {
            *slot = run(base_seed.wrapping_add(i as u64));
        }
    } else {
        let chunk = reps.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, slice) in runs.chunks_mut(chunk).enumerate() {
                let run = &run;
                scope.spawn(move || {
                    for (i, slot) in slice.iter_mut().enumerate() {
                        *slot = run(base_seed.wrapping_add((t * chunk + i) as u64));
                    }
                });
            }
        });
    }
    runs
}

/// Run `reps` independent copies of `run` (seeded `base_seed + i`) and take
/// the median. `threads > 1` distributes the repetitions.
pub fn median_of_runs<F>(reps: usize, base_seed: u64, threads: usize, run: F) -> MedianReport
where
    F: Fn(u64) -> f64 + Sync,
{
    MedianReport::from_runs(collect_runs(reps, base_seed, threads, run))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |seed: u64| (seed % 10) as f64;
        let a = median_of_runs(25, 100, 1, f);
        let b = median_of_runs(25, 100, 4, f);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.median, b.median);
    }

    #[test]
    fn median_resists_one_bad_run() {
        // Simulate an estimator that usually returns ~100 but explodes on
        // one seed.
        let f = |seed: u64| {
            if seed == 3 {
                1e12
            } else {
                100.0 + (seed % 5) as f64
            }
        };
        let rep = median_of_runs(9, 0, 2, f);
        assert!(rep.median < 110.0);
        assert!(rep.mean > 1e10); // the mean is wrecked — that's the point
        assert!(rep.variance > 0.0);
        assert_eq!(rep.nan_runs, 0);
    }

    #[test]
    fn nan_runs_are_counted_not_fatal() {
        // A degenerate repetition (0/0 → NaN) must not panic the driver or
        // poison the median.
        let f = |seed: u64| {
            if seed % 4 == 1 {
                f64::NAN
            } else {
                50.0 + (seed % 3) as f64
            }
        };
        for threads in [1, 3] {
            let rep = median_of_runs(11, 0, threads, f);
            assert_eq!(rep.nan_runs, 3, "seeds 1, 5, 9");
            assert_eq!(rep.runs.len(), 11);
            assert!(rep.runs[1].is_nan(), "NaNs stay visible in the run vector");
            assert!(rep.median >= 50.0 && rep.median <= 52.0);
            assert!(rep.mean.is_finite());
            assert!(rep.variance.is_finite());
        }
    }

    #[test]
    fn all_nan_runs_yield_nan_summary() {
        let rep = median_of_runs(3, 0, 1, |_| f64::NAN);
        assert_eq!(rep.nan_runs, 3);
        assert!(rep.median.is_nan());
        assert!(rep.mean.is_nan());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_reps_panics() {
        median_of_runs(0, 0, 1, |_| 0.0);
    }

    #[test]
    fn quorum_is_majority_plus_one_capped() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 3);
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 4);
        assert_eq!(quorum(15), 9);
        assert_eq!(quorum(16), 9);
    }

    #[test]
    fn survivor_median_skips_dead_runs_in_order() {
        let runs = vec![Some(10.0), None, Some(30.0), Some(20.0), None];
        let rep = median_of_survivors(&runs, 3).expect("3 survivors meet quorum 3");
        assert_eq!(
            rep.runs,
            vec![10.0, 30.0, 20.0],
            "repetition order, dead slots removed"
        );
        assert_eq!(rep.dead_runs, 2);
        assert_eq!(rep.nan_runs, 0);
        assert_eq!(rep.median, 20.0);
    }

    #[test]
    fn below_quorum_is_a_typed_degraded_error() {
        let runs = vec![Some(1.0), None, None, None, None];
        let err = median_of_survivors(&runs, quorum(5)).unwrap_err();
        assert_eq!(
            err,
            DegradedRun {
                survivors: 1,
                required: 4,
                repetitions: 5
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("1 of 5"), "{msg}");
        assert!(msg.contains("need 4"), "{msg}");
    }

    #[test]
    fn zero_min_survivors_still_requires_one() {
        let err = median_of_survivors(&[None, None], 0).unwrap_err();
        assert_eq!(err.required, 1);
        let ok = median_of_survivors(&[Some(7.0), None], 0).unwrap();
        assert_eq!(ok.median, 7.0);
        assert_eq!(ok.dead_runs, 1);
    }

    #[test]
    fn collect_runs_matches_median_of_runs_seed_schedule() {
        let f = |seed: u64| (seed % 13) as f64;
        for threads in [1, 4] {
            let direct = median_of_runs(17, 42, threads, f);
            let collected = collect_runs(17, 42, threads, f);
            assert_eq!(direct.runs, collected);
        }
    }
}
