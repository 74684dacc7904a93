//! Order statistics for the benchmark's reports.

/// Sorted copy of `values` (NaN-free input assumed: every value is a
/// measured time, size or rate).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// The highest whole percentile that still has at least ten samples
/// above its nearest-rank position, or `None` when that would fall below
/// the median (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100 * (n - 10) / n) as u32)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method, interpolating on
/// `(n + 1)` positions).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = ld as i64 + 1;
            let at = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against. Zero for fewer than two
/// values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 10.0);
        assert_eq!(percentile(&v, 90), 18.0);
        assert_eq!(percentile(&v, 100), 20.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(54), Some(81));
        assert_eq!(tail_percentile(100), Some(90));
        for n in 20..500 {
            let p = tail_percentile(n).unwrap() as usize;
            let rank = (p * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n} p={p}");
            // One percentile higher would leave fewer than ten beyond.
            let rank_up = ((p + 1) * n).div_ceil(100);
            assert!(n - rank_up < 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 4.5));
        let (q1, q3) = quartiles(&[0.5, 0.52, 0.51, 0.7, 0.49, 0.5, 0.53, 0.55, 0.48, 0.6]);
        assert!((q1 - 0.4975).abs() < 1e-12 && (q3 - 0.5625).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
        // IQR 8.25 − 2.75 over median 5.5.
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
