//! `bench_e2e compare A.json B.json`: judge every (end-to-end metric,
//! workload) pair of two result files against the bounds in
//! `BENCHMARK.json`. A file holds one run per workload per seed; each
//! side's values are the metric's per-run values.

use crate::json::{parse, Json};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Either side's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for moving from values `a` to values `b` of one metric, where
/// `bound` is the share of `a`'s median by which `b` may be worse.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    if spread(a).max(spread(b)) > bound {
        // Too noisy to call, unless every run of B beats every run of A.
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma;
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".into())
}

/// The run records of a results file.
fn runs(results: &Json) -> Result<&[Json], String> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "results file has no runs list".into())
}

fn workload(run: &Json) -> &str {
    run.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn values(runs: &[Json], w: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| workload(r) == w)
        .filter_map(|r| r.path(&format!("end_to_end.{metric}.value"))?.as_f64())
        .collect()
}

/// Failed ÷ attempted over every run of workload `w`.
fn error_rate(runs: &[Json], w: &str) -> f64 {
    let total = |key: &str| -> f64 {
        runs.iter()
            .filter(|r| workload(r) == w)
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    };
    total("failed") / total("attempted").max(1.0)
}

fn describe(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
}

/// Run the subcommand; `Ok(true)` when no pair regressed or is
/// unresolved.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: bench_e2e compare A.json B.json".into());
    };
    let bounds = bounds(&load("BENCHMARK.json")?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (a, b) = (runs(&a)?, runs(&b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in a {
        if !workloads.contains(&workload(r)) {
            workloads.push(workload(r));
        }
    }
    println!("metric/workload: A median [q1, q3] -> B median [q1, q3], change, bound: verdict");
    let mut clean = true;
    for w in workloads {
        for m in &bounds {
            let (va, vb) = (values(a, w, &m.name), values(b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m.bound, m.lower_is_better);
            clean &= matches!(v, Verdict::Improved | Verdict::Unchanged);
            println!(
                "{}/{w}: {} -> {}, {:+.2}%, {:.0}%: {}",
                m.name,
                describe(&va),
                describe(&vb),
                100.0 * (median(&vb) / median(&va) - 1.0),
                100.0 * m.bound,
                v.name()
            );
        }
        // Any rise in the error rate is a regression.
        let (ea, eb) = (error_rate(a, w), error_rate(b, w));
        let v = if eb > ea {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        clean &= v == Verdict::Unchanged;
        println!("error_rate/{w}: {ea} -> {eb}: {}", v.name());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within a 10% bound either way.
        assert_eq!(
            verdict(&a, &[1.05, 1.04, 1.06], 0.10, true),
            Verdict::Unchanged
        );
        // 20% slower, lower is better.
        assert_eq!(
            verdict(&a, &[1.2, 1.21, 1.19], 0.10, true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[0.8, 0.81, 0.79], 0.10, true),
            Verdict::Improved
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(&a, &[0.8, 0.81, 0.79], 0.10, false),
            Verdict::Regressed
        );
        // B's quartiles are 90% of its median apart: unresolved ...
        let noisy = [0.5, 1.0, 1.5, 0.6, 1.4];
        assert_eq!(verdict(&a, &noisy, 0.10, true), Verdict::Unresolved);
        // ... unless every B run beats every A run.
        let fast_noisy = [0.3, 0.6, 0.9, 0.35, 0.85];
        assert_eq!(verdict(&a, &fast_noisy, 0.10, true), Verdict::Improved);
        // Single runs have no spread to speak of.
        assert_eq!(verdict(&[2.0], &[2.1], 0.07, true), Verdict::Unchanged);
    }
}
