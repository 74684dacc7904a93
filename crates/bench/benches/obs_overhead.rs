//! Observability overhead: the metrics layer's cost on the two-pass
//! triangle hot path, in three variants over the same resident stream:
//!
//! * **plain** — `run_slice_passes`, the pre-observability entry point;
//! * **disabled** — `run_slice_passes_observed` with a disabled sink, the
//!   path every existing caller now takes (must be within noise of plain);
//! * **enabled** — a collecting sink (contract: < 10% overhead).
//!
//! All three must produce bit-identical estimates — observation never
//! changes answers. The enabled run's snapshot is embedded in the JSON
//! output so the bench doubles as a schema example.
//!
//! Runs under `cargo bench -p adjstream-bench --bench obs_overhead`.
//! Set `BENCH_QUICK=1` to shrink the workload for CI smoke runs. Results
//! are printed as a table and written as JSON to `BENCH_obs.json`
//! (override with `BENCH_OBS_OUT`).

use adjstream_bench::report::Table;
use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream_graph::gen;
use adjstream_stream::obs::Metrics;
use adjstream_stream::{run_slice_passes, run_slice_passes_observed, AdjListStream, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Row {
    variant: &'static str,
    wall_secs: f64,
    items_per_sec: f64,
}

fn algo(budget: usize) -> TwoPassTriangle {
    TwoPassTriangle::new(TwoPassTriangleConfig {
        seed: 42,
        edge_sampling: EdgeSampling::BottomK { k: budget },
        pair_capacity: budget,
    })
}

/// The three variants, in table order.
const VARIANTS: [&str; 3] = ["plain", "disabled", "enabled"];

/// Shortest timed span per variant and repetition: a single run of a few
/// milliseconds is at the mercy of one scheduler hiccup on a shared host,
/// so each repetition repeats the runs until every variant has run this
/// long.
const MIN_TIMED_SECS: f64 = 0.15;

fn main() {
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let mode = if quick { "quick" } else { "full" };
    let (n, m) = if quick {
        (20_000usize, 60_000usize)
    } else {
        (200_000, 400_000)
    };
    let reps = if quick { 5 } else { 7 };
    let budget = (m as f64).sqrt().ceil() as usize;

    eprintln!("obs_overhead ({mode}): generating gnm({n}, {m})...");
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::gnm(n, m, &mut rng);
    let items = AdjListStream::new(&g, StreamOrder::shuffled(n, 13)).collect_items();

    let sink = Metrics::enabled();
    let disabled = Metrics::disabled();
    // One run of `variant`, returning its estimate.
    let run = |variant: &str| {
        let (out, _) = match variant {
            "plain" => run_slice_passes(algo(budget), |_p| &items[..]),
            "disabled" => run_slice_passes_observed(algo(budget), |_p| &items[..], &disabled),
            _ => run_slice_passes_observed(algo(budget), |_p| &items[..], &sink),
        }
        .expect("trusted stream");
        out.estimate
    };

    let reference = run("plain");
    eprintln!("obs_overhead ({mode}): {reps} repetitions of interleaved runs...");

    // Each repetition runs the three variants in turn, the variant that
    // goes first rotating, until each has run for MIN_TIMED_SECS, and
    // adds up each variant's runs, so a slow spell on the host lands on
    // all three alike. Each variant keeps its fastest repetition, and
    // every run must reproduce the reference estimate bit for bit.
    let mut best = [f64::INFINITY; 3];
    for _ in 0..reps {
        let mut spent = [0.0; 3];
        let mut rounds = 0;
        while spent.iter().any(|&s| s < MIN_TIMED_SECS) {
            for k in 0..VARIANTS.len() {
                let v = (rounds + k) % VARIANTS.len();
                let t0 = Instant::now();
                let est = run(VARIANTS[v]);
                spent[v] += t0.elapsed().as_secs_f64();
                assert_eq!(
                    est.to_bits(),
                    reference.to_bits(),
                    "outputs must be identical"
                );
            }
            rounds += 1;
        }
        for (best, spent) in best.iter_mut().zip(spent) {
            *best = best.min(spent / rounds as f64);
        }
    }
    let deliveries = (items.len() * 2) as f64;
    let rows: Vec<Row> = VARIANTS
        .iter()
        .zip(best)
        .map(|(&variant, wall_secs)| Row {
            variant,
            wall_secs,
            items_per_sec: deliveries / wall_secs,
        })
        .collect();
    let snapshot = sink.snapshot().expect("enabled sink collected");

    let wall_of = |variant: &str| {
        rows.iter()
            .find(|r| r.variant == variant)
            .map(|r| r.wall_secs)
            .expect("row present")
    };
    let disabled_ratio = wall_of("disabled") / wall_of("plain");
    let enabled_ratio = wall_of("enabled") / wall_of("plain");

    let mut table = Table::new(["variant", "wall [s]", "items/s", "vs plain"]);
    for r in &rows {
        table.row([
            r.variant.to_string(),
            format!("{:.4}", r.wall_secs),
            format!("{:.3e}", r.items_per_sec),
            format!("{:.3}x", r.wall_secs / wall_of("plain")),
        ]);
    }
    eprintln!("\n{}", table.render());
    eprintln!("overhead: disabled {disabled_ratio:.3}x, enabled {enabled_ratio:.3}x");

    // The whole point of the sink-gated design: observation must be free
    // when off and cheap when on. Interleaved runs, at least
    // MIN_TIMED_SECS of each variant per repetition and the fastest
    // repetition kept, keep shared-machine noise out of the ratio; 10% is
    // the documented contract with a small allowance on the disabled side
    // for measurement jitter.
    assert!(
        disabled_ratio < 1.10,
        "disabled sink costs {disabled_ratio:.3}x over plain (contract: within noise)"
    );
    assert!(
        enabled_ratio < 1.10,
        "enabled sink costs {enabled_ratio:.3}x over plain (contract: < 10%)"
    );

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"obs_overhead\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"n\": {n},\n  \"m\": {m},\n"));
    out.push_str(&format!("  \"items_per_pass\": {},\n", items.len()));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"wall_secs\": {:.4}, \"items_per_sec\": {:.0}}}{}\n",
            r.variant,
            r.wall_secs,
            r.items_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"overhead\": {{\"disabled\": {disabled_ratio:.4}, \"enabled\": {enabled_ratio:.4}}},\n"
    ));
    out.push_str(&format!("  \"metrics\": {}\n", snapshot.to_json()));
    out.push_str("}\n");

    let out_path = std::env::var("BENCH_OBS_OUT").unwrap_or_else(|_| "BENCH_obs.json".into());
    std::fs::write(&out_path, out).expect("write bench JSON");
    eprintln!("wrote {out_path}");
}
