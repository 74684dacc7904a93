//! Graph-sharded scale-out: aggregate estimation throughput at 1/2/4/8
//! shards, plus mmap vs slurp `.adjb` replay.
//!
//! Two families of rows:
//!
//! * **scaling** — the shard-mergeable three-pass triangle estimator over
//!   an owner-partitioned gnm trace. Shards are driven one at a time
//!   through the process-mode building blocks so each per-shard wall is
//!   measured in isolation; the reported rate is
//!   `deliveries / Σ_pass max_shard wall` — the critical-path (aggregate)
//!   throughput N truly parallel workers would sustain. On a 1-CPU host
//!   concurrent threads only timeshare, so this isolated-wall metric is
//!   the honest capacity number, and it is labelled as such.
//! * **replay** — one full single-shard estimation including trace
//!   acquisition: `slurp` reads + decodes the file into memory, `mmap`
//!   maps it and replays zero-copy with windowed checksum verification.
//!
//! Every row must reproduce the same estimate bit for bit — scale-out
//! must not change answers. Runs under
//! `cargo bench -p adjstream-bench --bench shard_scaling`; `BENCH_QUICK=1`
//! shrinks the workload; output JSON goes to `BENCH_shard.json`
//! (override with `BENCH_SHARD_OUT`).

use adjstream_bench::report::Table;
use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{ShardedTriangle, ShardedTriangleConfig};
use adjstream_graph::gen;
use adjstream_stream::checkpoint::Checkpoint;
use adjstream_stream::runner::MultiPassAlgorithm;
use adjstream_stream::shard::{merge_shard_states, run_shard_pass_blob, ShardPlan};
use adjstream_stream::trace::ItemTrace;
use adjstream_stream::{AdjListStream, MappedTrace, StreamItem, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

struct Row {
    case: &'static str,
    variant: String,
    wall_secs: f64,
    items_per_sec: f64,
}

fn config(budget: usize) -> ShardedTriangleConfig {
    ShardedTriangleConfig {
        seed: 42,
        edge_sampling: EdgeSampling::BottomK { k: budget },
        pair_capacity: budget,
    }
}

/// Run the estimator over `items` sharded `n` ways, timing each shard's
/// share of each pass in isolation. Returns the estimate and the
/// critical-path wall `Σ_pass max_shard wall`.
fn sharded_critical_path(items: &[StreamItem], n: usize, budget: usize) -> (f64, f64) {
    let plan = ShardPlan::build(items, n);
    let mut algo = ShardedTriangle::new(config(budget));
    let passes = MultiPassAlgorithm::passes(&algo);
    let mut critical = 0.0f64;
    for pass in 0..passes {
        let mut base = Vec::new();
        algo.save(&mut base).expect("serialize boundary state");
        let mut slowest = 0.0f64;
        let mut blobs = Vec::with_capacity(n);
        for shard in 0..n {
            let t0 = Instant::now();
            let blob =
                run_shard_pass_blob::<ShardedTriangle>(&base, pass, items, plan.runs_for(shard))
                    .expect("shard pass");
            slowest = slowest.max(t0.elapsed().as_secs_f64());
            blobs.push(blob);
        }
        critical += slowest;
        algo = merge_shard_states::<ShardedTriangle>(&blobs, pass)
            .expect("merge")
            .0;
    }
    (algo.finish().estimate, critical)
}

/// One full single-shard run including trace acquisition from `path`.
fn replay(path: &Path, mmap: bool, budget: usize) -> f64 {
    let verify_window = 1 << 20;
    if mmap {
        let mut mapped = MappedTrace::open(path).expect("map trace");
        mapped.verify_all(verify_window).expect("verified");
        let (est, _) = sharded_run(mapped.items(), budget);
        est
    } else {
        let bytes = std::fs::read(path).expect("read trace");
        let trace = ItemTrace::from_bytes_unchecked(&bytes).expect("decode trace");
        let (est, _) = sharded_run(trace.items(), budget);
        est
    }
}

fn sharded_run(items: &[StreamItem], budget: usize) -> (f64, f64) {
    sharded_critical_path(items, 1, budget)
}

fn main() {
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let mode = if quick { "quick" } else { "full" };
    let (n, m) = if quick {
        (20_000usize, 60_000usize)
    } else {
        (120_000, 360_000)
    };
    let runs = if quick { 1 } else { 3 };
    let budget = (m as f64).sqrt().ceil() as usize;

    eprintln!("shard_scaling ({mode}): generating gnm({n}, {m})...");
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::gnm(n, m, &mut rng);
    let items = AdjListStream::new(&g, StreamOrder::shuffled(n, 13)).collect_items();
    let trace = ItemTrace::new_unchecked(items);
    let passes = 3usize;
    let deliveries = (trace.len() * passes) as f64;

    let adjb_path = std::env::temp_dir().join("adjstream_shard_bench.adjb");
    let mut f = BufWriter::new(std::fs::File::create(&adjb_path).expect("create trace"));
    trace.write_adjb(&mut f).expect("write trace");
    drop(f);

    let mut rows = Vec::new();
    let mut reference: Option<f64> = None;

    for shards in [1usize, 2, 4, 8] {
        eprintln!("shard_scaling ({mode}): {shards} shard(s)...");
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let (est, critical) = sharded_critical_path(trace.items(), shards, budget);
            match reference {
                None => reference = Some(est),
                Some(want) => assert_eq!(
                    est.to_bits(),
                    want.to_bits(),
                    "sharded estimate diverged at {shards} shards"
                ),
            }
            best = best.min(critical);
        }
        rows.push(Row {
            case: "scaling",
            variant: shards.to_string(),
            wall_secs: best,
            items_per_sec: deliveries / best,
        });
    }

    for (variant, mmap) in [("slurp", false), ("mmap", true)] {
        eprintln!("shard_scaling ({mode}): replay {variant}...");
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            let est = replay(&adjb_path, mmap, budget);
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                est.to_bits(),
                reference.expect("scaling rows ran first").to_bits(),
                "{variant} replay diverged"
            );
        }
        rows.push(Row {
            case: "replay",
            variant: variant.to_string(),
            wall_secs: best,
            items_per_sec: deliveries / best,
        });
    }

    let mut table = Table::new(["case", "variant", "wall [s]", "items/s"]);
    for r in &rows {
        table.row([
            r.case.to_string(),
            r.variant.clone(),
            format!("{:.3}", r.wall_secs),
            format!("{:.3e}", r.items_per_sec),
        ]);
    }
    eprintln!("\n{}", table.render());
    let one = rows[0].wall_secs;
    let eight = rows[3].wall_secs;
    eprintln!(
        "critical-path speedup 1 -> 8 shards: {:.2}x (isolated per-shard walls)",
        one / eight
    );

    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"shard_scaling\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    // Walls are sub-millisecond in quick mode; the gate needs headroom.
    out.push_str("  \"gate_tolerance\": 0.65,\n");
    out.push_str(&format!("  \"n\": {n},\n  \"m\": {m},\n"));
    out.push_str(&format!(
        "  \"deliveries\": {},\n  \"passes\": {passes},\n",
        deliveries as u64
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"variant\": \"{}\", \
             \"wall_secs\": {:.4}, \"items_per_sec\": {:.0}}}{}\n",
            r.case,
            r.variant,
            r.wall_secs,
            r.items_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"speedup_1_to_8\": {:.3}\n", one / eight));
    out.push_str("}\n");

    let out_path = std::env::var("BENCH_SHARD_OUT").unwrap_or_else(|_| "BENCH_shard.json".into());
    std::fs::write(&out_path, out).expect("write bench JSON");
    eprintln!("wrote {out_path}");
    let _ = std::fs::remove_file(&adjb_path);
}
