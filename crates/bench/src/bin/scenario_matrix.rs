//! Cross-mode differential conformance harness over the scenario corpus.
//!
//! Drives every corpus entry ([`adjstream_bench::scenario`]) through the
//! full execution-mode matrix and asserts that the Theorem 3.7
//! shard-mergeable estimator returns *bit-identical* estimates in every
//! mode — the flywheel that keeps the batched engine, graph sharding,
//! mmap replay, and the ingestion guard honest against the plain
//! sequential driver on realistically-shaped instances:
//!
//! | mode                  | what it exercises                               |
//! |-----------------------|-------------------------------------------------|
//! | sequential            | reference: one in-process replay per pass       |
//! | batched-t1/t4         | stream-once batched engine, 1 and 4 threads     |
//! | sharded-2/8           | graph-sharded scale-out, per-shard merge        |
//! | mmap                  | zero-copy `.adjb` replay, windowed checksum     |
//! | guarded-repair        | seeded faults injected, repaired inline         |
//! | guarded-repair-shard2 | same faults repaired once upstream, then sharded|
//!
//! The injected faults are the two *removable* kinds (self-loops and
//! duplicate items): repairing them restores the clean stream exactly, so
//! even the guarded modes must land on the reference bits, and the two
//! guarded modes must report identical [`GuardStats`].
//!
//! Output: a schema-versioned `CORPUS.json` (`--out`) plus optional
//! per-scenario metrics snapshots (`--metrics-out DIR`). Exit code 1 on
//! any divergence.
//!
//! ```text
//! cargo run --release -p adjstream-bench --bin scenario_matrix -- \
//!     --scale reduced --out CORPUS.json --metrics-out corpus-metrics/
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

use adjstream_bench::report::Table;
use adjstream_bench::scenario::{corpus, Scale, Scenario, CORPUS_SCHEMA_VERSION};
use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{ShardedTriangle, ShardedTriangleConfig};
use adjstream_stream::batch::{BatchConfig, BatchJob};
use adjstream_stream::fault::{FaultKind, FaultPlan};
use adjstream_stream::mmapfile::MappedTrace;
use adjstream_stream::obs::Metrics;
use adjstream_stream::runner::{run_slice_passes, GuardStats};
use adjstream_stream::shard::{run_sharded_hooked, ShardPlan};
use adjstream_stream::trace::ItemTrace;
use adjstream_stream::{guard_items, GuardPolicy, Guarded};

/// One mode's result on one scenario.
struct ModeResult {
    mode: &'static str,
    estimate: f64,
    wall_ms: f64,
    peak_bytes: usize,
    guard: Option<GuardStats>,
}

fn config(seed: u64, items: usize) -> ShardedTriangleConfig {
    ShardedTriangleConfig {
        seed: seed ^ 0x00C0_FFEE,
        edge_sampling: EdgeSampling::BottomK {
            k: (items / 8).max(8),
        },
        pair_capacity: (items / 8).max(8),
    }
}

fn run_modes(
    sc: &Scenario,
    metrics_dir: Option<&Path>,
    tmp_dir: &Path,
) -> Result<Vec<ModeResult>, String> {
    let items = &sc.items;
    let cfg = config(sc.seed, items.len().max(1));
    let mut results = Vec::new();

    // Reference: plain sequential replay.
    let t0 = Instant::now();
    let (want, want_report) = run_slice_passes(ShardedTriangle::new(cfg), |_pass| &items[..])
        .map_err(|e| format!("sequential run failed: {e}"))?;
    results.push(ModeResult {
        mode: "sequential",
        estimate: want.estimate,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        peak_bytes: want_report.peak_state_bytes,
        guard: None,
    });

    // Batched engine, 1 and 4 worker threads.
    for (mode, threads) in [("batched-t1", 1usize), ("batched-t4", 4)] {
        let t0 = Instant::now();
        let outcome = BatchJob::new(
            vec![ShardedTriangle::new(cfg)],
            &BatchConfig::with_threads(threads),
        )
        .and_then(|job| job.run(|_pass| &items[..], |_| Ok(())))
        .map_err(|e| format!("{mode} run failed: {e}"))?;
        let est = outcome.outputs[0]
            .as_ref()
            .ok_or_else(|| format!("{mode}: instance quarantined"))?;
        results.push(ModeResult {
            mode,
            estimate: est.estimate,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            peak_bytes: outcome.report.per_instance[0].peak_state_bytes,
            guard: None,
        });
    }

    // Graph-sharded scale-out at 2 and 8 shards. The 2-shard run feeds
    // the per-scenario metrics snapshot.
    for (mode, shards) in [("sharded-2", 2usize), ("sharded-8", 8)] {
        let metrics = if shards == 2 && metrics_dir.is_some() {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        };
        let plan = ShardPlan::build(items, shards);
        let t0 = Instant::now();
        let (got, report) = run_sharded_hooked(
            ShardedTriangle::new(cfg),
            &plan,
            items,
            &metrics,
            |_| Ok(()),
        )
        .map_err(|e| format!("{mode} run failed: {e}"))?;
        if let (Some(dir), Some(snap)) = (metrics_dir.filter(|_| shards == 2), metrics.snapshot()) {
            let path = dir.join(format!("{}.json", slug(&sc.name)));
            std::fs::write(&path, snap.to_json())
                .map_err(|e| format!("writing metrics snapshot {}: {e}", path.display()))?;
        }
        results.push(ModeResult {
            mode,
            estimate: got.estimate,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            peak_bytes: report.peak_state_bytes,
            guard: None,
        });
    }

    // Zero-copy mmap replay of the serialized trace.
    {
        let path = tmp_dir.join(format!("{}.adjb", slug(&sc.name)));
        let trace = ItemTrace::new_unchecked(items.clone());
        let mut f = File::create(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        trace
            .write_adjb(&mut f)
            .map_err(|e| format!("serializing {}: {e}", path.display()))?;
        drop(f);
        let t0 = Instant::now();
        let mut mapped =
            MappedTrace::open(&path).map_err(|e| format!("mmap {}: {e}", path.display()))?;
        mapped
            .verify_all(1 << 20)
            .map_err(|e| format!("mmap verify {}: {e}", path.display()))?;
        let (got, report) = run_slice_passes(ShardedTriangle::new(cfg), |_pass| mapped.items())
            .map_err(|e| format!("mmap run failed: {e}"))?;
        let _ = std::fs::remove_file(&path);
        results.push(ModeResult {
            mode: "mmap",
            estimate: got.estimate,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            peak_bytes: report.peak_state_bytes,
            guard: None,
        });
    }

    // Guarded repair under injected faults. Only removable kinds: the
    // repair restores the clean stream, so the estimate must still match.
    let corrupted = FaultPlan::new(sc.seed ^ 0xF417)
        .with(FaultKind::InjectSelfLoop, 3)
        .with(FaultKind::DuplicateItem, 3)
        .apply(items);
    {
        let t0 = Instant::now();
        let (got, report) = run_slice_passes(
            Guarded::new(ShardedTriangle::new(cfg), GuardPolicy::Repair),
            |pass| corrupted.items_for_pass(pass),
        )
        .map_err(|e| format!("guarded-repair run failed: {e}"))?;
        results.push(ModeResult {
            mode: "guarded-repair",
            estimate: got.estimate,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            peak_bytes: report.peak_state_bytes,
            guard: report.guard,
        });
    }
    {
        // Repair once upstream, then shard — the CLI's construction.
        let t0 = Instant::now();
        let (fixed, repair_stats) = guard_items(corrupted.items(), GuardPolicy::Repair)
            .map_err(|e| format!("upstream repair failed: {e}"))?;
        let plan = ShardPlan::build(&fixed, 2);
        let (got, report) = run_sharded_hooked(
            ShardedTriangle::new(cfg),
            &plan,
            &fixed,
            &Metrics::disabled(),
            |_| Ok(()),
        )
        .map_err(|e| format!("guarded-repair-shard2 run failed: {e}"))?;
        results.push(ModeResult {
            mode: "guarded-repair-shard2",
            estimate: got.estimate,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            peak_bytes: report.peak_state_bytes,
            guard: Some(repair_stats),
        });
    }

    Ok(results)
}

/// Check one scenario's mode results against the reference (index 0).
/// Returns human-readable divergence descriptions (empty = conformant).
fn divergences(results: &[ModeResult]) -> Vec<String> {
    let mut bad = Vec::new();
    let want = results[0].estimate.to_bits();
    for r in &results[1..] {
        if r.estimate.to_bits() != want {
            bad.push(format!(
                "{}: estimate {:.6} (bits {:#018x}) != reference {:.6} (bits {:#018x})",
                r.mode,
                r.estimate,
                r.estimate.to_bits(),
                results[0].estimate,
                want
            ));
        }
    }
    let guards: Vec<&GuardStats> = results.iter().filter_map(|r| r.guard.as_ref()).collect();
    // The semantic counters must agree; validator_peak_bytes is guard
    // *overhead* and legitimately differs between an inline multi-pass
    // guard and a one-pass upstream repair.
    let semantic = |g: &GuardStats| (g.faults_detected, g.items_repaired, g.edges_quarantined);
    if guards.len() == 2 && semantic(guards[0]) != semantic(guards[1]) {
        bad.push(format!(
            "guard stats diverge between guarded modes: {:?} != {:?}",
            guards[0], guards[1]
        ));
    }
    if let Some(g) = guards.first() {
        if g.faults_detected == 0 {
            bad.push("guarded mode detected no injected faults".to_string());
        }
    }
    bad
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Reduced;
    let mut out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("bad --scale (smoke|reduced|full)");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                i += 1;
                out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })));
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a directory");
                    std::process::exit(2);
                })));
            }
            other => {
                eprintln!("unknown flag {other:?}");
                eprintln!(
                    "usage: scenario_matrix [--scale smoke|reduced|full] [--out CORPUS.json] [--metrics-out DIR]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(dir) = &metrics_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --metrics-out {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let tmp_dir = std::env::temp_dir().join(format!("scenario-matrix-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp_dir) {
        eprintln!("cannot create temp dir {}: {e}", tmp_dir.display());
        std::process::exit(2);
    }

    let scenarios = corpus(scale);
    let mut table = Table::new([
        "scenario", "family", "items", "truth", "estimate", "modes", "agree",
    ]);
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"schema\":{CORPUS_SCHEMA_VERSION},\"scale\":\"{scale}\",\"scenarios\":["
    );
    let mut failures = 0usize;
    for (idx, sc) in scenarios.iter().enumerate() {
        let results = match run_modes(sc, metrics_out.as_deref(), &tmp_dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", sc.name);
                failures += 1;
                continue;
            }
        };
        let bad = divergences(&results);
        for b in &bad {
            eprintln!("{}: DIVERGENCE: {b}", sc.name);
        }
        failures += bad.len();
        table.row([
            sc.name.clone(),
            sc.family.to_string(),
            sc.items.len().to_string(),
            sc.truth.to_string(),
            format!("{:.2}", results[0].estimate),
            results.len().to_string(),
            if bad.is_empty() {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
        if idx > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"name\":\"{}\",\"family\":\"{}\",\"seed\":{},\"items\":{},\"checksum\":\"{:#018x}\",\
             \"truth\":{},\"agree\":{},\"modes\":[",
            json_escape(&sc.name),
            sc.family,
            sc.seed,
            sc.items.len(),
            sc.checksum,
            sc.truth,
            bad.is_empty()
        );
        for (j, r) in results.iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"mode\":\"{}\",\"estimate\":{},\"estimate_bits\":\"{:#018x}\",\
                 \"wall_ms\":{:.3},\"peak_bytes\":{}",
                r.mode,
                r.estimate,
                r.estimate.to_bits(),
                r.wall_ms,
                r.peak_bytes
            );
            if let Some(g) = &r.guard {
                let _ = write!(
                    json,
                    ",\"guard\":{{\"faults_detected\":{},\"items_repaired\":{},\"edges_quarantined\":{}}}",
                    g.faults_detected, g.items_repaired, g.edges_quarantined
                );
            }
            json.push('}');
        }
        json.push_str("]}");
    }
    let _ = write!(json, "],\"failures\":{failures}}}");
    let _ = std::fs::remove_dir_all(&tmp_dir);

    println!("{}", table.render());
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("report: {}", path.display());
    }
    if failures > 0 {
        eprintln!("scenario-matrix: {failures} divergence(s)");
        std::process::exit(1);
    }
    println!(
        "scenario-matrix: all {} scenarios bit-identical across all modes",
        scenarios.len()
    );
}
