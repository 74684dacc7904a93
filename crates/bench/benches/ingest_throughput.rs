//! Ingest throughput: text vs `.adjb` trace encoding, on the batch bench's
//! file-backed ER workload (the gnm graph the δ = 0.05 drivers replay).
//!
//! Two regimes, answering different questions:
//!
//! * **file-backed** — every pass re-reads and re-parses the trace from
//!   disk, the regime the adjacency-list model targets (state ≪ stream).
//!   Here the decode cost dominates and the binary container pays off;
//!   the headline is `.adjb` vs text.
//! * **in-memory** — items already resident: the floor set by the pass
//!   loop and the algorithm alone, with no decode.
//!
//! Runs under `cargo bench -p adjstream-bench --bench ingest_throughput`.
//! Set `BENCH_QUICK=1` to shrink the workload for CI smoke runs. Results
//! are printed as a table and written as JSON to `BENCH_ingest.json`
//! (override with `BENCH_INGEST_OUT`).

use adjstream_bench::report::Table;
use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream_graph::gen;
use adjstream_stream::trace::ItemTrace;
use adjstream_stream::{run_slice_passes, AdjListStream, StreamItem, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

struct Row {
    case: &'static str,
    format: &'static str,
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

fn read_trace(path: &Path) -> Vec<StreamItem> {
    // `fs::read` sizes the buffer from metadata — one allocation, one read —
    // so both formats pay the same I/O and differ only in decode cost.
    let bytes = std::fs::read(path).expect("read trace file");
    ItemTrace::from_bytes_unchecked(&bytes)
        .expect("parse trace file")
        .into_items()
}

/// Time `body` `runs` times and keep the minimum — the least-noise sample
/// on a shared machine. Returns (wall seconds, estimate) and asserts every
/// run reproduced the reference output bit for bit.
fn timed<F: FnMut() -> f64>(runs: usize, reference: Option<f64>, mut body: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut est = f64::NAN;
    for _ in 0..runs {
        let t0 = Instant::now();
        est = body();
        best = best.min(t0.elapsed().as_secs_f64());
        if let Some(want) = reference {
            assert_eq!(est.to_bits(), want.to_bits(), "outputs must be identical");
        }
    }
    (best, est)
}

fn main() {
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let mode = if quick { "quick" } else { "full" };
    let (n, m) = if quick {
        (20_000usize, 60_000usize)
    } else {
        (200_000, 400_000)
    };
    let runs = if quick { 1 } else { 3 };
    let budget = (m as f64).sqrt().ceil() as usize;

    eprintln!("ingest_throughput ({mode}): generating gnm({n}, {m})...");
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::gnm(n, m, &mut rng);
    let items = AdjListStream::new(&g, StreamOrder::shuffled(n, 13)).collect_items();
    let trace = ItemTrace::new_unchecked(items);
    let items_per_pass = trace.len();
    let passes = 2usize;
    let deliveries = (items_per_pass * passes) as f64;

    let dir = std::env::temp_dir();
    let text_path = dir.join("adjstream_ingest_bench.txt");
    let adjb_path = dir.join("adjstream_ingest_bench.adjb");
    let mut f = BufWriter::new(std::fs::File::create(&text_path).expect("create text trace"));
    for it in trace.items() {
        writeln!(f, "{} {}", it.src.0, it.dst.0).expect("write text trace");
    }
    f.flush().expect("flush text trace");
    let mut f = BufWriter::new(std::fs::File::create(&adjb_path).expect("create adjb trace"));
    trace.write_adjb(&mut f).expect("write adjb trace");
    f.flush().expect("flush adjb trace");
    let text_bytes = std::fs::metadata(&text_path).expect("stat").len();
    let adjb_bytes = std::fs::metadata(&adjb_path).expect("stat").len();

    let mut rows = Vec::new();
    let mut reference: Option<f64> = None;
    let file_cases: [(&str, &Path); 2] = [("text", &text_path), ("adjb", &adjb_path)];
    for (format, path) in file_cases {
        eprintln!("ingest_throughput ({mode}): file_backed {format}...");
        let (wall, est) = timed(runs, reference, || {
            let (out, _) =
                run_slice_passes(algo(budget), |_p| read_trace(path)).expect("trusted stream");
            out.estimate
        });
        // Every later case must reproduce the text baseline estimate bit
        // for bit — ingest speed must not change answers.
        reference.get_or_insert(est);
        rows.push(Row {
            case: "file_backed",
            format,
            wall_secs: wall,
            items_per_sec: deliveries / wall,
        });
    }

    eprintln!("ingest_throughput ({mode}): in_memory...");
    let (wall, _) = timed(runs, reference, || {
        let (out, _) = run_slice_passes(algo(budget), |_p| trace.items()).expect("trusted stream");
        out.estimate
    });
    rows.push(Row {
        case: "in_memory",
        format: "resident",
        wall_secs: wall,
        items_per_sec: deliveries / wall,
    });

    let wall_of = |format: &str| {
        rows.iter()
            .find(|r| r.case == "file_backed" && r.format == format)
            .map(|r| r.wall_secs)
            .expect("row present")
    };
    let file_speedup = wall_of("text") / wall_of("adjb");

    let mut table = Table::new(["case", "format", "wall [s]", "items/s"]);
    for r in &rows {
        table.row([
            r.case.to_string(),
            r.format.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.3e}", r.items_per_sec),
        ]);
    }
    eprintln!("\n{}", table.render());
    eprintln!(
        "trace bytes: text {text_bytes}, adjb {adjb_bytes} ({:.2}x smaller)",
        text_bytes as f64 / adjb_bytes as f64
    );
    eprintln!("speedup: file_backed adjb vs text {file_speedup:.2}x");

    // All strings are static identifiers — no escaping needed.
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"ingest_throughput\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"n\": {n},\n  \"m\": {m},\n"));
    out.push_str(&format!(
        "  \"items_per_pass\": {items_per_pass},\n  \"passes\": {passes},\n"
    ));
    out.push_str(&format!(
        "  \"trace_bytes\": {{\"text\": {text_bytes}, \"adjb\": {adjb_bytes}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"format\": \"{}\", \
             \"wall_secs\": {:.4}, \"items_per_sec\": {:.0}}}{}\n",
            r.case,
            r.format,
            r.wall_secs,
            r.items_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"speedup\": {{\"file_backed_adjb\": {file_speedup:.3}}}\n"
    ));
    out.push_str("}\n");

    let out_path = std::env::var("BENCH_INGEST_OUT").unwrap_or_else(|_| "BENCH_ingest.json".into());
    std::fs::write(&out_path, out).expect("write bench JSON");
    eprintln!("wrote {out_path}");
    let _ = std::fs::remove_file(&text_path);
    let _ = std::fs::remove_file(&adjb_path);
}
