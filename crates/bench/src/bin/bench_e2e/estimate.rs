//! The three `estimate-stream` workloads: timed child runs of the shipped
//! CLI, and in-process replicas that call the same layer functions in the
//! order the CLI calls them, with a span around each call.

use std::time::Instant;

use adjstream_core::common::EdgeSampling;
use adjstream_core::triangle::{
    ShardedTriangle, ShardedTriangleConfig, TwoPassTriangle, TwoPassTriangleConfig,
};
use adjstream_graph::VertexId;
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::{
    drive_pass_slice, run_sharded_hooked, run_slice_passes, validate_stream, GuardPolicy, Guarded,
    ItemTrace, MappedTrace, Metrics, MultiPassAlgorithm, ObsCounters, ShardPlan, SpaceUsage,
    StreamItem,
};

use crate::fixtures::{Cli, Graph, Workload, SPARSE_BUDGET};
use crate::proc::{run, Exit};
use crate::spans::Recorder;

/// Shards of `repair-shard` (one thread each).
const SHARDS: usize = 2;
/// Checksum window the CLI verifies mmapped traces with.
const MMAP_VERIFY_WINDOW: usize = 1 << 20;

/// The `estimate-stream` invocation `w` times on graph `g`.
fn command(w: Workload, cli: &Cli, g: &Graph) -> std::process::Command {
    let mut c = cli.cmd();
    c.arg("estimate-stream")
        .arg(&g.adjb)
        .args(["--seed", &g.seed.to_string()]);
    if w != Workload::PowerlawDispatch {
        c.args(["--budget", &SPARSE_BUDGET.to_string()]);
    }
    if w == Workload::RepairShard {
        c.args([
            "--shards",
            &SHARDS.to_string(),
            "--mmap",
            "--policy",
            "repair",
        ]);
    }
    c
}

/// One timed child run and what it printed.
pub struct Rep {
    pub graph: usize,
    pub exit: Exit,
    /// The `estimate` line's value, verbatim (one decimal).
    pub estimate: Option<String>,
    pub peak_state: Option<u64>,
    pub faults: Option<usize>,
}

fn field<'a>(stdout: &'a str, label: &str) -> Option<&'a str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next())
}

fn rep(w: Workload, cli: &Cli, graphs: &[Graph], graph: usize) -> Result<Rep, String> {
    let exit = run(&command(w, cli, &graphs[graph]))?;
    Ok(Rep {
        graph,
        estimate: field(&exit.stdout, "estimate ").map(String::from),
        peak_state: field(&exit.stdout, "peak state ").and_then(|v| v.parse().ok()),
        faults: field(&exit.stdout, "guard ").and_then(|v| v.parse().ok()),
        exit,
    })
}

/// Time `estimate-stream` children after one warm-up, cycling over the
/// graphs, until `seconds` have passed, at least `min_reps` ran, and every
/// graph ran equally often. Returns the reps and the measured seconds.
pub fn measure(
    w: Workload,
    cli: &Cli,
    graphs: &[Graph],
    seconds: f64,
    min_reps: usize,
) -> Result<(Vec<Rep>, f64), String> {
    rep(w, cli, graphs, 0)?;
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while t0.elapsed().as_secs_f64() < seconds
        || reps.len() < min_reps
        || reps.len() % graphs.len() != 0
    {
        reps.push(rep(w, cli, graphs, reps.len() % graphs.len())?);
    }
    Ok((reps, t0.elapsed().as_secs_f64()))
}

/// What an in-process replica computed, for the checks and the
/// per-layer counts.
pub struct Replica {
    pub estimate: f64,
    /// Peak estimator state of one run (`None` for update jobs).
    pub peak_state: Option<u64>,
    pub faults: Option<usize>,
    /// Per-layer counts named as in the report (`trace.bytes`, ...).
    pub counts: Vec<(&'static str, f64)>,
}

/// Replay what `estimate-stream` does for `w` on `g`, in process.
pub fn replica(w: Workload, g: &Graph, rec: &mut Recorder) -> Result<Replica, String> {
    match w {
        Workload::RepairShard => replica_repair_shard(g, rec),
        Workload::SparseIngest => replica_validated(g, Some(SPARSE_BUDGET), rec),
        _ => replica_validated(g, None, rec),
    }
}

pub fn counter_counts(c: ObsCounters) -> [(&'static str, f64); 3] {
    [
        ("triangle.watches_started", c.watches_started as f64),
        ("triangle.pairs_stored", c.pairs_stored as f64),
        ("sampler.evictions", c.evictions as f64),
    ]
}

/// `estimate-stream FILE [--budget K]`: read, decode, validate, then two
/// slice-dispatched passes of the Theorem 3.7 estimator.
fn replica_validated(
    g: &Graph,
    budget: Option<usize>,
    rec: &mut Recorder,
) -> Result<Replica, String> {
    let root = rec.begin("rep");
    let bytes = rec
        .time("trace.read", || std::fs::read(&g.adjb))
        .map_err(|e| e.to_string())?;
    let trace_bytes = bytes.len();
    let trace = rec
        .time("trace.decode", || ItemTrace::from_bytes_unchecked(&bytes))
        .map_err(|e| e.to_string())?;
    let m = rec
        .time("validate", || {
            validate_stream(trace.items().iter().copied())
        })
        .map_err(|e| e.to_string())?;
    drop(bytes);
    let items = trace.items();
    let budget = budget.unwrap_or((m / 10).max(16));
    let mut algo = TwoPassTriangle::new(TwoPassTriangleConfig {
        seed: g.seed,
        edge_sampling: EdgeSampling::BottomK { k: budget },
        pair_capacity: budget,
    });
    let mut peak = PeakTracker::new();
    let mut processed = 0usize;
    let passes = algo.passes();
    for pass in 0..passes {
        rec.time(&format!("runner.pass{pass}"), || {
            drive_pass_slice(&mut algo, pass, items, &mut peak, &mut processed)
        })
        .map_err(|e| e.to_string())?;
    }
    let (counters, est) = rec.time("runner.finish", || (algo.obs_counters(), algo.finish()));
    rec.end(root);
    let lists = 1 + items.windows(2).filter(|p| p[0].src != p[1].src).count();
    let mut counts = vec![
        ("trace.bytes", trace_bytes as f64),
        ("validate.items", items.len() as f64),
        ("runner.slices", (lists * passes) as f64),
    ];
    counts.extend(counter_counts(counters.unwrap_or_default()));
    Ok(Replica {
        estimate: est.estimate,
        peak_state: Some(peak.peak() as u64),
        faults: None,
        counts,
    })
}

/// Collects the items a guard admits: run through [`Guarded`] it yields
/// the repaired stream, as the CLI's sharded path builds it.
#[derive(Default)]
struct CollectItems {
    items: Vec<StreamItem>,
}

impl SpaceUsage for CollectItems {
    fn space_bytes(&self) -> usize {
        self.items.len() * std::mem::size_of::<StreamItem>()
    }
}

impl MultiPassAlgorithm for CollectItems {
    type Output = Vec<StreamItem>;

    fn passes(&self) -> usize {
        1
    }

    fn begin_pass(&mut self, _pass: usize) {}

    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.items.push(StreamItem::new(src, dst));
    }

    fn finish(self) -> Vec<StreamItem> {
        self.items
    }
}

/// `estimate-stream FILE --shards 2 --mmap --policy repair`: map, verify
/// the checksum, repair the stream once upstream, plan the shards, then
/// three merged shard passes.
fn replica_repair_shard(g: &Graph, rec: &mut Recorder) -> Result<Replica, String> {
    let root = rec.begin("rep");
    let mut mapped = rec
        .time("mmapfile.open", || MappedTrace::open(&g.adjb))
        .map_err(|e| e.to_string())?;
    rec.time("mmapfile.verify", || mapped.verify_all(MMAP_VERIFY_WINDOW))
        .map_err(|e| e.to_string())?;
    let raw = mapped.items();
    let (fixed, guarded) = rec
        .time("guard", || {
            run_slice_passes(
                Guarded::new(CollectItems::default(), GuardPolicy::Repair),
                |_pass| raw,
            )
        })
        .map_err(|e| e.to_string())?;
    let plan = rec.time("shard.plan", || ShardPlan::build(&fixed, SHARDS));
    let cfg = ShardedTriangleConfig {
        seed: g.seed,
        edge_sampling: EdgeSampling::BottomK { k: SPARSE_BUDGET },
        pair_capacity: SPARSE_BUDGET,
    };
    let algo = ShardedTriangle::new(cfg);
    let passes = algo.passes();
    // An enabled sink adds the slowest shard's wall per pass; the CLI
    // runs without one, and the traced-run overhead metric shows the cost.
    let sink = if rec.is_enabled() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let run_span = rec.begin("shard.run");
    let mut current = rec.begin("shard.pass0");
    let result = run_sharded_hooked(algo, &plan, &fixed, &sink, |pass| {
        rec.end(current);
        current = if pass + 1 < passes {
            rec.begin(&format!("shard.pass{}", pass + 1))
        } else {
            rec.begin("shard.finish")
        };
        Ok(())
    });
    rec.end(current);
    rec.end(run_span);
    rec.end(root);
    let (est, report) = result.map_err(|e| e.to_string())?;

    let faults = guarded.guard.map(|s| s.faults_detected);
    let per_shard: Vec<f64> = (0..SHARDS)
        .map(|s| {
            let runs = plan.runs_for(s);
            runs.iter().map(|r| r.end - r.start).sum::<usize>() as f64
        })
        .collect();
    let mean = per_shard.iter().sum::<f64>() / SHARDS as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    let mut counts = vec![
        (
            "trace.bytes",
            std::fs::metadata(&g.adjb).map_or(0, |m| m.len()) as f64,
        ),
        ("guard.faults_detected", faults.unwrap_or(0) as f64),
        (
            "guard.admitted_ratio",
            fixed.len() as f64 / raw.len() as f64,
        ),
        ("shard.skew", max / mean),
    ];
    if let Some(snap) = &report.metrics {
        let slowest: u64 = snap.passes.iter().map(|p| p.wall_nanos).sum();
        counts.push(("shard.max_shard_s", slowest as f64 / 1e9));
        counts.extend(counter_counts(snap.counters));
    }
    Ok(Replica {
        estimate: est.estimate,
        peak_state: Some(report.peak_state_bytes as u64),
        faults,
        counts,
    })
}
