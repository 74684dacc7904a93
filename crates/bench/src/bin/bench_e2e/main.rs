//! `bench_e2e` — the measured end-to-end benchmark.
//!
//! ```text
//! bench_e2e --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--runs R] [--out DIR]
//! bench_e2e compare A.json B.json
//! ```
//!
//! Run from the root of a checkout. It builds the shipped
//! `adjstream_cli` and `adjstreamd` with cargo, builds each workload's
//! inputs from the seed, and times those binaries as child processes with
//! no tracing. With `--trace 1` (the default when `--out` is given) it then
//! calls the same public layer functions in process, in the order the
//! binaries call them, with a span around each call. Every output is
//! checked against the in-process replica. Every metric is printed by name
//! and unit; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics without
//! tracing, per-layer metrics with it). `--out DIR` also writes
//! `DIR/results.json` and `DIR/spans.jsonl`. `--runs R` repeats the
//! untraced run with seeds N..N+R, which is what `compare` needs to judge
//! spread. The exit code is non-zero when any check failed.

mod compare;
mod daemon;
mod estimate;
mod fixtures;
mod json;
mod proc;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use daemon::{Daemon, JobSample, Kind};
use estimate::{Rep, Replica};
use fixtures::{Cli, Fixture, Graph, Workload};
use json::escape;
use spans::{self_times, Recorder, Span};
use stats::{median, percentile, sorted, tail_percentile};

const USAGE: &str = "usage:
  bench_e2e --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--runs R] [--out DIR]
  bench_e2e compare A.json B.json
workloads: powerlaw-dispatch sparse-ingest repair-shard daemon-mixed";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed requests a median rests on.
const MIN_REPS: usize = 20;
/// Traced replicas per CLI workload, and per job kind of `daemon-mixed`.
const TRACED_CLI: usize = 5;
const TRACED_JOBS: usize = 10;
/// An estimate further than this from the exact count is a failure.
const MAX_REL_ERROR: f64 = 0.5;
/// Default measured seconds per run (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 10.0;

/// End-to-end metrics; every workload reports each (see BENCHMARK.json).
/// The bounded timing is the run's fastest request: on a shared host,
/// neighbours slow memory-bound requests by up to half for seconds at a
/// time, which moves a run's median far more than its minimum. The
/// median, the tail percentile and the throughput are in `detail`.
const END_TO_END: [&str; 4] = [
    "setup_s",
    "wall_min_s",
    "peak_rss_bytes",
    "peak_state_bytes",
];
/// Per-layer metrics every workload reports from its traced run.
const PER_LAYER: [&str; 10] = [
    "pre_pass_s",
    "passes_s",
    "pre_pass_share",
    "passes_share",
    "span_coverage",
    "tracing_overhead",
    "trace.bytes",
    "triangle.pairs_stored",
    "triangle.watches_started",
    "sampler.evictions",
];

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// The per-request values behind `value`, when it summarizes some.
    samples: Vec<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples: Vec::new(),
    }
}

fn median_metric(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        value: median(&samples),
        samples,
        ..metric(name, unit, 0.0)
    }
}

fn min_metric(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        value: samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples,
        ..metric(name, unit, 0.0)
    }
}

/// The highest percentile above the median that the sample supports, as
/// `<stem>_p<k>_s`, and the sample count as `<stem>_n`.
fn tail_metrics(stem: &str, samples: &[f64]) -> Vec<Metric> {
    let mut out = Vec::new();
    if let Some(p) = tail_percentile(samples.len()).filter(|&p| p > 50) {
        let v = percentile(&sorted(samples), p);
        out.push(metric(format!("{stem}_p{p}_s"), "s", v));
    }
    out.push(metric(format!("{stem}_n"), "count", samples.len() as f64));
    out
}

/// One workload run at one seed.
struct RunRecord {
    workload: Workload,
    seed: u64,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    detail: Vec<Metric>,
    spans: Vec<Span>,
}

impl RunRecord {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Count one checked request, failed when `problem` is set.
    fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    runs: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .filter(|k| ["workload", "seed", "seconds", "trace", "runs", "out"].contains(k))
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key, value);
        }
        fn num<T: std::str::FromStr>(
            flags: &BTreeMap<&str, &str>,
            key: &str,
        ) -> Result<Option<T>, String> {
            flags
                .get(key)
                .map(|v| v.parse::<T>().map_err(|_| format!("invalid --{key} {v:?}")))
                .transpose()
        }
        let workloads = match flags.get("workload") {
            Some(name) => vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?],
            None => Workload::ALL.to_vec(),
        };
        let out = flags.get("out").map(PathBuf::from);
        let trace = match flags.get("trace").copied() {
            None => out.is_some(),
            Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
        };
        let seconds = num(&flags, "seconds")?.unwrap_or(DEFAULT_SECONDS);
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Options {
            workloads,
            seed: num(&flags, "seed")?.ok_or("missing --seed")?,
            runs: num(&flags, "runs")?.unwrap_or(1u64).max(1),
            seconds,
            trace,
            out,
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(proc::REAP_FLAG) {
        return proc::reap_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(path.join("tmp"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Everything one invocation needs besides its options.
struct Env {
    cli: Cli,
    daemon_exe: PathBuf,
    work: PathBuf,
    epoch: Instant,
    clients: usize,
}

fn run(opts: &Options) -> Result<bool, String> {
    let (cli_exe, daemon_exe) = proc::build_binaries()?;
    let work = WorkDir::create()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let env = Env {
        cli: Cli {
            exe: cli_exe,
            tmp: std::fs::canonicalize(work.0.join("tmp")).map_err(|e| e.to_string())?,
        },
        daemon_exe,
        work: work.0.clone(),
        epoch: Instant::now(),
        clients: nproc.min(2),
    };
    let mut records = Vec::new();
    for r in 0..opts.runs {
        for &w in &opts.workloads {
            let record = run_workload(w, opts.seed + r, opts.trace && r == 0, opts, &env)?;
            print_record(&record);
            records.push(record);
        }
    }
    if let Some(dir) = &opts.out {
        write_results(dir, opts, nproc, &records)?;
    }
    println!("{}", summary_line(&records, opts.trace));
    Ok(records.iter().all(RunRecord::correct))
}

fn run_workload(
    w: Workload,
    seed: u64,
    traced: bool,
    opts: &Options,
    env: &Env,
) -> Result<RunRecord, String> {
    let dir = env.work.join(format!("{}-{seed}", w.name()));
    let t0 = Instant::now();
    let (mut fx, daemon, setup_s) = setup(w, seed, &dir, env)?;
    fixtures::count_all(&mut fx)?;
    eprintln!(
        "bench_e2e: {} seed {seed}: {SETUPS} set-ups and exact counts took {:.1} s",
        w.name(),
        t0.elapsed().as_secs_f64()
    );
    let mut record = RunRecord {
        workload: w,
        seed,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        end_to_end: vec![median_metric("setup_s", "s", setup_s)],
        per_layer: Vec::new(),
        detail: Vec::new(),
        spans: Vec::new(),
    };
    let mut rec = if traced {
        Recorder::enabled(env.epoch)
    } else {
        Recorder::disabled()
    };
    match daemon {
        Some(d) => run_daemon(&mut record, &fx, d, &dir, opts, env, &mut rec)?,
        None => run_estimate(&mut record, &fx, opts, env, &mut rec)?,
    }
    eprintln!(
        "bench_e2e: {} seed {seed}: done after {:.1} s",
        w.name(),
        t0.elapsed().as_secs_f64()
    );
    if traced {
        let edges = fx.import_edges.iter().sum::<u64>() as f64 / fx.import_edges.len() as f64;
        let import_s = median(&fx.import_s);
        record.per_layer.extend([
            median_metric("import.s", "s", fx.import_s.clone()),
            metric("import.edges_per_s", "1/s", edges / import_s),
        ]);
        record.spans = rec.spans;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(record)
}

/// Build the workload's inputs (and, for the daemon, start it and register
/// them) `SETUPS` times, timing each; keep the last.
fn setup(
    w: Workload,
    seed: u64,
    dir: &Path,
    env: &Env,
) -> Result<(Fixture, Option<Daemon>, Vec<f64>), String> {
    let mut walls = Vec::new();
    for i in 0..SETUPS {
        let sdir = dir.join(format!("setup{i}"));
        let t0 = Instant::now();
        let fx = fixtures::build(w, seed, &sdir, &env.cli)?;
        let daemon = if w == Workload::DaemonMixed {
            let d = Daemon::start(&env.daemon_exe, &sdir.join("state"))?;
            d.register(&fx.graphs)?;
            Some(d)
        } else {
            None
        };
        walls.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            return Ok((fx, daemon, walls));
        }
        if let Some(d) = daemon {
            d.shutdown()?;
        }
        std::fs::remove_dir_all(&sdir).map_err(|e| format!("{}: {e}", sdir.display()))?;
    }
    unreachable!("SETUPS is positive")
}

fn rel_error(estimate: f64, truth: u64) -> f64 {
    (estimate - truth as f64).abs() / truth as f64
}

/// What is wrong with one CLI rep, judged against the replica of its graph.
fn check_rep(rep: &Rep, g: &Graph, want: &Replica) -> Option<String> {
    if !rep.exit.success() {
        return Some(format!("graph {}: {}", rep.graph, rep.exit.describe()));
    }
    let Some(got) = rep.estimate.as_deref() else {
        return Some(format!("graph {}: no estimate line", rep.graph));
    };
    let expected = format!("{:.1}", want.estimate);
    if got != expected {
        return Some(format!(
            "graph {}: CLI estimate {got}, replica {expected}",
            rep.graph
        ));
    }
    let err = rel_error(want.estimate, g.triangles);
    if err > MAX_REL_ERROR {
        return Some(format!("graph {}: relative error {err:.3}", rep.graph));
    }
    if rep.peak_state != want.peak_state {
        return Some(format!(
            "graph {}: CLI peak state {:?}, replica {:?}",
            rep.graph, rep.peak_state, want.peak_state
        ));
    }
    if let Some(expected) = g.expected_detections {
        if rep.faults != Some(expected) || want.faults != Some(expected) {
            return Some(format!(
                "graph {}: faults detected CLI {:?} replica {:?}, ledger {expected}",
                rep.graph, rep.faults, want.faults
            ));
        }
    }
    None
}

fn run_estimate(
    record: &mut RunRecord,
    fx: &Fixture,
    opts: &Options,
    env: &Env,
    rec: &mut Recorder,
) -> Result<(), String> {
    let w = record.workload;
    let (reps, elapsed) = estimate::measure(w, &env.cli, &fx.graphs, opts.seconds, MIN_REPS)?;
    eprintln!(
        "bench_e2e: {}: timed {} runs in {elapsed:.1} s",
        w.name(),
        reps.len()
    );
    let k = fx.graphs.len();
    let n = if rec.is_enabled() {
        TRACED_CLI.max(k)
    } else {
        k
    };
    // Each request runs untraced, then (when tracing) traced on the same
    // graph; the pair gives the tracing overhead.
    let (mut replicas, mut traced) = (Vec::new(), Vec::new());
    let (mut plain_s, mut off) = (0.0, Recorder::disabled());
    for r in 0..n {
        let g = &fx.graphs[r % k];
        let t0 = Instant::now();
        replicas.push(estimate::replica(w, g, &mut off)?);
        plain_s += t0.elapsed().as_secs_f64();
        if rec.is_enabled() {
            rec.set_rep(r);
            traced.push(estimate::replica(w, g, rec)?);
        }
    }
    for rep in &reps {
        record.check(check_rep(rep, &fx.graphs[rep.graph], &replicas[rep.graph]));
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.exit.wall_s).collect();
    let rss = reps.iter().map(|r| r.exit.peak_rss_bytes as f64).collect();
    let state = reps
        .iter()
        .filter_map(|r| r.peak_state.map(|v| v as f64))
        .collect();
    record.end_to_end.extend([
        min_metric("wall_min_s", "s", walls.clone()),
        median_metric("peak_rss_bytes", "bytes", rss),
        median_metric("peak_state_bytes", "bytes", state),
    ]);
    record.detail.extend([
        median_metric("wall_p50_s", "s", walls.clone()),
        metric("jobs_per_s", "1/s", reps.len() as f64 / elapsed),
    ]);
    record.detail.extend(tail_metrics("wall", &walls));
    let errors = fx
        .graphs
        .iter()
        .zip(&replicas)
        .map(|(g, r)| rel_error(r.estimate, g.triangles))
        .collect();
    record
        .detail
        .push(median_metric("rel_error", "ratio", errors));
    if rec.is_enabled() {
        record.per_layer = layer_metrics(&rec.spans, &traced, plain_s);
        if matches!(w, Workload::PowerlawDispatch | Workload::SparseIngest) {
            record.per_layer.push(metric(
                "trace.memcpy_ceiling_s",
                "s",
                memcpy_ceiling(&fx.graphs[0].adjb)?,
            ));
        }
    }
    Ok(())
}

/// Time a plain copy of a trace's bytes into a fresh buffer: the floor
/// under `trace.decode_s` on this machine.
fn memcpy_ceiling(path: &Path) -> Result<f64, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let copy = bytes.to_vec();
            std::hint::black_box(&copy);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Ok(median(&times))
}

/// What is wrong with one daemon job, judged against its replica.
fn check_job(job: &JobSample, g: &Graph, want: &Replica) -> Option<String> {
    if job.state != "done" {
        return Some(format!(
            "{:?} job on graph {}: {}",
            job.kind, job.graph, job.state
        ));
    }
    if job.estimate_bits != Some(want.estimate.to_bits()) {
        return Some(format!(
            "{:?} job on graph {}: estimate {} differs from replica {}",
            job.kind, job.graph, job.estimate, want.estimate
        ));
    }
    if job.kind == Kind::Triangles && rel_error(job.estimate, g.triangles) > MAX_REL_ERROR {
        return Some(format!(
            "triangles job on graph {}: estimate {}",
            job.graph, job.estimate
        ));
    }
    None
}

fn run_daemon(
    record: &mut RunRecord,
    fx: &Fixture,
    daemon: Daemon,
    dir: &Path,
    opts: &Options,
    env: &Env,
    rec: &mut Recorder,
) -> Result<(), String> {
    let (jobs, span_s) =
        daemon::closed_loop(&daemon, &fx.graphs, env.clients, opts.seconds, MIN_REPS)?;
    let hwm = proc::vm_hwm_bytes(daemon.pid()).ok_or("cannot read the daemon's VmHWM")?;
    daemon.shutdown()?;
    eprintln!(
        "bench_e2e: daemon-mixed: {} jobs settled in {span_s:.1} s",
        jobs.len()
    );

    let k = fx.graphs.len();
    let n = if rec.is_enabled() {
        TRACED_JOBS.max(k)
    } else {
        k
    };
    let ckpt = dir.join("replica.ckpt");
    let (mut tri, mut upd, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_s, mut off) = (0.0, Recorder::disabled());
    for r in 0..n {
        let g = &fx.graphs[r % k];
        let t0 = Instant::now();
        tri.push(daemon::replica_triangles(g, &ckpt, &mut off)?);
        upd.push(daemon::replica_update(g, &ckpt, &mut off)?);
        plain_s += t0.elapsed().as_secs_f64();
        if rec.is_enabled() {
            rec.set_rep(2 * r);
            traced.push(daemon::replica_triangles(g, &ckpt, rec)?);
            rec.set_rep(2 * r + 1);
            traced.push(daemon::replica_update(g, &ckpt, rec)?);
        }
    }
    for job in &jobs {
        let want = match job.kind {
            Kind::Triangles => &tri[job.graph],
            Kind::Update => &upd[job.graph],
        };
        record.check(check_job(job, &fx.graphs[job.graph], want));
    }
    let latencies = |kind: Kind| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.kind == kind)
            .map(|j| j.latency_s)
            .collect()
    };
    let done = jobs.iter().filter(|j| j.state == "done").count();
    let tri_lat = latencies(Kind::Triangles);
    record.end_to_end.extend([
        min_metric("wall_min_s", "s", tri_lat.clone()),
        metric("peak_rss_bytes", "bytes", hwm as f64),
        median_metric(
            "peak_state_bytes",
            "bytes",
            tri[..k]
                .iter()
                .filter_map(|r| r.peak_state.map(|v| v as f64))
                .collect(),
        ),
    ]);
    let upd_lat = latencies(Kind::Update);
    record.detail.extend([
        median_metric("tri_job_p50_s", "s", tri_lat.clone()),
        metric("jobs_per_s", "1/s", done as f64 / span_s),
    ]);
    record.detail.extend(tail_metrics("tri_job", &tri_lat));
    record
        .detail
        .push(median_metric("upd_job_p50_s", "s", upd_lat.clone()));
    record.detail.extend(tail_metrics("upd_job", &upd_lat));
    let errors = fx
        .graphs
        .iter()
        .zip(&tri)
        .map(|(g, r)| rel_error(r.estimate, g.triangles))
        .collect();
    record
        .detail
        .push(median_metric("rel_error", "ratio", errors));
    if rec.is_enabled() {
        record.per_layer = layer_metrics(&rec.spans, &traced, plain_s);
        let wire = |f: fn(&JobSample) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
        record.per_layer.extend([
            median_metric("service.submit_rtt_s", "s", wire(|j| j.submit_rtt_s)),
            median_metric("service.queue_wait_s", "s", wire(|j| j.queue_wait_s)),
            median_metric("service.run_s", "s", wire(|j| j.run_s)),
            median_metric("service.polls", "count", wire(|j| f64::from(j.polls))),
        ]);
    }
    Ok(())
}

#[derive(PartialEq)]
enum Stage {
    PrePass,
    Pass,
    Other,
}

/// Where a layer span sits relative to the algorithm's passes.
fn stage(name: &str) -> Stage {
    const PRE: [&str; 11] = [
        "trace.read",
        "trace.decode",
        "validate",
        "mmapfile.open",
        "mmapfile.verify",
        "guard",
        "shard.plan",
        "catalog.checksum",
        "batch.load",
        "batch.new",
        "update.load",
    ];
    if PRE.contains(&name) {
        Stage::PrePass
    } else if ["runner.pass", "shard.pass", "batch.pass"]
        .iter()
        .any(|p| name.starts_with(p))
        || name == "update.apply"
    {
        Stage::Pass
    } else {
        Stage::Other
    }
}

/// Per-layer metrics of a traced run: each layer's mean self time per
/// call, the pre-pass and pass stages per request and as shares of the
/// traced wall, span coverage, tracing overhead (the traced requests'
/// wall over `plain_s`, the same requests run untraced), and the
/// replicas' counts averaged over the replicas that report them.
fn layer_metrics(spans: &[Span], replicas: &[Replica], plain_s: f64) -> Vec<Metric> {
    let selfs = self_times(spans);
    let mut out = Vec::new();

    let mut per_call: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        if s.parent.is_some() {
            let e = per_call.entry(&s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
    }
    for (name, (total, calls)) in &per_call {
        let label = if name.contains('.') {
            format!("{name}_s")
        } else {
            format!("{name}.s")
        };
        out.push(metric(label, "s", *total as f64 / *calls as f64 / 1e9));
    }

    let roots: Vec<(&Span, u64)> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, &t)| (s, t))
        .collect();
    let wall: u64 = roots.iter().map(|(s, _)| s.duration_ns()).sum();
    let unattributed: u64 = roots.iter().map(|(_, t)| t).sum();
    let requests = roots.len() as f64;
    let stage_total = |want: Stage| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| stage(&s.name) == want)
            .map(|(_, &t)| t as f64)
            .sum()
    };
    let (pre, passes) = (stage_total(Stage::PrePass), stage_total(Stage::Pass));
    out.extend([
        metric("pre_pass_s", "s", pre / requests / 1e9),
        metric("passes_s", "s", passes / requests / 1e9),
        metric("pre_pass_share", "ratio", pre / wall as f64),
        metric("passes_share", "ratio", passes / wall as f64),
        metric(
            "span_coverage",
            "ratio",
            1.0 - unattributed as f64 / wall as f64,
        ),
        metric("tracing_overhead", "ratio", wall as f64 / 1e9 / plain_s),
    ]);

    let mut counts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in replicas {
        for &(name, v) in &r.counts {
            counts.entry(name).or_default().push(v);
        }
    }
    if let Some(max_shard) = counts.get("shard.max_shard_s") {
        let shard_passes: f64 = per_call
            .iter()
            .filter(|(name, _)| name.starts_with("shard.pass"))
            .map(|(_, (total, _))| *total as f64 / 1e9)
            .sum();
        let slowest: f64 = max_shard.iter().sum();
        out.push(metric(
            "shard.merge_s",
            "s",
            (shard_passes - slowest) / max_shard.len() as f64,
        ));
    }
    for (name, values) in counts {
        let unit = match name {
            "trace.bytes" | "checkpoint.bytes" => "bytes",
            "shard.max_shard_s" => "s",
            "guard.admitted_ratio" | "shard.skew" => "ratio",
            _ => "count",
        };
        out.push(metric(
            name,
            unit,
            values.iter().sum::<f64>() / values.len() as f64,
        ));
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

fn print_record(r: &RunRecord) {
    println!(
        "== {} seed {}: {} requests, {} failed ==",
        r.workload.name(),
        r.seed,
        r.attempted,
        r.failed
    );
    for p in &r.problems {
        println!("   FAILED {p}");
    }
    for (section, metrics) in [
        ("end-to-end", &r.end_to_end),
        ("detail", &r.detail),
        ("per-layer", &r.per_layer),
    ] {
        for m in metrics {
            println!(
                "   {section:<10} {:<28} {:>18} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
    }
}

/// A finite number as JSON (`null` otherwise).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": .., "unit": .., ...}, ...}` for `metrics`.
fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut f = format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                escape(&m.name),
                num(m.value),
                m.unit
            );
            if with_samples {
                f.push_str(",\"measured\":true");
                if !m.samples.is_empty() {
                    let s: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
                    f.push_str(&format!(",\"n\":{},\"samples\":[{}]", s.len(), s.join(",")));
                }
            }
            f.push('}');
            f
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The last stdout line. One record: its end-to-end metrics, or with
/// tracing its per-layer metrics. Several: the median over runs of each,
/// keyed `<workload>/<metric>`.
fn summary_line<'a>(records: &'a [RunRecord], traced: bool) -> String {
    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    let pick = |r: &'a RunRecord| if traced { &r.per_layer } else { &r.end_to_end };
    let mut metrics = Vec::new();
    let workloads = Workload::ALL
        .into_iter()
        .filter(|w| records.iter().any(|r| r.workload == *w));
    for w in workloads {
        for name in names {
            let values: Vec<(f64, &'static str)> = records
                .iter()
                .filter(|r| r.workload == w)
                .flat_map(|r| pick(r).iter().find(|m| m.name == *name))
                .map(|m| (m.value, m.unit))
                .collect();
            let Some(&(_, unit)) = values.first() else {
                continue;
            };
            let v: Vec<f64> = values.iter().map(|p| p.0).collect();
            let key = if records.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", w.name())
            };
            metrics.push(metric(key, unit, median(&v)));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        records.iter().all(RunRecord::correct),
        records.iter().map(|r| r.attempted).sum::<usize>(),
        records.iter().map(|r| r.failed).sum::<usize>(),
        metrics_json(&metrics, false)
    )
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn write_results(
    dir: &Path,
    opts: &Options,
    nproc: usize,
    records: &[RunRecord],
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let graphs: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("\"{}\":{}", w.name(), w.graphs()))
        .collect();
    let mut doc = format!(
        "{{\"schema\":1,\n\"header\":{{\"git_rev\":\"{}\",\"seed\":{},\"runs\":{},\"seconds\":{},\
         \"nproc\":{nproc},\"setups\":{SETUPS},\"min_reps\":{MIN_REPS},\"traced_cli_reps\":{TRACED_CLI},\
         \"traced_daemon_jobs\":{TRACED_JOBS},\"daemon_clients\":{},\"graphs\":{{{}}}}},\n\"runs\":[\n",
        escape(&git_rev()),
        opts.seed,
        opts.runs,
        num(opts.seconds),
        nproc.min(2),
        graphs.join(",")
    );
    let runs: Vec<String> = records
        .iter()
        .map(|r| {
            let problems: Vec<String> =
                r.problems.iter().map(|p| format!("\"{}\"", escape(p))).collect();
            format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"correct\":{},\"attempted\":{},\
                 \"failed\":{},\"problems\":[{}],\n \"end_to_end\":{},\n \"detail\":{},\n \"per_layer\":{}}}",
                r.workload.name(),
                r.seed,
                r.correct(),
                r.attempted,
                r.failed,
                problems.join(","),
                metrics_json(&r.end_to_end, true),
                metrics_json(&r.detail, true),
                metrics_json(&r.per_layer, true)
            )
        })
        .collect();
    doc.push_str(&runs.join(",\n"));
    doc.push_str("\n]}\n");
    std::fs::write(dir.join("results.json"), doc).map_err(io)?;

    let mut spans =
        std::io::BufWriter::new(std::fs::File::create(dir.join("spans.jsonl")).map_err(io)?);
    for r in records {
        spans::write_jsonl(&mut spans, r.workload.name(), &r.spans).map_err(io)?;
    }
    spans.flush().map_err(io)
}
