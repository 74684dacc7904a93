//! `daemon-mixed`: a fresh `adjstreamd` driven over its Unix socket by a
//! closed loop of clients, and in-process replicas of its two job kinds.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use adjstream_core::amplify::{median_of_survivors, quorum};
use adjstream_core::common::EdgeSampling;
use adjstream_core::estimate::triangle_budget;
use adjstream_core::triangle::{TriestFd, TwoPassTriangle, TwoPassTriangleConfig};
use adjstream_stream::checkpoint::{write_checkpoint_file, write_u64, write_usize};
use adjstream_stream::estimator::repetitions_for_confidence;
use adjstream_stream::hashing::checksum64;
use adjstream_stream::update::UpdateOp;
use adjstream_stream::{
    parse_update_bytes, BatchConfig, BatchJob, Checkpoint, GuardPolicy, GuardedUpdate, ItemTrace,
    ObsCounters, UpdateAlgorithm,
};

use crate::estimate::{counter_counts, Replica};
use crate::fixtures::Graph;
use crate::json::{escape, wire_field, Json};
use crate::spans::Recorder;

/// Triangles jobs: ε = 1, δ = 0.5 (13 repetitions), `t_lower` = exact T.
const EPSILON: f64 = 1.0;
const DELTA: f64 = 0.5;
/// Update jobs: TRIÈST-FD behind the repairing guard.
const BATCH: usize = 5000;
const CAPACITY: usize = 8000;
/// Client status-poll interval.
const POLL: Duration = Duration::from_millis(2);
/// A reply slower than this means the daemon is stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Triangles,
    Update,
}

/// A running `adjstreamd` child. Dropping it without [`Daemon::shutdown`]
/// kills and reaps the process.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    stopped: bool,
}

impl Daemon {
    /// Start a daemon on `state_dir` with the default configuration and
    /// wait for its readiness line.
    pub fn start(exe: &Path, state_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn adjstreamd: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            socket: state_dir.join("adjstreamd.sock"),
            stopped: false,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("adjstreamd stdout: {e}"))?;
        if wire_field(&line, "ready") != Some(Json::Bool(true)) {
            return Err(format!("adjstreamd did not become ready: {line:?}"));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connect {}: {e}", self.socket.display()))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Register every graph's static trace as `g<i>` and its update trace
    /// as `u<i>`.
    pub fn register(&self, graphs: &[Graph]) -> Result<(), String> {
        let mut conn = self.connect()?;
        for (i, g) in graphs.iter().enumerate() {
            let updates = g
                .updates
                .as_ref()
                .ok_or("daemon graphs carry update traces")?;
            for (name, path) in [(format!("g{i}"), &g.adjb), (format!("u{i}"), updates)] {
                let path = std::fs::canonicalize(path).map_err(|e| e.to_string())?;
                let line = conn.request(&format!(
                    "{{\"op\":\"register\",\"name\":\"{name}\",\"path\":\"{}\"}}",
                    escape(&path.display().to_string())
                ))?;
                if wire_field(&line, "ok") != Some(Json::Bool(true)) {
                    return Err(format!("register {name}: {line}"));
                }
            }
        }
        Ok(())
    }

    /// Ask the daemon to drain and exit, then reap it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?.request("{\"op\":\"shutdown\"}")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        self.stopped = true;
        if status.success() {
            Ok(())
        } else {
            Err(format!("adjstreamd exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One persistent client connection: a request line out, a reply line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("socket write: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("socket read: {e}"))?;
        if reply.trim().is_empty() {
            return Err("daemon closed the connection".into());
        }
        Ok(reply)
    }
}

/// One job as its client saw it, timed from client-side wire stamps.
pub struct JobSample {
    pub kind: Kind,
    pub graph: usize,
    /// Submit sent → terminal state observed.
    pub latency_s: f64,
    /// Submit sent → acknowledgement read.
    pub submit_rtt_s: f64,
    /// Acknowledgement → first poll that no longer reads `queued`.
    pub queue_wait_s: f64,
    /// That poll → terminal state observed.
    pub run_s: f64,
    pub polls: u32,
    /// Terminal state, or `rejected:<reason>`.
    pub state: String,
    pub estimate: f64,
    pub estimate_bits: Option<u64>,
    /// Seconds after the loop started at which the job finished.
    pub end_s: f64,
}

fn submit_line(kind: Kind, graph: usize, g: &Graph) -> String {
    match kind {
        Kind::Triangles => format!(
            "{{\"op\":\"submit\",\"trace\":\"g{graph}\",\"kind\":\"triangles\",\"t_lower\":{},\
             \"epsilon\":{EPSILON:?},\"delta\":{DELTA:?},\"seed\":{}}}",
            g.triangles, g.seed
        ),
        Kind::Update => format!(
            "{{\"op\":\"submit\",\"trace\":\"u{graph}\",\"kind\":\"update\",\"batch_size\":{BATCH},\
             \"capacity\":{CAPACITY},\"guard\":\"repair\",\"seed\":{}}}",
            g.seed
        ),
    }
}

/// Submit one job and poll its status until it settles.
fn run_job(
    conn: &mut Conn,
    kind: Kind,
    graph: usize,
    g: &Graph,
    t0: Instant,
) -> Result<JobSample, String> {
    let sent = Instant::now();
    let ack = conn.request(&submit_line(kind, graph, g))?;
    let acked = Instant::now();
    let mut sample = JobSample {
        kind,
        graph,
        latency_s: 0.0,
        submit_rtt_s: (acked - sent).as_secs_f64(),
        queue_wait_s: 0.0,
        run_s: 0.0,
        polls: 0,
        state: String::new(),
        estimate: f64::NAN,
        estimate_bits: None,
        end_s: 0.0,
    };
    let Some(Json::Str(id)) = wire_field(&ack, "id") else {
        let reason = wire_field(&ack, "reason").and_then(|r| r.as_str().map(String::from));
        sample.state = format!("rejected:{}", reason.unwrap_or_default());
        sample.end_s = t0.elapsed().as_secs_f64();
        return Ok(sample);
    };
    let status = format!("{{\"op\":\"status\",\"id\":\"{id}\"}}");
    let mut started = None;
    let reply = loop {
        std::thread::sleep(POLL);
        let reply = conn.request(&status)?;
        sample.polls += 1;
        let state = wire_field(&reply, "state").and_then(|s| s.as_str().map(String::from));
        let state = state.unwrap_or_default();
        if state != "queued" && started.is_none() {
            started = Some(Instant::now());
        }
        if matches!(state.as_str(), "done" | "failed" | "degraded") {
            sample.state = state;
            break reply;
        }
    };
    let done = Instant::now();
    let started = started.unwrap_or(done);
    sample.latency_s = (done - sent).as_secs_f64();
    sample.queue_wait_s = (started - acked).as_secs_f64();
    sample.run_s = (done - started).as_secs_f64();
    sample.end_s = (done - t0).as_secs_f64();
    if let Some(v) = wire_field(&reply, "result.estimate").and_then(|v| v.as_f64()) {
        sample.estimate = v;
    }
    sample.estimate_bits = wire_field(&reply, "result.estimate_bits")
        .and_then(|v| v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()));
    Ok(sample)
}

/// Closed loop for `seconds`, and until at least `min_triangles`
/// triangles jobs were submitted: `clients` threads, one persistent
/// socket each, every client alternating a triangles and an update job
/// and submitting the next only after the previous settled. Returns every
/// job and the seconds from the loop's start to the last completion.
pub fn closed_loop(
    daemon: &Daemon,
    graphs: &[Graph],
    clients: usize,
    seconds: f64,
    min_triangles: usize,
) -> Result<(Vec<JobSample>, f64), String> {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let triangles = AtomicUsize::new(0);
    let per_client: Vec<Result<Vec<JobSample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let triangles = &triangles;
                s.spawn(move || -> Result<Vec<JobSample>, String> {
                    let mut conn = daemon.connect()?;
                    let mut jobs = Vec::new();
                    let mut sent = [0usize; 2];
                    while Instant::now() < deadline
                        || triangles.load(Ordering::Relaxed) < min_triangles
                    {
                        let kind = if (jobs.len() + c) % 2 == 0 {
                            triangles.fetch_add(1, Ordering::Relaxed);
                            Kind::Triangles
                        } else {
                            Kind::Update
                        };
                        let n = &mut sent[kind as usize];
                        let graph = (*n * clients + c) % graphs.len();
                        *n += 1;
                        jobs.push(run_job(&mut conn, kind, graph, &graphs[graph], t0)?);
                    }
                    Ok(jobs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut jobs = Vec::new();
    for r in per_client {
        jobs.extend(r?);
    }
    let span = jobs.iter().map(|j| j.end_s).fold(0.0, f64::max);
    Ok((jobs, span))
}

/// Replay a triangles job as the daemon's worker runs it: admission
/// checksum, catalog load, a 13-instance `BatchJob` with a checkpoint
/// between the passes, and the median of the survivors.
pub fn replica_triangles(g: &Graph, ckpt: &Path, rec: &mut Recorder) -> Result<Replica, String> {
    let root = rec.begin("job.triangles");
    let trace_bytes = catalog_checksum(&g.adjb, rec)?;
    let trace = rec.time("batch.load", || -> Result<ItemTrace, String> {
        let f = std::fs::File::open(&g.adjb).map_err(|e| e.to_string())?;
        ItemTrace::read(BufReader::new(f)).map_err(|e| e.to_string())
    })?;
    let budget = triangle_budget(trace.edges(), g.triangles, EPSILON);
    let reps = repetitions_for_confidence(DELTA);
    let cfg = BatchConfig::with_threads(1);
    let mut job = rec
        .time("batch.new", || {
            BatchJob::new(
                (0..reps)
                    .map(|i| {
                        TwoPassTriangle::new(TwoPassTriangleConfig {
                            seed: g.seed.wrapping_add(i as u64),
                            edge_sampling: EdgeSampling::BottomK { k: budget },
                            pair_capacity: budget,
                        })
                    })
                    .collect(),
                &cfg,
            )
        })
        .map_err(|e| e.to_string())?;
    let mut generations = 0;
    let mut ckpt_bytes = 0u64;
    while !job.is_complete() {
        let pass = job.completed_passes();
        rec.time(&format!("batch.pass{pass}"), || job.run_pass(trace.items()))
            .map_err(|e| e.to_string())?;
        generations += 1;
        job.set_source_generations(generations);
        if !job.is_complete() {
            rec.time("checkpoint.write", || job.write_checkpoint(ckpt))
                .map_err(|e| e.to_string())?;
            ckpt_bytes += std::fs::metadata(ckpt).map_or(0, |m| m.len());
        }
    }
    let (median, report) = rec.time("batch.finish", || {
        let out = job.finish();
        let runs: Vec<Option<f64>> = out
            .outputs
            .iter()
            .map(|o| o.as_ref().map(|e| e.estimate))
            .collect();
        (median_of_survivors(&runs, quorum(reps)), out.report)
    });
    rec.end(root);
    let _ = std::fs::remove_file(ckpt);
    let median = median.map_err(|e| e.to_string())?;
    let mut counters = ObsCounters::default();
    for inst in &report.per_instance {
        counters.merge(&inst.counters.unwrap_or_default());
    }
    let peak = report
        .per_instance
        .iter()
        .map(|i| i.peak_state_bytes)
        .max()
        .unwrap_or(0);
    let mut counts = vec![
        ("trace.bytes", trace_bytes as f64),
        ("checkpoint.bytes", ckpt_bytes as f64),
    ];
    counts.extend(counter_counts(counters));
    Ok(Replica {
        estimate: median.median,
        peak_state: Some(peak as u64),
        faults: None,
        counts,
    })
}

/// Admission re-reads the whole trace file and checksums it.
fn catalog_checksum(path: &Path, rec: &mut Recorder) -> Result<usize, String> {
    rec.time("catalog.checksum", || {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        std::hint::black_box(checksum64(&bytes));
        Ok(bytes.len())
    })
}

/// Replay an update job: admission checksum, load, then per batch the
/// guarded TRIÈST-FD updates and the batch-boundary checkpoint the
/// daemon writes (cursor, per-batch ledger, guard and estimator state).
pub fn replica_update(g: &Graph, ckpt: &Path, rec: &mut Recorder) -> Result<Replica, String> {
    let path = g
        .updates
        .as_ref()
        .ok_or("daemon graphs carry update traces")?;
    let root = rec.begin("job.update");
    let trace_bytes = catalog_checksum(path, rec)?;
    let stream = rec.time("update.load", || -> Result<_, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        parse_update_bytes(&bytes).map_err(|e| e.to_string())
    })?;
    let events = stream.events();
    let batches = events.len().div_ceil(BATCH);
    let mut guard = GuardedUpdate::new(TriestFd::new(g.seed, CAPACITY), GuardPolicy::Repair);
    let mut previous = guard.estimate();
    let mut ledger: Vec<[u64; 5]> = Vec::new();
    let mut ckpt_bytes = 0u64;
    for b in 0..batches {
        let chunk = &events[b * BATCH..events.len().min((b + 1) * BATCH)];
        let inserts = rec.time("update.apply", || {
            let mut inserts = 0u64;
            for ev in chunk {
                inserts += u64::from(ev.op == UpdateOp::Insert);
                // The repairing guard drops invalid events instead of failing.
                let _ = guard.apply_event(ev);
            }
            inserts
        });
        let estimate = guard.estimate();
        ledger.push([
            chunk.len() as u64,
            inserts,
            chunk.last().map_or(0, |e| e.ts),
            estimate.to_bits(),
            (estimate - previous).to_bits(),
        ]);
        previous = estimate;
        if b + 1 < batches {
            rec.time("checkpoint.write", || -> Result<(), String> {
                let mut payload = Vec::new();
                write_usize(&mut payload, b + 1).map_err(|e| e.to_string())?;
                write_u64(&mut payload, previous.to_bits()).map_err(|e| e.to_string())?;
                write_usize(&mut payload, ledger.len()).map_err(|e| e.to_string())?;
                for v in ledger.iter().flatten() {
                    write_u64(&mut payload, *v).map_err(|e| e.to_string())?;
                }
                guard.save(&mut payload).map_err(|e| e.to_string())?;
                ckpt_bytes += payload.len() as u64;
                write_checkpoint_file(ckpt, &payload).map_err(|e| e.to_string())
            })?;
        }
    }
    rec.end(root);
    let _ = std::fs::remove_file(ckpt);
    Ok(Replica {
        estimate: guard.estimate(),
        peak_state: None,
        faults: None,
        counts: vec![
            ("trace.bytes", trace_bytes as f64),
            ("checkpoint.bytes", ckpt_bytes as f64),
            ("update.batches", batches as f64),
        ],
    })
}
