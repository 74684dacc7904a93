//! The resident estimation server: intake, scheduler, worker pool,
//! crash recovery.
//!
//! ```text
//!            ┌──────────┐ try_send ┌───────────┐ rendezvous ┌─────────┐
//! clients ──→│  intake  │─────────→│ scheduler │───────────→│ workers │
//!  (socket)  │ bounded  │  Full ⇒  │  priority │  try_send  │  pool   │
//!            │  queue   │ Rejected │   heap    │←───────────│         │
//!            └──────────┘          └───────────┘  requeue   └─────────┘
//! ```
//!
//! Three invariants the chaos and overload tests pin down:
//!
//! 1. **Bounded intake.** Admission is a `try_send` into a bounded
//!    channel; a full queue (or a blown job cap / memory budget) is an
//!    *immediate* typed `Rejected` response. Nothing in the daemon
//!    buffers submissions without bound.
//! 2. **Checkpoint-based preemption.** Workers execute jobs one pass at
//!    a time via [`BatchJob`], writing a checkpoint at every interior
//!    pass boundary. Eviction (priority preemption, drain, cancel) is
//!    only ever acted on *at* a boundary, so a suspended job's state is
//!    always a valid checkpoint and resuming is bit-for-bit.
//! 3. **Manifests are the truth.** Every state transition persists the
//!    job manifest before anything else observes it. Recovery after
//!    `kill -9` is a directory scan: non-terminal manifests re-enter the
//!    queue (with their checkpoint, when one survived; a truncated one
//!    is discarded and the job recomputes from scratch — determinism
//!    makes the answer identical either way).

use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adjstream_core::amplify::{median_of_survivors, quorum};
use adjstream_core::common::EdgeSampling;
use adjstream_core::estimate::{four_cycle_budget, triangle_budget};
use adjstream_core::fourcycle::{FourCycleEstimator, TwoPassFourCycle, TwoPassFourCycleConfig};
use adjstream_core::triangle::{
    ShardedTriangle, ShardedTriangleConfig, TriestFd, TwoPassTriangle, TwoPassTriangleConfig,
};
use adjstream_stream::batch::{BatchConfig, BatchJob, Budget};
use adjstream_stream::checkpoint::{
    read_checkpoint_file, read_u64, read_usize, write_checkpoint_file, write_u64, write_usize,
    Checkpoint,
};
use adjstream_stream::estimator::repetitions_for_confidence;
use adjstream_stream::runner::{MultiPassAlgorithm, RunError};
use adjstream_stream::shard::{run_sharded_hooked, ShardPlan};
use adjstream_stream::trace::ItemTrace;
use adjstream_stream::update_guard::GuardedUpdate;
use adjstream_stream::{
    validate_stream, GuardPolicy, Metrics, MetricsSnapshot, SpaceUsage, UpdateAlgorithm,
};

use crate::catalog::{Catalog, TraceKind};
use crate::job::{JobId, JobKind, JobRecord, JobResult, JobSpec, JobState};
use crate::json::{obj, Json};
use crate::protocol::{
    error_response, ok_response, parse_request, reject_response, RejectReason, Request,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Directory for manifests, checkpoints, and the catalog.
    pub state_dir: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded intake queue depth; submissions beyond it are `Rejected`.
    pub queue_depth: usize,
    /// Cap on resident (non-terminal) jobs; admission control.
    pub max_jobs: usize,
    /// Daemon-wide declared-byte budget: the sum of admitted jobs'
    /// declared `max_total_bytes` may not exceed it (jobs declaring no
    /// budget count as zero). `None` disables the check.
    pub memory_budget: Option<usize>,
    /// Scheduler tick.
    pub tick: Duration,
}

impl ServiceConfig {
    /// A config rooted at `state_dir` with the socket inside it and
    /// conservative defaults.
    pub fn at(state_dir: &Path) -> ServiceConfig {
        ServiceConfig {
            socket: state_dir.join("adjstreamd.sock"),
            state_dir: state_dir.to_path_buf(),
            workers: 2,
            queue_depth: 16,
            max_jobs: 64,
            memory_budget: None,
            tick: Duration::from_millis(10),
        }
    }
}

/// Daemon-wide counters surfaced by the `metrics` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions rejected with a typed reason.
    pub rejected: u64,
    /// Jobs that reached `Done`.
    pub completed: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Jobs that reached `Degraded`.
    pub degraded: u64,
    /// Suspensions (drain, preemption).
    pub suspended: u64,
    /// Executions that resumed from a checkpoint.
    pub resumed: u64,
    /// Jobs re-queued by the crash-recovery scan.
    pub recovered: u64,
    /// Catalog entries the startup scan dropped as malformed/vanished.
    pub catalog_dropped: u64,
    /// Update-job batches completed.
    pub update_batches: u64,
    /// Invalid update events the guard detected across completed jobs.
    pub guard_detections: u64,
    /// Invalid update events the guard dropped (Repair policy).
    pub guard_dropped: u64,
}

struct JobEntry {
    record: JobRecord,
    evict: Arc<AtomicBool>,
    cancelled: Arc<AtomicBool>,
}

/// Event a worker reports back to the scheduler.
enum WorkerEvent {
    /// The job reached a state the scheduler need not reschedule
    /// (terminal, or suspended for drain).
    Settled(u64),
    /// The job was preempted at a boundary and should be rescheduled.
    Requeue(u64),
}

struct Inner {
    cfg: ServiceConfig,
    catalog: Catalog,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    counters: Mutex<ServiceCounters>,
    metrics: Mutex<MetricsSnapshot>,
    next_id: AtomicU64,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    intake_tx: crossbeam::channel::Sender<u64>,
    event_tx: crossbeam::channel::Sender<WorkerEvent>,
}

/// Lock helper immune to poisoning: a worker panic between state updates
/// must not take the whole daemon down with it.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Inner {
    fn job_record(&self, id: u64) -> Option<JobRecord> {
        lock(&self.jobs).get(&id).map(|e| e.record.clone())
    }

    /// Apply and persist a state transition, updating terminal counters.
    fn set_state(&self, id: u64, state: JobState) {
        let mut jobs = lock(&self.jobs);
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        entry.record.state = state;
        let _ = entry.record.persist(&self.cfg.state_dir);
        let record = entry.record.clone();
        drop(jobs);
        let mut c = lock(&self.counters);
        match record.state {
            JobState::Done { .. } => c.completed += 1,
            JobState::Failed { .. } => c.failed += 1,
            JobState::Degraded { .. } => c.degraded += 1,
            JobState::Suspended { .. } => c.suspended += 1,
            _ => {}
        }
    }

    fn absorb_metrics(&self, snap: &MetricsSnapshot) {
        lock(&self.metrics).merge(snap);
    }

    /// Non-terminal job count and summed declared bytes, for admission.
    fn residency(&self) -> (usize, usize) {
        let jobs = lock(&self.jobs);
        let mut count = 0;
        let mut bytes = 0usize;
        for e in jobs.values() {
            if !e.record.state.is_terminal() {
                count += 1;
                bytes = bytes.saturating_add(e.record.spec.budget.max_total_bytes.unwrap_or(0));
            }
        }
        (count, bytes)
    }
}

/// Priority-heap key: higher priority first, then submission order.
#[derive(PartialEq, Eq)]
struct QueuedJob {
    priority: u8,
    id: u64,
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A running daemon; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Whether a client asked for shutdown via the `shutdown` op.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Current record of a job, for embedded (in-process) callers.
    pub fn job_record(&self, id: JobId) -> Option<JobRecord> {
        self.inner.job_record(id.0)
    }

    /// Current counters snapshot.
    pub fn counters(&self) -> ServiceCounters {
        *lock(&self.inner.counters)
    }

    /// Drain: stop accepting, evict every running job to a checkpoint,
    /// persist everything, join all threads. Returns the final counters
    /// (including suspensions the drain itself caused).
    pub fn shutdown(self) -> ServiceCounters {
        self.inner.draining.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.inner.cfg.socket);
        *lock(&self.inner.counters)
    }
}

/// The daemon. [`Server::start`] recovers interrupted jobs from the state
/// directory, binds the socket, and spawns the accept/scheduler/worker
/// threads.
pub struct Server;

impl Server {
    /// Start the daemon and return its handle.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<ServerHandle> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let catalog = Catalog::open(&cfg.state_dir);

        // ---- recovery scan ------------------------------------------------
        let mut recovered: Vec<JobRecord> = Vec::new();
        let mut all_records: Vec<JobRecord> = Vec::new();
        let mut max_id = 0u64;
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&cfg.state_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("job-") && n.ends_with(".json"))
            })
            .collect();
        entries.sort();
        for path in entries {
            let Some(mut rec) = JobRecord::load(&path) else {
                continue;
            };
            max_id = max_id.max(rec.id.0);
            if !rec.state.is_terminal() {
                // A job that was mid-pass when the process died is morally
                // suspended at its last checkpoint (or at pass 0 without one).
                if let JobState::Running { pass } = rec.state {
                    rec.state = JobState::Suspended {
                        pass,
                        reason: "crash".into(),
                    };
                }
                let _ = rec.persist(&cfg.state_dir);
                recovered.push(rec.clone());
            }
            all_records.push(rec);
        }

        let (intake_tx, intake_rx) = crossbeam::channel::bounded::<u64>(cfg.queue_depth.max(1));
        // Rendezvous: try_send succeeds only while a worker is parked in
        // recv — that *is* the free-worker signal.
        let (run_tx, run_rx) = crossbeam::channel::bounded::<u64>(0);
        let (event_tx, event_rx) = crossbeam::channel::bounded::<WorkerEvent>(cfg.max_jobs.max(16));

        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            catalog,
            jobs: Mutex::new(HashMap::new()),
            counters: Mutex::new(ServiceCounters::default()),
            metrics: Mutex::new(MetricsSnapshot::default()),
            next_id: AtomicU64::new(max_id + 1),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            intake_tx,
            event_tx,
        });

        {
            let mut jobs = lock(&inner.jobs);
            for rec in all_records {
                jobs.insert(
                    rec.id.0,
                    JobEntry {
                        record: rec,
                        evict: Arc::new(AtomicBool::new(false)),
                        cancelled: Arc::new(AtomicBool::new(false)),
                    },
                );
            }
        }
        {
            let mut c = lock(&inner.counters);
            c.recovered = recovered.len() as u64;
            c.catalog_dropped = inner.catalog.dropped_entries();
        }

        // Recovered jobs pre-seed the scheduler heap directly — they must
        // not compete with live submissions for intake-queue space.
        let initial: Vec<QueuedJob> = recovered
            .iter()
            .map(|r| QueuedJob {
                priority: r.spec.priority,
                id: r.id.0,
            })
            .collect();

        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("adjsvc-accept".into())
                    .spawn(move || accept_loop(inner, listener))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("adjsvc-sched".into())
                    .spawn(move || scheduler_loop(inner, intake_rx, run_tx, event_rx, initial))?,
            );
        }
        let shared_rx = Arc::new(Mutex::new(run_rx));
        for w in 0..cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            let rx = Arc::clone(&shared_rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("adjsvc-worker-{w}"))
                    .spawn(move || worker_loop(inner, rx))?,
            );
        }

        Ok(ServerHandle { inner, threads })
    }
}

// ---------------------------------------------------------------------------
// Accept loop and request handling
// ---------------------------------------------------------------------------

fn accept_loop(inner: Arc<Inner>, listener: UnixListener) {
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name("adjsvc-conn".into())
                    .spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        handle_connection(&inner, stream);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(&line) {
            Ok(req) => dispatch_request(inner, req),
            Err(e) => error_response("bad_request", &e),
        };
        // A client that disconnected mid-response is its own problem: the
        // job it submitted keeps running; we just stop responding.
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

fn dispatch_request(inner: &Arc<Inner>, req: Request) -> String {
    match req {
        Request::Ping => ok_response(vec![("pong", Json::Bool(true))]),
        Request::Register { name, path } => match inner.catalog.register(&name, &path) {
            Ok(entry) => ok_response(vec![
                ("name", Json::Str(entry.name)),
                ("kind", Json::Str(entry.kind.name().into())),
                ("edges", Json::Num(entry.edges as f64)),
                ("items", Json::Num(entry.items as f64)),
                (
                    "checksum64",
                    Json::Str(format!("{:016x}", entry.checksum64)),
                ),
            ]),
            Err(e) => error_response("register_failed", &e.to_string()),
        },
        Request::Traces => {
            let traces: Vec<Json> = inner
                .catalog
                .list()
                .into_iter()
                .map(|e| {
                    obj(vec![
                        ("name", Json::Str(e.name)),
                        ("kind", Json::Str(e.kind.name().into())),
                        ("edges", Json::Num(e.edges as f64)),
                        ("items", Json::Num(e.items as f64)),
                        ("checksum64", Json::Str(format!("{:016x}", e.checksum64))),
                    ])
                })
                .collect();
            ok_response(vec![("traces", Json::Arr(traces))])
        }
        Request::Submit(spec) => submit(inner, *spec),
        Request::Status { id } => status(inner, id),
        Request::Cancel { id } => cancel(inner, id),
        Request::Metrics => metrics(inner),
        Request::Shutdown => {
            inner.shutdown_requested.store(true, Ordering::SeqCst);
            ok_response(vec![("shutting_down", Json::Bool(true))])
        }
    }
}

fn submit(inner: &Arc<Inner>, spec: JobSpec) -> String {
    let reject = |inner: &Arc<Inner>, reason| {
        lock(&inner.counters).rejected += 1;
        reject_response(reason)
    };
    if inner.draining.load(Ordering::SeqCst) {
        return reject(inner, RejectReason::Draining);
    }
    let Some(entry) = inner.catalog.get(&spec.trace) else {
        return reject(inner, RejectReason::UnknownTrace);
    };
    // The job kind must match the trace kind: update jobs consume update
    // traces, every static estimator consumes item traces.
    let wants_update = matches!(spec.kind, JobKind::Update { .. });
    if wants_update != (entry.kind == TraceKind::Update) {
        return reject(inner, RejectReason::KindMismatch);
    }
    // Admission re-verifies the checksum recorded at registration: a
    // trace swapped or corrupted since then is a typed rejection, never
    // an estimate over bytes nobody vetted.
    if inner.catalog.verify_checksum(&spec.trace).is_err() {
        return reject(inner, RejectReason::TraceChanged);
    }
    let (resident, declared_bytes) = inner.residency();
    if resident >= inner.cfg.max_jobs {
        return reject(inner, RejectReason::TooManyJobs);
    }
    if let Some(limit) = inner.cfg.memory_budget {
        let incoming = spec.budget.max_total_bytes.unwrap_or(0);
        if declared_bytes.saturating_add(incoming) > limit {
            return reject(inner, RejectReason::MemoryBudget);
        }
    }
    let id = JobId(inner.next_id.fetch_add(1, Ordering::SeqCst));
    let record = JobRecord {
        id,
        spec,
        state: JobState::Queued,
    };
    if record.persist(&inner.cfg.state_dir).is_err() {
        return error_response("io", "failed to persist job manifest");
    }
    lock(&inner.jobs).insert(
        id.0,
        JobEntry {
            record,
            evict: Arc::new(AtomicBool::new(false)),
            cancelled: Arc::new(AtomicBool::new(false)),
        },
    );
    // Bounded intake: a full queue rolls the admission back and rejects,
    // it never blocks the client or buffers beyond `queue_depth`.
    if inner.intake_tx.try_send(id.0).is_err() {
        lock(&inner.jobs).remove(&id.0);
        let _ = std::fs::remove_file(id.manifest_path(&inner.cfg.state_dir));
        return reject(inner, RejectReason::QueueFull);
    }
    lock(&inner.counters).submitted += 1;
    ok_response(vec![
        ("id", Json::Str(id.to_string())),
        ("state", Json::Str("queued".into())),
    ])
}

fn state_fields(record: &JobRecord) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("id", Json::Str(record.id.to_string())),
        ("trace", Json::Str(record.spec.trace.clone())),
        ("state", Json::Str(record.state.name().into())),
    ];
    match &record.state {
        JobState::Running { pass } => fields.push(("pass", Json::Num(*pass as f64))),
        JobState::Suspended { pass, reason } => {
            fields.push(("pass", Json::Num(*pass as f64)));
            fields.push(("reason", Json::Str(reason.clone())));
        }
        JobState::Degraded {
            survivors,
            required,
        } => {
            fields.push(("survivors", Json::Num(*survivors as f64)));
            fields.push(("required", Json::Num(*required as f64)));
        }
        JobState::Failed { reason, detail } => {
            fields.push(("reason", Json::Str(reason.clone())));
            fields.push(("detail", Json::Str(detail.clone())));
        }
        JobState::Done { result } => {
            fields.push((
                "result",
                obj(vec![
                    ("estimate", Json::Num(result.estimate)),
                    (
                        "estimate_bits",
                        Json::Str(format!("{:016x}", result.estimate_bits)),
                    ),
                    ("survivors", Json::Num(result.survivors as f64)),
                    ("repetitions", Json::Num(result.repetitions as f64)),
                    ("passes", Json::Num(result.passes as f64)),
                    (
                        "resumed_from",
                        match result.resumed_from {
                            Some(p) => Json::Num(p as f64),
                            None => Json::Null,
                        },
                    ),
                ]),
            ));
        }
        JobState::Queued => {}
    }
    fields
}

fn status(inner: &Arc<Inner>, id: Option<JobId>) -> String {
    match id {
        Some(id) => match inner.job_record(id.0) {
            Some(rec) => ok_response(state_fields(&rec)),
            None => error_response("not_found", &format!("no job {id}")),
        },
        None => {
            let jobs = lock(&inner.jobs);
            let mut ids: Vec<u64> = jobs.keys().copied().collect();
            ids.sort_unstable();
            let list: Vec<Json> = ids
                .iter()
                .map(|jid| obj(state_fields(&jobs[jid].record)))
                .collect();
            ok_response(vec![("jobs", Json::Arr(list))])
        }
    }
}

fn cancel(inner: &Arc<Inner>, id: JobId) -> String {
    let jobs = lock(&inner.jobs);
    let Some(entry) = jobs.get(&id.0) else {
        return error_response("not_found", &format!("no job {id}"));
    };
    if entry.record.state.is_terminal() {
        return error_response("already_terminal", entry.record.state.name());
    }
    entry.cancelled.store(true, Ordering::SeqCst);
    // A running worker only looks at flags at pass boundaries; the evict
    // flag makes it look sooner.
    entry.evict.store(true, Ordering::SeqCst);
    drop(jobs);
    ok_response(vec![
        ("id", Json::Str(id.to_string())),
        ("state", Json::Str("cancelling".into())),
    ])
}

fn metrics(inner: &Arc<Inner>) -> String {
    let c = *lock(&inner.counters);
    let snap = lock(&inner.metrics).clone();
    let merged = if snap.runs == 0 {
        Json::Null
    } else {
        // Embed the schema-versioned snapshot document verbatim.
        crate::json::parse(&snap.to_json()).unwrap_or(Json::Null)
    };
    ok_response(vec![
        (
            "counters",
            obj(vec![
                ("submitted", Json::Num(c.submitted as f64)),
                ("rejected", Json::Num(c.rejected as f64)),
                ("completed", Json::Num(c.completed as f64)),
                ("failed", Json::Num(c.failed as f64)),
                ("degraded", Json::Num(c.degraded as f64)),
                ("suspended", Json::Num(c.suspended as f64)),
                ("resumed", Json::Num(c.resumed as f64)),
                ("recovered", Json::Num(c.recovered as f64)),
                ("catalog_dropped", Json::Num(c.catalog_dropped as f64)),
                ("update_batches", Json::Num(c.update_batches as f64)),
                ("guard_detections", Json::Num(c.guard_detections as f64)),
                ("guard_dropped", Json::Num(c.guard_dropped as f64)),
            ]),
        ),
        ("metrics", merged),
    ])
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

fn scheduler_loop(
    inner: Arc<Inner>,
    intake_rx: crossbeam::channel::Receiver<u64>,
    run_tx: crossbeam::channel::Sender<u64>,
    event_rx: crossbeam::channel::Receiver<WorkerEvent>,
    initial: Vec<QueuedJob>,
) {
    let mut heap: BinaryHeap<QueuedJob> = initial.into_iter().collect();
    let mut running: HashMap<u64, u8> = HashMap::new();
    let mut evicting: std::collections::HashSet<u64> = std::collections::HashSet::new();

    loop {
        // Drain worker events first so `running` is current.
        while let Ok(ev) = event_rx.try_recv() {
            match ev {
                WorkerEvent::Settled(id) => {
                    running.remove(&id);
                    evicting.remove(&id);
                }
                WorkerEvent::Requeue(id) => {
                    running.remove(&id);
                    evicting.remove(&id);
                    if let Some(rec) = inner.job_record(id) {
                        heap.push(QueuedJob {
                            priority: rec.spec.priority,
                            id,
                        });
                    }
                }
            }
        }

        if inner.draining.load(Ordering::SeqCst) {
            drain(&inner, &mut running, &event_rx);
            // Dropping `run_tx` here disconnects the workers' shared
            // receiver, ending their loops.
            drop(run_tx);
            return;
        }

        // Pull newly admitted jobs; block briefly on the intake so an idle
        // scheduler wakes immediately on submission.
        match intake_rx.recv_timeout(inner.cfg.tick) {
            Ok(id) => {
                if let Some(rec) = inner.job_record(id) {
                    heap.push(QueuedJob {
                        priority: rec.spec.priority,
                        id,
                    });
                }
                while let Ok(id) = intake_rx.try_recv() {
                    if let Some(rec) = inner.job_record(id) {
                        heap.push(QueuedJob {
                            priority: rec.spec.priority,
                            id,
                        });
                    }
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }

        // Dispatch while a worker is free (rendezvous try_send succeeds
        // only when one is parked in recv).
        while let Some(top) = heap.peek() {
            let id = top.id;
            // Cancelled while queued: settle it here, no worker needed.
            let cancelled = lock(&inner.jobs)
                .get(&id)
                .map(|e| e.cancelled.load(Ordering::SeqCst))
                .unwrap_or(true);
            if cancelled {
                heap.pop();
                inner.set_state(
                    id,
                    JobState::Failed {
                        reason: "cancelled".into(),
                        detail: "cancelled while queued".into(),
                    },
                );
                let _ = std::fs::remove_file(JobId(id).checkpoint_path(&inner.cfg.state_dir));
                continue;
            }
            match run_tx.try_send(id) {
                Ok(()) => {
                    let top = heap.pop().expect("peeked");
                    running.insert(top.id, top.priority);
                }
                Err(crossbeam::channel::TrySendError::Full(_)) => {
                    preempt_for(&inner, top.priority, &running, &mut evicting);
                    break;
                }
                Err(crossbeam::channel::TrySendError::Disconnected(_)) => return,
            }
        }
    }
}

/// All workers busy and `waiting_priority` wants in: evict the lowest-
/// priority running job if it is strictly lower-priority than the waiter.
fn preempt_for(
    inner: &Arc<Inner>,
    waiting_priority: u8,
    running: &HashMap<u64, u8>,
    evicting: &mut std::collections::HashSet<u64>,
) {
    let victim = running
        .iter()
        .filter(|(id, _)| !evicting.contains(*id))
        .min_by_key(|(id, prio)| (**prio, u64::MAX - **id))
        .map(|(id, prio)| (*id, *prio));
    if let Some((id, prio)) = victim {
        if prio < waiting_priority {
            if let Some(entry) = lock(&inner.jobs).get(&id) {
                entry.evict.store(true, Ordering::SeqCst);
            }
            evicting.insert(id);
        }
    }
}

/// Drain for shutdown: evict every running job and wait until each has
/// settled (suspended with a checkpoint, or finished on its own).
fn drain(
    inner: &Arc<Inner>,
    running: &mut HashMap<u64, u8>,
    event_rx: &crossbeam::channel::Receiver<WorkerEvent>,
) {
    {
        let jobs = lock(&inner.jobs);
        for id in running.keys() {
            if let Some(entry) = jobs.get(id) {
                entry.evict.store(true, Ordering::SeqCst);
            }
        }
    }
    while !running.is_empty() {
        match event_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(WorkerEvent::Settled(id)) | Ok(WorkerEvent::Requeue(id)) => {
                running.remove(&id);
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(inner: Arc<Inner>, rx: Arc<Mutex<crossbeam::channel::Receiver<u64>>>) {
    loop {
        // Holding the lock while parked in recv is deliberate: exactly one
        // worker waits at the rendezvous; the others queue on the mutex.
        let job_id = {
            let guard = lock(&rx);
            match guard.recv() {
                Ok(id) => id,
                Err(_) => return, // scheduler dropped run_tx: shutdown
            }
        };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_job(&inner, job_id)));
        let settled = match outcome {
            Ok(requeue) => !requeue,
            Err(payload) => {
                // A worker panic is a typed terminal state, not a dead pool.
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                inner.set_state(
                    job_id,
                    JobState::Failed {
                        reason: "worker_panic".into(),
                        detail,
                    },
                );
                let _ = std::fs::remove_file(JobId(job_id).checkpoint_path(&inner.cfg.state_dir));
                true
            }
        };
        let ev = if settled {
            WorkerEvent::Settled(job_id)
        } else {
            WorkerEvent::Requeue(job_id)
        };
        if inner.event_tx.send(ev).is_err() {
            return;
        }
    }
}

/// What one execution segment of a job produced.
enum Segment {
    Terminal(JobState),
    Suspended {
        pass: usize,
        reason: String,
        requeue: bool,
    },
}

/// Execute one job until it finishes or suspends. Returns `true` when the
/// scheduler should requeue it (preemption).
fn execute_job(inner: &Arc<Inner>, id: u64) -> bool {
    let Some(record) = inner.job_record(id) else {
        return false;
    };
    let spec = record.spec.clone();
    let (evict, cancelled) = {
        let jobs = lock(&inner.jobs);
        let Some(e) = jobs.get(&id) else { return false };
        (Arc::clone(&e.evict), Arc::clone(&e.cancelled))
    };
    // Update jobs run the batched dynamic path; everything else replays a
    // static item trace through the pass-based batch engine.
    if let JobKind::Update {
        batch_size,
        capacity,
        guard,
    } = spec.kind
    {
        let segment = run_update_job(
            inner, id, &spec, &evict, &cancelled, batch_size, capacity, guard,
        );
        return settle_segment(inner, id, segment);
    }

    let trace = match inner.catalog.load_items(&spec.trace) {
        Ok(t) => t,
        Err(e) => {
            inner.set_state(
                id,
                JobState::Failed {
                    reason: "trace_unavailable".into(),
                    detail: e,
                },
            );
            return false;
        }
    };

    let segment = match spec.kind {
        JobKind::Validate => run_validate(&trace),
        JobKind::Triangles { t_lower } if spec.shards > 1 => {
            let budget = triangle_budget(trace.edges(), t_lower, spec.epsilon);
            run_sharded_triangles(inner, id, &spec, &trace, &cancelled, budget)
        }
        JobKind::Triangles { t_lower } => {
            let budget = triangle_budget(trace.edges(), t_lower, spec.epsilon);
            run_estimate(
                inner,
                id,
                &spec,
                &trace,
                &evict,
                &cancelled,
                budget,
                |seed| {
                    TwoPassTriangle::new(TwoPassTriangleConfig {
                        seed,
                        edge_sampling: EdgeSampling::BottomK { k: budget },
                        pair_capacity: budget,
                    })
                },
                |out| out.estimate,
            )
        }
        JobKind::FourCycles { t_lower } => {
            let budget = four_cycle_budget(trace.edges(), t_lower);
            run_estimate(
                inner,
                id,
                &spec,
                &trace,
                &evict,
                &cancelled,
                budget,
                |seed| {
                    TwoPassFourCycle::new(TwoPassFourCycleConfig {
                        seed,
                        edge_sample_size: budget,
                        estimator: FourCycleEstimator::DistinctCycles,
                        max_wedges: None,
                    })
                },
                |out| out.estimate,
            )
        }
        JobKind::Update { .. } => unreachable!("update jobs dispatched above"),
    };

    settle_segment(inner, id, segment)
}

/// Persist a finished/suspended execution segment; returns `true` when
/// the scheduler should requeue the job (preemption).
fn settle_segment(inner: &Arc<Inner>, id: u64, segment: Segment) -> bool {
    match segment {
        Segment::Terminal(state) => {
            let _ = std::fs::remove_file(JobId(id).checkpoint_path(&inner.cfg.state_dir));
            inner.set_state(id, state);
            false
        }
        Segment::Suspended {
            pass,
            reason,
            requeue,
        } => {
            inner.set_state(id, JobState::Suspended { pass, reason });
            requeue
        }
    }
}

fn run_validate(trace: &ItemTrace) -> Segment {
    match validate_stream(trace.items().iter().copied()) {
        Ok(edges) => {
            let estimate = edges as f64;
            Segment::Terminal(JobState::Done {
                result: JobResult {
                    estimate,
                    estimate_bits: estimate.to_bits(),
                    survivors: 1,
                    repetitions: 1,
                    passes: 1,
                    resumed_from: None,
                },
            })
        }
        Err(e) => Segment::Terminal(JobState::Failed {
            reason: "invalid_stream".into(),
            detail: e.to_string(),
        }),
    }
}

/// One completed update batch, as carried in the job checkpoint and the
/// `.batches` sidecar. `estimate_bits` is the exact bit pattern of the
/// post-batch estimate — the recovery chaos test compares these, so
/// "bit-identical per-batch deltas" is literal.
#[derive(Clone, Copy)]
struct BatchRow {
    events: u64,
    inserts: u64,
    ts_end: u64,
    estimate_bits: u64,
    delta_bits: u64,
}

/// Serialize the update-job checkpoint payload: progress cursor, the
/// per-batch ledger so far, then the guarded estimator's own state.
fn encode_update_ckpt(
    next_batch: usize,
    previous: f64,
    rows: &[BatchRow],
    guard: &GuardedUpdate<TriestFd>,
) -> std::io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    write_usize(&mut payload, next_batch)?;
    write_u64(&mut payload, previous.to_bits())?;
    write_usize(&mut payload, rows.len())?;
    for row in rows {
        write_u64(&mut payload, row.events)?;
        write_u64(&mut payload, row.inserts)?;
        write_u64(&mut payload, row.ts_end)?;
        write_u64(&mut payload, row.estimate_bits)?;
        write_u64(&mut payload, row.delta_bits)?;
    }
    guard.save(&mut payload)?;
    Ok(payload)
}

#[allow(clippy::type_complexity)]
fn decode_update_ckpt(
    payload: &[u8],
) -> std::io::Result<(usize, f64, Vec<BatchRow>, GuardedUpdate<TriestFd>)> {
    let r = &mut &payload[..];
    let next_batch = read_usize(r)?;
    let previous = f64::from_bits(read_u64(r)?);
    let n = read_usize(r)?;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        rows.push(BatchRow {
            events: read_u64(r)?,
            inserts: read_u64(r)?,
            ts_end: read_u64(r)?,
            estimate_bits: read_u64(r)?,
            delta_bits: read_u64(r)?,
        });
    }
    let guard = GuardedUpdate::<TriestFd>::restore(r)?;
    Ok((next_batch, previous, rows, guard))
}

/// Write the per-batch sidecar an update job leaves next to its manifest:
/// one JSON document with every batch's estimate bits and the guard's
/// final tallies. Atomic (tmp + rename), same as manifests.
fn write_batches_sidecar(
    path: &Path,
    id: JobId,
    trace: &str,
    rows: &[BatchRow],
    guard: &GuardedUpdate<TriestFd>,
) {
    let batches: Vec<Json> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            obj(vec![
                ("batch", Json::Num(i as f64)),
                ("events", Json::Num(row.events as f64)),
                ("inserts", Json::Num(row.inserts as f64)),
                (
                    "deletes",
                    Json::Num(row.events.saturating_sub(row.inserts) as f64),
                ),
                ("ts_end", Json::Num(row.ts_end as f64)),
                (
                    "estimate_bits",
                    Json::Str(format!("{:016x}", row.estimate_bits)),
                ),
                ("delta_bits", Json::Str(format!("{:016x}", row.delta_bits))),
            ])
        })
        .collect();
    let stats = guard.stats();
    let doc = obj(vec![
        ("id", Json::Str(id.to_string())),
        ("trace", Json::Str(trace.to_string())),
        ("policy", Json::Str(guard.policy().to_string())),
        ("batches", Json::Arr(batches)),
        (
            "guard",
            obj(vec![
                ("events", Json::Num(stats.events as f64)),
                ("detections", Json::Num(stats.detections as f64)),
                (
                    "duplicate_inserts",
                    Json::Num(stats.duplicate_inserts as f64),
                ),
                ("dead_deletes", Json::Num(stats.dead_deletes as f64)),
                ("ts_regressions", Json::Num(stats.ts_regressions as f64)),
                ("dropped", Json::Num(stats.dropped as f64)),
                ("repaired_ts", Json::Num(stats.repaired_ts as f64)),
            ]),
        ),
    ]);
    let tmp = path.with_extension("batches.tmp");
    if std::fs::write(&tmp, format!("{doc}\n")).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Execute (or resume) a batched TRIÈST-FD update job. Every batch
/// boundary is a checkpoint: eviction, drain, and `kill -9` all land on
/// one, so the resumed run's remaining per-batch estimates are
/// bit-identical to an uninterrupted run's.
#[allow(clippy::too_many_arguments)]
fn run_update_job(
    inner: &Arc<Inner>,
    id: u64,
    spec: &JobSpec,
    evict: &AtomicBool,
    cancelled: &AtomicBool,
    batch_size: usize,
    capacity: usize,
    policy: GuardPolicy,
) -> Segment {
    let stream = match inner.catalog.load_updates(&spec.trace) {
        Ok(s) => s,
        Err(e) => {
            return Segment::Terminal(JobState::Failed {
                reason: "trace_unavailable".into(),
                detail: e,
            })
        }
    };
    let events = stream.events();
    let batch_size = batch_size.max(1);
    let total_batches = events.len().div_ceil(batch_size);
    let ckpt = JobId(id).checkpoint_path(&inner.cfg.state_dir);

    // Resume from the batch-boundary checkpoint when one survived; a
    // truncated or corrupt file is discarded and the job recomputes from
    // scratch — seeded determinism makes both roads produce identical
    // bits.
    let mut resumed_from = None;
    let (mut next_batch, mut previous, mut rows, mut guard) = match read_checkpoint_file(&ckpt)
        .ok()
        .and_then(|payload| decode_update_ckpt(&payload).ok())
    {
        Some(state) => {
            lock(&inner.counters).resumed += 1;
            resumed_from = Some(state.0);
            state
        }
        None => {
            let _ = std::fs::remove_file(&ckpt);
            let guard = GuardedUpdate::new(TriestFd::new(spec.seed, capacity), policy);
            let previous = guard.estimate();
            (0, previous, Vec::new(), guard)
        }
    };

    let deadline = spec
        .budget
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    while next_batch < total_batches {
        inner.set_state(id, JobState::Running { pass: next_batch });

        if cancelled.load(Ordering::SeqCst) {
            let _ = std::fs::remove_file(&ckpt);
            return Segment::Terminal(JobState::Failed {
                reason: "cancelled".into(),
                detail: format!("cancelled before batch {next_batch}"),
            });
        }
        if evict.swap(false, Ordering::SeqCst) {
            match encode_update_ckpt(next_batch, previous, &rows, &guard)
                .map_err(adjstream_stream::FrameError::Io)
                .and_then(|payload| write_checkpoint_file(&ckpt, &payload))
            {
                Ok(()) => {}
                Err(e) => {
                    return Segment::Terminal(JobState::Failed {
                        reason: "checkpoint".into(),
                        detail: e.to_string(),
                    })
                }
            }
            let draining = inner.draining.load(Ordering::SeqCst);
            return Segment::Suspended {
                pass: next_batch,
                reason: if draining { "drain" } else { "preempted" }.into(),
                requeue: !draining,
            };
        }

        // Chaos: widen the batch with a delay (sliced so drain/evict
        // during the sleep still suspends at this boundary).
        let mut remaining = spec.chaos.delay_ms_per_pass;
        while remaining > 0 {
            let slice = remaining.min(10);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
            if evict.load(Ordering::SeqCst) || cancelled.load(Ordering::SeqCst) {
                break;
            }
        }
        if cancelled.load(Ordering::SeqCst) {
            let _ = std::fs::remove_file(&ckpt);
            return Segment::Terminal(JobState::Failed {
                reason: "cancelled".into(),
                detail: format!("cancelled before batch {next_batch}"),
            });
        }
        if evict.swap(false, Ordering::SeqCst) {
            match encode_update_ckpt(next_batch, previous, &rows, &guard)
                .map_err(adjstream_stream::FrameError::Io)
                .and_then(|payload| write_checkpoint_file(&ckpt, &payload))
            {
                Ok(()) => {}
                Err(e) => {
                    return Segment::Terminal(JobState::Failed {
                        reason: "checkpoint".into(),
                        detail: e.to_string(),
                    })
                }
            }
            let draining = inner.draining.load(Ordering::SeqCst);
            return Segment::Suspended {
                pass: next_batch,
                reason: if draining { "drain" } else { "preempted" }.into(),
                requeue: !draining,
            };
        }

        // Chaos: simulated worker crash before this batch, caught by the
        // pool's unwind barrier and mapped to `Failed{worker_panic}`.
        if spec.chaos.panic_in_pass == Some(next_batch) {
            panic!("chaos: injected worker panic before batch {next_batch}");
        }

        if deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = std::fs::remove_file(&ckpt);
            return Segment::Terminal(JobState::Failed {
                reason: "deadline".into(),
                detail: format!(
                    "deadline of {} ms expired before batch {next_batch}",
                    spec.budget.deadline_ms.unwrap_or(0)
                ),
            });
        }

        let start = next_batch * batch_size;
        let chunk = &events[start..events.len().min(start + batch_size)];
        let mut inserts = 0u64;
        for ev in chunk {
            if ev.op == adjstream_stream::update::UpdateOp::Insert {
                inserts += 1;
            }
            // Under Strict the first invalid event is a typed terminal
            // failure; Repair/Observe never return an error here.
            if let Err(v) = guard.apply_event(ev) {
                let _ = std::fs::remove_file(&ckpt);
                return Segment::Terminal(JobState::Failed {
                    reason: "guard_violation".into(),
                    detail: v.to_string(),
                });
            }
        }
        if let Some(limit) = spec.budget.max_total_bytes {
            let used = guard.space_bytes();
            if used > limit {
                let _ = std::fs::remove_file(&ckpt);
                return Segment::Terminal(JobState::Failed {
                    reason: "space_budget".into(),
                    detail: format!("update state used {used} bytes, limit {limit}"),
                });
            }
        }
        let estimate = guard.estimate();
        rows.push(BatchRow {
            events: chunk.len() as u64,
            inserts,
            ts_end: chunk.last().map(|e| e.ts).unwrap_or(0),
            estimate_bits: estimate.to_bits(),
            delta_bits: (estimate - previous).to_bits(),
        });
        previous = estimate;
        next_batch += 1;
        lock(&inner.counters).update_batches += 1;

        if next_batch < total_batches {
            match encode_update_ckpt(next_batch, previous, &rows, &guard)
                .map_err(adjstream_stream::FrameError::Io)
                .and_then(|payload| write_checkpoint_file(&ckpt, &payload))
            {
                Ok(()) => {}
                Err(e) => {
                    return Segment::Terminal(JobState::Failed {
                        reason: "checkpoint".into(),
                        detail: e.to_string(),
                    })
                }
            }
        }
    }

    let stats = guard.stats();
    {
        let mut c = lock(&inner.counters);
        c.guard_detections += stats.detections as u64;
        c.guard_dropped += stats.dropped as u64;
    }
    write_batches_sidecar(
        &JobId(id).batches_path(&inner.cfg.state_dir),
        JobId(id),
        &spec.trace,
        &rows,
        &guard,
    );
    let estimate = guard.estimate();
    Segment::Terminal(JobState::Done {
        result: JobResult {
            estimate,
            estimate_bits: estimate.to_bits(),
            survivors: 1,
            repetitions: 1,
            passes: total_batches,
            resumed_from,
        },
    })
}

/// Map a batch-engine error onto the job's typed failure vocabulary.
fn failure_from(e: &RunError) -> JobState {
    let reason = match e {
        RunError::DeadlineExceeded { .. } => "deadline",
        RunError::SpaceBudgetExceeded { .. } => "space_budget",
        RunError::Checkpoint { .. } => "checkpoint",
        _ => "run_error",
    };
    JobState::Failed {
        reason: reason.into(),
        detail: e.to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
/// Graph-sharded execution of a triangles job (`spec.shards > 1`): each
/// repetition partitions the trace by list-owner vertex and runs the
/// shard-mergeable three-pass estimator, one worker thread per shard,
/// merging per-shard state at every pass boundary. The median over
/// repetitions amplifies confidence exactly as in the unsharded path.
///
/// Sharded repetitions run to completion: cancellation is honored at
/// repetition boundaries, and preemption/chaos hooks are not observed
/// mid-pass (the per-repetition work is bounded, so the scheduler regains
/// control quickly). `max_instance_bytes` is enforced against each
/// repetition's merged peak: an over-budget repetition is quarantined,
/// mirroring the batch engine's per-instance kill.
fn run_sharded_triangles(
    inner: &Arc<Inner>,
    id: u64,
    spec: &JobSpec,
    trace: &ItemTrace,
    cancelled: &AtomicBool,
    budget: usize,
) -> Segment {
    let reps = repetitions_for_confidence(spec.delta);
    let required = spec
        .min_survivors
        .unwrap_or_else(|| quorum(reps))
        .clamp(1, reps);
    let plan = ShardPlan::build(trace.items(), spec.shards);
    let sink = Metrics::from_flag(spec.collect_metrics);
    let mut runs: Vec<Option<f64>> = Vec::with_capacity(reps);
    for i in 0..reps {
        if cancelled.load(Ordering::SeqCst) {
            return Segment::Terminal(JobState::Failed {
                reason: "cancelled".into(),
                detail: format!("cancelled before repetition {i}"),
            });
        }
        inner.set_state(id, JobState::Running { pass: 0 });
        let cfg = ShardedTriangleConfig {
            seed: spec.seed.wrapping_add(i as u64),
            edge_sampling: EdgeSampling::BottomK { k: budget },
            pair_capacity: budget,
        };
        match run_sharded_hooked(
            ShardedTriangle::new(cfg),
            &plan,
            trace.items(),
            &sink,
            |_| Ok(()),
        ) {
            Ok((out, report)) => {
                let over = spec
                    .budget
                    .max_instance_bytes
                    .is_some_and(|limit| report.peak_state_bytes > limit);
                runs.push((!over).then_some(out.estimate));
            }
            Err(e) => {
                return Segment::Terminal(JobState::Failed {
                    reason: "shard_failed".into(),
                    detail: e.to_string(),
                });
            }
        }
    }
    if let Some(snap) = sink.snapshot() {
        inner.absorb_metrics(&snap);
    }
    let survivors = runs.iter().flatten().count();
    match median_of_survivors(&runs, required) {
        Ok(report) => Segment::Terminal(JobState::Done {
            result: JobResult {
                estimate: report.median,
                estimate_bits: report.median.to_bits(),
                survivors,
                repetitions: reps,
                passes: 3,
                resumed_from: None,
            },
        }),
        Err(d) => Segment::Terminal(JobState::Degraded {
            survivors: d.survivors,
            required: d.required,
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_estimate<A, F, X>(
    inner: &Arc<Inner>,
    id: u64,
    spec: &JobSpec,
    trace: &ItemTrace,
    evict: &AtomicBool,
    cancelled: &AtomicBool,
    _sample_budget: usize,
    make: F,
    extract: X,
) -> Segment
where
    A: MultiPassAlgorithm + Checkpoint + Send,
    A::Output: Send,
    F: Fn(u64) -> A,
    X: Fn(&A::Output) -> f64,
{
    let reps = repetitions_for_confidence(spec.delta);
    let required = spec
        .min_survivors
        .unwrap_or_else(|| quorum(reps))
        .clamp(1, reps);
    let cfg = BatchConfig {
        budget: Budget {
            max_bytes_per_instance: spec.budget.max_instance_bytes,
            max_total_bytes: spec.budget.max_total_bytes,
            deadline: spec.budget.deadline_ms.map(Duration::from_millis),
        },
        metrics: spec.collect_metrics,
        ..BatchConfig::with_threads(1)
    };
    let ckpt = JobId(id).checkpoint_path(&inner.cfg.state_dir);

    // Restore from the job's checkpoint when one survived; a truncated or
    // corrupt file is discarded and the job recomputes from scratch —
    // seeded determinism makes both roads produce identical bits.
    let mut job: BatchJob<A> = if ckpt.exists() {
        match BatchJob::restore_from_file(&ckpt, &cfg) {
            Ok(job) => {
                lock(&inner.counters).resumed += 1;
                job
            }
            Err(_) => {
                let _ = std::fs::remove_file(&ckpt);
                match BatchJob::new(
                    (0..reps)
                        .map(|i| make(spec.seed.wrapping_add(i as u64)))
                        .collect(),
                    &cfg,
                ) {
                    Ok(job) => job,
                    Err(e) => return Segment::Terminal(failure_from(&e)),
                }
            }
        }
    } else {
        match BatchJob::new(
            (0..reps)
                .map(|i| make(spec.seed.wrapping_add(i as u64)))
                .collect(),
            &cfg,
        ) {
            Ok(job) => job,
            Err(e) => return Segment::Terminal(failure_from(&e)),
        }
    };

    // The engine re-arms `Budget::deadline` per segment; this outer clock
    // additionally covers chaos delays and suspension-free stretches.
    let deadline = spec
        .budget
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut generations = 0usize;

    while !job.is_complete() {
        let pass = job.completed_passes();
        inner.set_state(id, JobState::Running { pass });

        if cancelled.load(Ordering::SeqCst) {
            let _ = std::fs::remove_file(&ckpt);
            return Segment::Terminal(JobState::Failed {
                reason: "cancelled".into(),
                detail: format!("cancelled before pass {pass}"),
            });
        }
        if evict.swap(false, Ordering::SeqCst) {
            if let Err(e) = job.write_checkpoint(&ckpt) {
                return Segment::Terminal(failure_from(&e));
            }
            let draining = inner.draining.load(Ordering::SeqCst);
            return Segment::Suspended {
                pass,
                reason: if draining { "drain" } else { "preempted" }.into(),
                requeue: !draining,
            };
        }

        // Chaos: widen the pass with a delay (sliced so drain/evict during
        // the sleep still suspends at this boundary, not a pass later).
        let mut remaining = spec.chaos.delay_ms_per_pass;
        while remaining > 0 {
            let slice = remaining.min(10);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
            if evict.load(Ordering::SeqCst) || cancelled.load(Ordering::SeqCst) {
                break;
            }
        }
        if cancelled.load(Ordering::SeqCst) {
            let _ = std::fs::remove_file(&ckpt);
            return Segment::Terminal(JobState::Failed {
                reason: "cancelled".into(),
                detail: format!("cancelled before pass {pass}"),
            });
        }
        if evict.swap(false, Ordering::SeqCst) {
            if let Err(e) = job.write_checkpoint(&ckpt) {
                return Segment::Terminal(failure_from(&e));
            }
            let draining = inner.draining.load(Ordering::SeqCst);
            return Segment::Suspended {
                pass,
                reason: if draining { "drain" } else { "preempted" }.into(),
                requeue: !draining,
            };
        }

        // Chaos: simulated worker crash, caught by the pool's unwind
        // barrier and mapped to `Failed{worker_panic}`.
        if spec.chaos.panic_in_pass == Some(pass) {
            panic!("chaos: injected worker panic before pass {pass}");
        }

        if deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = std::fs::remove_file(&ckpt);
            return Segment::Terminal(JobState::Failed {
                reason: "deadline".into(),
                detail: format!(
                    "deadline of {} ms expired before pass {pass}",
                    spec.budget.deadline_ms.unwrap_or(0)
                ),
            });
        }

        if let Err(e) = job.run_pass(trace.items()) {
            let _ = std::fs::remove_file(&ckpt);
            return Segment::Terminal(failure_from(&e));
        }
        generations += 1;
        job.set_source_generations(generations);

        if !job.is_complete() {
            if let Err(e) = job.write_checkpoint(&ckpt) {
                return Segment::Terminal(failure_from(&e));
            }
        }
    }

    let resumed_from = job.resumed_from();
    let out = job.finish();
    if let Some(snap) = &out.report.metrics {
        inner.absorb_metrics(snap);
    }
    let runs: Vec<Option<f64>> = out
        .outputs
        .iter()
        .map(|o| o.as_ref().map(&extract))
        .collect();
    let survivors = runs.iter().flatten().count();
    match median_of_survivors(&runs, required) {
        Ok(report) => Segment::Terminal(JobState::Done {
            result: JobResult {
                estimate: report.median,
                estimate_bits: report.median.to_bits(),
                survivors,
                repetitions: reps,
                passes: out.report.passes,
                resumed_from,
            },
        }),
        Err(d) => Segment::Terminal(JobState::Degraded {
            survivors: d.survivors,
            required: d.required,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_job_ordering_prefers_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        heap.push(QueuedJob { priority: 4, id: 1 });
        heap.push(QueuedJob { priority: 9, id: 2 });
        heap.push(QueuedJob { priority: 4, id: 0 });
        assert_eq!(heap.pop().unwrap().id, 2, "highest priority first");
        assert_eq!(heap.pop().unwrap().id, 0, "FIFO within a priority");
        assert_eq!(heap.pop().unwrap().id, 1);
    }

    #[test]
    fn failure_mapping_is_typed() {
        let s = failure_from(&RunError::DeadlineExceeded { limit_ms: 5 });
        assert!(matches!(s, JobState::Failed { ref reason, .. } if reason == "deadline"));
        let s = failure_from(&RunError::SpaceBudgetExceeded { used: 9, limit: 1 });
        assert!(matches!(s, JobState::Failed { ref reason, .. } if reason == "space_budget"));
    }
}
