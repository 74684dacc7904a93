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
//! 2. **Checkpoint-based preemption.** Workers execute every resumable
//!    job through one boundary loop, `run_units`, one unit at a time (a
//!    [`BatchJob`] pass, an update batch, or a sharded repetition),
//!    writing a checkpoint at every interior boundary. Eviction (priority
//!    preemption, drain, cancel) is only ever acted on *at* a boundary,
//!    so a suspended job's state is always a valid checkpoint and
//!    resuming is bit-for-bit.
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
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
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
    corrupt, read_checkpoint_file, read_u64, read_u8, read_usize, write_checkpoint_file, write_u64,
    write_u8, write_usize, Checkpoint,
};
use adjstream_stream::estimator::repetitions_for_confidence;
use adjstream_stream::runner::{MultiPassAlgorithm, RunError};
use adjstream_stream::shard::{run_sharded_hooked, ShardPlan};
use adjstream_stream::trace::ItemTrace;
use adjstream_stream::update::{apply_update_batch, UpdateBatchReport, UpdateEvent};
use adjstream_stream::update_guard::GuardedUpdate;
use adjstream_stream::{
    FrameError, Metrics, MetricsSnapshot, SpaceUsage, StreamItem, UpdateAlgorithm,
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

impl JobEntry {
    fn new(record: JobRecord) -> JobEntry {
        JobEntry {
            record,
            evict: Arc::new(AtomicBool::new(false)),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }
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
    intake_tx: SyncSender<u64>,
    event_tx: SyncSender<WorkerEvent>,
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

        let (intake_tx, intake_rx) = sync_channel::<u64>(cfg.queue_depth.max(1));
        // Rendezvous: try_send succeeds only while a worker is parked in
        // recv — that *is* the free-worker signal.
        let (run_tx, run_rx) = sync_channel::<u64>(0);
        let (event_tx, event_rx) = sync_channel::<WorkerEvent>(cfg.max_jobs.max(16));

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
                jobs.insert(rec.id.0, JobEntry::new(rec));
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
                ("checksum64", hex64(entry.checksum64)),
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
                        ("checksum64", hex64(e.checksum64)),
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
    lock(&inner.jobs).insert(id.0, JobEntry::new(record));
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

/// A 64-bit pattern (checksum, `f64` bits) as 16 hex digits.
fn hex64(bits: u64) -> Json {
    Json::Str(format!("{bits:016x}"))
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
                    ("estimate_bits", hex64(result.estimate_bits)),
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
    // A running worker only looks at flags at job boundaries; the evict
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
    intake_rx: Receiver<u64>,
    run_tx: SyncSender<u64>,
    event_rx: Receiver<WorkerEvent>,
    initial: Vec<QueuedJob>,
) {
    let mut heap: BinaryHeap<QueuedJob> = initial.into_iter().collect();
    let mut running: HashMap<u64, u8> = HashMap::new();
    let mut evicting: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let enqueue = |heap: &mut BinaryHeap<QueuedJob>, id| {
        if let Some(rec) = inner.job_record(id) {
            heap.push(QueuedJob {
                priority: rec.spec.priority,
                id,
            });
        }
    };

    loop {
        // Drain worker events first so `running` is current.
        while let Ok(ev) = event_rx.try_recv() {
            let (WorkerEvent::Settled(id) | WorkerEvent::Requeue(id)) = ev;
            running.remove(&id);
            evicting.remove(&id);
            if matches!(ev, WorkerEvent::Requeue(_)) {
                enqueue(&mut heap, id);
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
                enqueue(&mut heap, id);
                while let Ok(id) = intake_rx.try_recv() {
                    enqueue(&mut heap, id);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
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
                let state = failed("cancelled", "cancelled while queued");
                settle(&inner, id, state);
                continue;
            }
            match run_tx.try_send(id) {
                Ok(()) => {
                    let top = heap.pop().expect("peeked");
                    running.insert(top.id, top.priority);
                }
                Err(TrySendError::Full(_)) => {
                    preempt_for(&inner, top.priority, &running, &mut evicting);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => return,
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
fn drain(inner: &Arc<Inner>, running: &mut HashMap<u64, u8>, event_rx: &Receiver<WorkerEvent>) {
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
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(inner: Arc<Inner>, rx: Arc<Mutex<Receiver<u64>>>) {
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
        let requeue = outcome.unwrap_or_else(|payload| {
            // A worker panic is a typed terminal state, not a dead pool.
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            let state = failed("worker_panic", detail);
            settle(&inner, job_id, state)
        });
        let ev = if requeue {
            WorkerEvent::Requeue(job_id)
        } else {
            WorkerEvent::Settled(job_id)
        };
        if inner.event_tx.send(ev).is_err() {
            return;
        }
    }
}

/// What every runner needs of its job: the daemon, the job's id and spec,
/// and the job's two flags.
#[derive(Clone, Copy)]
struct JobCtx<'a> {
    inner: &'a Inner,
    id: u64,
    spec: &'a JobSpec,
    evict: &'a AtomicBool,
    cancelled: &'a AtomicBool,
}

fn failed(reason: &str, detail: impl Into<String>) -> JobState {
    JobState::Failed {
        reason: reason.into(),
        detail: detail.into(),
    }
}

/// Execute one job until it finishes or suspends. Returns `true` when the
/// scheduler should requeue it (preemption).
fn execute_job(inner: &Arc<Inner>, id: u64) -> bool {
    let Some(record) = inner.job_record(id) else {
        return false;
    };
    let (evict, cancelled) = {
        let jobs = lock(&inner.jobs);
        let Some(e) = jobs.get(&id) else { return false };
        (Arc::clone(&e.evict), Arc::clone(&e.cancelled))
    };
    let ctx = JobCtx {
        inner,
        id,
        spec: &record.spec,
        evict: &evict,
        cancelled: &cancelled,
    };
    let state = run_job(ctx).unwrap_or_else(|failure| failure);
    settle(inner, id, state)
}

/// Load the job's trace and hand its kind's units to [`run_units`]. The
/// state the segment ended in (finished or suspended) is `Ok`; a failure
/// that ended it early is `Err`, so `?` can stop at every step.
fn run_job(ctx: JobCtx) -> Result<JobState, JobState> {
    let spec = ctx.spec;
    // Update jobs run the batched dynamic path; everything else replays a
    // static item trace.
    if let JobKind::Update {
        batch_size,
        capacity,
        guard,
    } = spec.kind
    {
        let stream = ctx
            .inner
            .catalog
            .load_updates(&spec.trace)
            .map_err(|e| failed("trace_unavailable", e))?;
        let events = stream.events();
        let batch_size = batch_size.max(1);
        return run_units(
            ctx,
            |path| {
                let payload = read_checkpoint_file(path).ok()?;
                BatchUnits::restore(&payload, events, batch_size).ok()
            },
            || {
                let guard = GuardedUpdate::new(TriestFd::new(spec.seed, capacity), guard);
                Ok(BatchUnits {
                    events,
                    batch_size,
                    previous: guard.estimate(),
                    rows: Vec::new(),
                    guard,
                })
            },
        );
    }

    let trace = ctx
        .inner
        .catalog
        .load_items(&spec.trace)
        .map_err(|e| failed("trace_unavailable", e))?;
    let items = trace.items();
    match spec.kind {
        JobKind::Validate => Ok(run_validate(&trace)),
        JobKind::Triangles { t_lower } if spec.shards > 1 => {
            let budget = triangle_budget(trace.edges(), t_lower, spec.epsilon);
            let reps = repetitions_for_confidence(spec.delta);
            let units = |runs| RepetitionUnits {
                plan: ShardPlan::build(items, spec.shards),
                items,
                budget,
                reps,
                runs,
                sink: Metrics::from_flag(spec.collect_metrics),
            };
            run_units(
                ctx,
                |path| {
                    let payload = read_checkpoint_file(path).ok()?;
                    decode_runs(&payload, reps).ok().map(units)
                },
                || Ok(units(Vec::new())),
            )
        }
        JobKind::Triangles { t_lower } => {
            let budget = triangle_budget(trace.edges(), t_lower, spec.epsilon);
            let make = |seed| {
                TwoPassTriangle::new(TwoPassTriangleConfig {
                    seed,
                    edge_sampling: EdgeSampling::BottomK { k: budget },
                    pair_capacity: budget,
                })
            };
            run_passes(ctx, items, make, |out| out.estimate)
        }
        JobKind::FourCycles { t_lower } => {
            let budget = four_cycle_budget(trace.edges(), t_lower);
            let make = |seed| {
                TwoPassFourCycle::new(TwoPassFourCycleConfig {
                    seed,
                    edge_sample_size: budget,
                    estimator: FourCycleEstimator::DistinctCycles,
                    max_wedges: None,
                })
            };
            run_passes(ctx, items, make, |out| out.estimate)
        }
        JobKind::Update { .. } => unreachable!("update jobs dispatched above"),
    }
}

/// Persist the state an execution segment ended in, removing a terminal
/// job's checkpoint first; returns `true` when the scheduler should
/// requeue the job (preemption).
fn settle(inner: &Inner, id: u64, state: JobState) -> bool {
    if state.is_terminal() {
        let _ = std::fs::remove_file(JobId(id).checkpoint_path(&inner.cfg.state_dir));
    }
    let requeue = matches!(&state, JobState::Suspended { reason, .. } if reason == "preempted");
    inner.set_state(id, state);
    requeue
}

/// A `validate` job's verdict. [`Catalog::load_items`] already certified
/// the trace (an invalid one fails to load as `trace_unavailable`), so this
/// only reports the edge count it found.
fn run_validate(trace: &ItemTrace) -> JobState {
    let estimate = trace.edges() as f64;
    JobState::Done {
        result: JobResult {
            estimate,
            estimate_bits: estimate.to_bits(),
            survivors: 1,
            repetitions: 1,
            passes: 1,
            resumed_from: None,
        },
    }
}

/// One job kind's side of [`run_units`]: its unit of work, its checkpoint
/// and its terminal state. Everything at the boundaries between units
/// belongs to the loop.
trait JobUnits {
    /// What one unit is called in failure details.
    const UNIT: &'static str;
    /// Units finished so far, which is also the next unit's index.
    fn cursor(&self) -> usize;
    /// Whether every unit has run.
    fn is_complete(&self) -> bool;
    /// Run the next unit; an error is the job's terminal state.
    fn step(&mut self, ctx: JobCtx) -> Result<(), JobState>;
    /// Write the boundary as the job's checkpoint file.
    fn save(&self, path: &Path) -> Result<(), JobState>;
    /// The terminal state of a complete job.
    fn finish(self, ctx: JobCtx, resumed_from: Option<usize>) -> JobState;
}

/// The one boundary loop every resumable job runs. It restores the job's
/// checkpoint, or starts fresh when there is none or it fails to restore
/// (the damaged file is discarded; seeded determinism makes both roads
/// produce the same bits). Before every unit it reports `Running{cursor}`,
/// runs the chaos delay, honours cancel and eviction (checkpoint, then
/// `Suspended{preempted|drain}`), fires the chaos panic and checks the
/// deadline, which runs per execution segment. After every interior unit
/// it writes a checkpoint, so `kill -9` always finds a boundary.
fn run_units<U: JobUnits>(
    ctx: JobCtx,
    restore: impl FnOnce(&Path) -> Option<U>,
    start: impl FnOnce() -> Result<U, JobState>,
) -> Result<JobState, JobState> {
    let (inner, spec) = (ctx.inner, ctx.spec);
    let ckpt = JobId(ctx.id).checkpoint_path(&inner.cfg.state_dir);
    let (mut units, resumed_from) = match ckpt.exists().then(|| restore(&ckpt)).flatten() {
        Some(units) => {
            lock(&inner.counters).resumed += 1;
            let from = units.cursor();
            (units, Some(from))
        }
        None => {
            let _ = std::fs::remove_file(&ckpt);
            (start()?, None)
        }
    };
    let deadline = spec
        .budget
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    while !units.is_complete() {
        let (unit, n) = (U::UNIT, units.cursor());
        inner.set_state(ctx.id, JobState::Running { pass: n });

        // Chaos: widen the unit with a delay, sliced so a cancel or evict
        // arriving during the sleep still acts at this boundary.
        let mut remaining = spec.chaos.delay_ms_per_pass;
        while remaining > 0
            && !ctx.evict.load(Ordering::SeqCst)
            && !ctx.cancelled.load(Ordering::SeqCst)
        {
            let slice = remaining.min(10);
            std::thread::sleep(Duration::from_millis(slice));
            remaining -= slice;
        }
        if ctx.cancelled.load(Ordering::SeqCst) {
            return Err(failed("cancelled", format!("cancelled before {unit} {n}")));
        }
        if ctx.evict.swap(false, Ordering::SeqCst) {
            units.save(&ckpt)?;
            let draining = inner.draining.load(Ordering::SeqCst);
            let reason = if draining { "drain" } else { "preempted" };
            return Ok(JobState::Suspended {
                pass: n,
                reason: reason.into(),
            });
        }

        // Chaos: a simulated worker crash, caught by the pool's unwind
        // barrier and mapped to `Failed{worker_panic}`.
        if spec.chaos.panic_in_pass == Some(n) {
            panic!("chaos: injected worker panic before {unit} {n}");
        }

        if deadline.is_some_and(|d| Instant::now() >= d) {
            let limit = spec.budget.deadline_ms.unwrap_or(0);
            let detail = format!("deadline of {limit} ms expired before {unit} {n}");
            return Err(failed("deadline", detail));
        }

        units.step(ctx)?;
        if !units.is_complete() {
            units.save(&ckpt)?;
        }
    }
    Ok(units.finish(ctx, resumed_from))
}

/// Write a job kind's checkpoint payload to `path`.
fn save_payload(path: &Path, payload: std::io::Result<Vec<u8>>) -> Result<(), JobState> {
    payload
        .map_err(FrameError::Io)
        .and_then(|payload| write_checkpoint_file(path, &payload))
        .map_err(|e| failed("checkpoint", e.to_string()))
}

/// The amplified terminal state: the median over the surviving
/// repetitions, or `Degraded` when fewer than the job's quorum survived.
fn median_state(
    spec: &JobSpec,
    runs: &[Option<f64>],
    passes: usize,
    resumed_from: Option<usize>,
) -> JobState {
    let reps = runs.len();
    let required = spec
        .min_survivors
        .unwrap_or_else(|| quorum(reps))
        .clamp(1, reps);
    let survivors = runs.iter().flatten().count();
    match median_of_survivors(runs, required) {
        Ok(report) => JobState::Done {
            result: JobResult {
                estimate: report.median,
                estimate_bits: report.median.to_bits(),
                survivors,
                repetitions: reps,
                passes,
                resumed_from,
            },
        },
        Err(d) => JobState::Degraded {
            survivors: d.survivors,
            required: d.required,
        },
    }
}

/// Map a batch-engine error onto the job's typed failure vocabulary.
fn failure_from(e: &RunError) -> JobState {
    let reason = match e {
        RunError::DeadlineExceeded { .. } => "deadline",
        RunError::SpaceBudgetExceeded { .. } => "space_budget",
        RunError::Checkpoint { .. } => "checkpoint",
        _ => "run_error",
    };
    failed(reason, e.to_string())
}

/// A static estimate's units: one [`BatchJob`] pass over the whole trace,
/// every repetition an instance of the batch.
struct PassUnits<'t, A: MultiPassAlgorithm> {
    job: BatchJob<A>,
    items: &'t [StreamItem],
    /// Passes run in this segment, for the engine's generation count.
    generations: usize,
    extract: fn(&A::Output) -> f64,
}

/// Run a static estimate: `make` builds the repetition at a seed and
/// `extract` reads its estimate.
fn run_passes<A>(
    ctx: JobCtx,
    items: &[StreamItem],
    make: impl Fn(u64) -> A,
    extract: fn(&A::Output) -> f64,
) -> Result<JobState, JobState>
where
    A: MultiPassAlgorithm + Checkpoint + Send,
    A::Output: Send,
{
    let spec = ctx.spec;
    let cfg = BatchConfig {
        budget: Budget {
            max_bytes_per_instance: spec.budget.max_instance_bytes,
            max_total_bytes: spec.budget.max_total_bytes,
            deadline: spec.budget.deadline_ms.map(Duration::from_millis),
        },
        metrics: spec.collect_metrics,
        ..BatchConfig::with_threads(1)
    };
    let units = |job| PassUnits {
        job,
        items,
        generations: 0,
        extract,
    };
    run_units(
        ctx,
        |path| BatchJob::restore_from_file(path, &cfg).ok().map(units),
        || {
            let reps = repetitions_for_confidence(spec.delta);
            let instances = (0..reps)
                .map(|i| make(spec.seed.wrapping_add(i as u64)))
                .collect();
            BatchJob::new(instances, &cfg)
                .map(units)
                .map_err(|e| failure_from(&e))
        },
    )
}

impl<A> JobUnits for PassUnits<'_, A>
where
    A: MultiPassAlgorithm + Checkpoint + Send,
    A::Output: Send,
{
    const UNIT: &'static str = "pass";

    fn cursor(&self) -> usize {
        self.job.completed_passes()
    }

    fn is_complete(&self) -> bool {
        self.job.is_complete()
    }

    fn step(&mut self, _ctx: JobCtx) -> Result<(), JobState> {
        self.job
            .run_pass(self.items)
            .map_err(|e| failure_from(&e))?;
        self.generations += 1;
        self.job.set_source_generations(self.generations);
        Ok(())
    }

    fn save(&self, path: &Path) -> Result<(), JobState> {
        self.job
            .write_checkpoint(path)
            .map_err(|e| failure_from(&e))
    }

    fn finish(self, ctx: JobCtx, resumed_from: Option<usize>) -> JobState {
        let out = self.job.finish();
        if let Some(snap) = &out.report.metrics {
            lock(&ctx.inner.metrics).merge(snap);
        }
        let runs: Vec<Option<f64>> = out
            .outputs
            .iter()
            .map(|o| o.as_ref().map(self.extract))
            .collect();
        median_state(ctx.spec, &runs, out.report.passes, resumed_from)
    }
}

/// A graph-sharded triangles job's units (`spec.shards > 1`): one
/// repetition of the shard-mergeable three-pass estimator, which
/// partitions the trace by list-owner vertex, runs one worker thread per
/// shard and merges per-shard state at every pass boundary. The median
/// over repetitions amplifies confidence as in the unsharded path. The
/// checkpoint is the finished repetitions' estimates, so their count is
/// the cursor. `max_instance_bytes` is enforced against each repetition's
/// merged peak: an over-budget repetition is quarantined, mirroring the
/// batch engine's per-instance kill.
struct RepetitionUnits<'t> {
    plan: ShardPlan,
    items: &'t [StreamItem],
    budget: usize,
    reps: usize,
    runs: Vec<Option<f64>>,
    sink: Metrics,
}

/// Sharded checkpoint payload: the repetition count, then per finished
/// repetition a survived flag and its estimate bits.
fn encode_runs(runs: &[Option<f64>]) -> std::io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    write_usize(&mut payload, runs.len())?;
    for run in runs {
        write_u8(&mut payload, u8::from(run.is_some()))?;
        write_u64(&mut payload, run.map_or(0, f64::to_bits))?;
    }
    Ok(payload)
}

fn decode_runs(payload: &[u8], reps: usize) -> std::io::Result<Vec<Option<f64>>> {
    let r = &mut &payload[..];
    let n = read_usize(r)?;
    if n > reps {
        return Err(corrupt(format!("{n} finished repetitions of {reps}")));
    }
    (0..n)
        .map(|_| {
            let survived = read_u8(r)?;
            let bits = read_u64(r)?;
            match survived {
                0 => Ok(None),
                1 => Ok(Some(f64::from_bits(bits))),
                t => Err(corrupt(format!("bad repetition flag {t}"))),
            }
        })
        .collect()
}

impl JobUnits for RepetitionUnits<'_> {
    const UNIT: &'static str = "repetition";

    fn cursor(&self) -> usize {
        self.runs.len()
    }

    fn is_complete(&self) -> bool {
        self.runs.len() >= self.reps
    }

    fn step(&mut self, ctx: JobCtx) -> Result<(), JobState> {
        let cfg = ShardedTriangleConfig {
            seed: ctx.spec.seed.wrapping_add(self.runs.len() as u64),
            edge_sampling: EdgeSampling::BottomK { k: self.budget },
            pair_capacity: self.budget,
        };
        let algo = ShardedTriangle::new(cfg);
        let (out, report) =
            run_sharded_hooked(algo, &self.plan, self.items, &self.sink, |_| Ok(()))
                .map_err(|e| failed("shard_failed", e.to_string()))?;
        let over = ctx
            .spec
            .budget
            .max_instance_bytes
            .is_some_and(|limit| report.peak_state_bytes > limit);
        self.runs.push((!over).then_some(out.estimate));
        Ok(())
    }

    fn save(&self, path: &Path) -> Result<(), JobState> {
        save_payload(path, encode_runs(&self.runs))
    }

    fn finish(self, ctx: JobCtx, resumed_from: Option<usize>) -> JobState {
        if let Some(snap) = self.sink.snapshot() {
            lock(&ctx.inner.metrics).merge(&snap);
        }
        median_state(ctx.spec, &self.runs, 3, resumed_from)
    }
}

/// An update job's units: one batch of TRIÈST-FD events behind a
/// `GuardedUpdate`. Every batch boundary is a checkpoint, so eviction,
/// drain and `kill -9` all land on one and the resumed run's remaining
/// per-batch estimates are bit-identical to an uninterrupted run's.
struct BatchUnits<'s> {
    events: &'s [UpdateEvent],
    batch_size: usize,
    /// The estimate at the last boundary.
    previous: f64,
    /// Every finished batch, as carried in the checkpoint and the
    /// `.batches` sidecar.
    rows: Vec<UpdateBatchReport>,
    guard: GuardedUpdate<TriestFd>,
}

/// Encoded size of one ledger row in an update checkpoint: events,
/// inserts, end timestamp, estimate bits and delta bits, 8 bytes each.
const LEDGER_ROW_BYTES: usize = 5 * 8;

impl<'s> BatchUnits<'s> {
    /// The update checkpoint payload: progress cursor, the estimate at the
    /// last boundary, the per-batch ledger, then the guarded estimator's
    /// own state. The ledger keeps exact bit patterns, so "bit-identical
    /// per-batch deltas" is literal across a resume.
    fn payload(&self) -> std::io::Result<Vec<u8>> {
        let mut payload = Vec::new();
        write_usize(&mut payload, self.rows.len())?;
        write_u64(&mut payload, self.previous.to_bits())?;
        write_usize(&mut payload, self.rows.len())?;
        for row in &self.rows {
            write_usize(&mut payload, row.events)?;
            write_usize(&mut payload, row.inserts)?;
            write_u64(&mut payload, row.ts_end)?;
            write_u64(&mut payload, row.estimate.to_bits())?;
            write_u64(&mut payload, row.delta.to_bits())?;
        }
        self.guard.save(&mut payload)?;
        Ok(payload)
    }

    fn restore(
        payload: &[u8],
        events: &'s [UpdateEvent],
        batch_size: usize,
    ) -> std::io::Result<Self> {
        let r = &mut &payload[..];
        let next_batch = read_usize(r)?;
        let previous = f64::from_bits(read_u64(r)?);
        let n = read_usize(r)?;
        if n != next_batch {
            return Err(corrupt(format!("cursor {next_batch} over {n} batches")));
        }
        // `n` is unchecked: preallocate no more rows than the bytes left
        // can encode.
        let mut rows = Vec::with_capacity(n.min(r.len() / LEDGER_ROW_BYTES));
        for batch in 0..n {
            let (events, inserts) = (read_usize(r)?, read_usize(r)?);
            rows.push(UpdateBatchReport {
                batch,
                events,
                inserts,
                deletes: events
                    .checked_sub(inserts)
                    .ok_or_else(|| corrupt("inserts > events"))?,
                ts_end: read_u64(r)?,
                estimate: f64::from_bits(read_u64(r)?),
                delta: f64::from_bits(read_u64(r)?),
            });
        }
        Ok(BatchUnits {
            events,
            batch_size,
            previous,
            rows,
            guard: GuardedUpdate::restore(r)?,
        })
    }
}

impl JobUnits for BatchUnits<'_> {
    const UNIT: &'static str = "batch";

    fn cursor(&self) -> usize {
        self.rows.len()
    }

    fn is_complete(&self) -> bool {
        self.rows.len() >= self.events.len().div_ceil(self.batch_size)
    }

    fn step(&mut self, ctx: JobCtx) -> Result<(), JobState> {
        let start = self.rows.len() * self.batch_size;
        let chunk = &self.events[start..self.events.len().min(start + self.batch_size)];
        // Under Strict the first invalid event is a typed terminal failure;
        // Repair and Observe never return an error here.
        let row = apply_update_batch(
            &mut self.guard,
            self.rows.len(),
            chunk,
            self.previous,
            |guard, ev| guard.apply_event(ev),
        )
        .map_err(|v| failed("guard_violation", v.to_string()))?;
        if let Some(limit) = ctx.spec.budget.max_total_bytes {
            let used = self.guard.space_bytes();
            if used > limit {
                let detail = format!("update state used {used} bytes, limit {limit}");
                return Err(failed("space_budget", detail));
            }
        }
        self.previous = row.estimate;
        self.rows.push(row);
        lock(&ctx.inner.counters).update_batches += 1;
        Ok(())
    }

    fn save(&self, path: &Path) -> Result<(), JobState> {
        save_payload(path, self.payload())
    }

    fn finish(self, ctx: JobCtx, resumed_from: Option<usize>) -> JobState {
        let stats = self.guard.stats();
        {
            let mut c = lock(&ctx.inner.counters);
            c.guard_detections += stats.detections as u64;
            c.guard_dropped += stats.dropped as u64;
        }
        let id = JobId(ctx.id);
        let path = id.batches_path(&ctx.inner.cfg.state_dir);
        write_batches_sidecar(&path, id, &ctx.spec.trace, &self.rows, &self.guard);
        let estimate = self.guard.estimate();
        JobState::Done {
            result: JobResult {
                estimate,
                estimate_bits: estimate.to_bits(),
                survivors: 1,
                repetitions: 1,
                passes: self.rows.len(),
                resumed_from,
            },
        }
    }
}

/// Write the per-batch sidecar an update job leaves next to its manifest:
/// one JSON document with every batch's estimate bits and the guard's
/// final tallies. Atomic (tmp + rename), same as manifests.
fn write_batches_sidecar(
    path: &Path,
    id: JobId,
    trace: &str,
    rows: &[UpdateBatchReport],
    guard: &GuardedUpdate<TriestFd>,
) {
    let batches: Vec<Json> = rows
        .iter()
        .map(|row| {
            obj(vec![
                ("batch", Json::Num(row.batch as f64)),
                ("events", Json::Num(row.events as f64)),
                ("inserts", Json::Num(row.inserts as f64)),
                ("deletes", Json::Num(row.deletes as f64)),
                ("ts_end", Json::Num(row.ts_end as f64)),
                ("estimate_bits", hex64(row.estimate.to_bits())),
                ("delta_bits", hex64(row.delta.to_bits())),
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

    /// The update checkpoint payload and the `.batches` sidecar are
    /// on-disk formats: a resumed job reads the one an older daemon wrote.
    /// Both are pinned to bytes recorded before the update job moved onto
    /// the shared batch step (12 events, one dead delete repaired, batches
    /// of 5, checkpoint taken after batch 1).
    #[test]
    fn update_checkpoint_and_sidecar_bytes_are_pinned() {
        use adjstream_stream::update::UpdateEvent as E;
        let events = [
            E::insert(0, 1, 1),
            E::insert(0, 2, 2),
            E::insert(1, 2, 3),
            E::insert(0, 3, 4),
            E::insert(1, 3, 5),
            E::delete(5, 6, 6),
            E::insert(2, 3, 7),
            E::delete(0, 1, 8),
            E::insert(0, 1, 9),
            E::insert(1, 4, 10),
            E::insert(2, 4, 11),
            E::insert(0, 4, 12),
        ];
        let guard = GuardedUpdate::new(TriestFd::new(7, 4), adjstream_stream::GuardPolicy::Repair);
        let mut units = BatchUnits {
            events: &events,
            batch_size: 5,
            previous: guard.estimate(),
            rows: Vec::new(),
            guard,
        };
        let want_ckpt = [
            "0200000000000000000000000080214002000000000000000500000000000000",
            "0500000000000000050000000000000000000000000000000000000000000000",
            "050000000000000003000000000000000a000000000000000000000000802140",
            "000000000080214001010a000000000000000a000000000000000a0000000000",
            "0000010000000000000000000000000000000100000000000000000000000000",
            "0000010000000000000000000000000000000700000000000000010000000000",
            "0000020000000000000003000000000000000200000001000000030000000100",
            "0000040000000100000003000000020000000400000000000000070000000000",
            "000000000000000000000000000000000000010000000000000085e8befb58da",
            "4cb5040000000000000003000000000000000200000000000000020000000100",
            "00000300000002000000",
        ]
        .concat();
        for batch in 0..3 {
            if batch == 2 {
                let payload = units.payload().unwrap();
                let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
                assert_eq!(hex, want_ckpt, "update checkpoint payload");
                let restored = BatchUnits::restore(&payload, &events, 5).unwrap();
                assert_eq!(restored.payload().unwrap(), payload, "restore round-trips");
                assert_eq!(restored.rows, units.rows);
            }
            let chunk = &events[batch * 5..events.len().min(batch * 5 + 5)];
            let row =
                apply_update_batch(&mut units.guard, batch, chunk, units.previous, |g, ev| {
                    g.apply_event(ev)
                })
                .unwrap();
            units.previous = row.estimate;
            units.rows.push(row);
        }
        let path = std::env::temp_dir().join(format!("pinned-{}.batches", std::process::id()));
        write_batches_sidecar(&path, JobId(42), "dyn", &units.rows, &units.guard);
        let sidecar = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(sidecar, "{\"id\":\"000000000000002a\",\"trace\":\"dyn\",\"policy\":\"repair\",\"batches\":[{\"batch\":0,\"events\":5,\"inserts\":5,\"deletes\":0,\"ts_end\":5,\"estimate_bits\":\"0000000000000000\",\"delta_bits\":\"0000000000000000\"},{\"batch\":1,\"events\":5,\"inserts\":3,\"deletes\":2,\"ts_end\":10,\"estimate_bits\":\"4021800000000000\",\"delta_bits\":\"4021800000000000\"},{\"batch\":2,\"events\":2,\"inserts\":2,\"deletes\":0,\"ts_end\":12,\"estimate_bits\":\"0000000000000000\",\"delta_bits\":\"c021800000000000\"}],\"guard\":{\"events\":12,\"detections\":1,\"duplicate_inserts\":0,\"dead_deletes\":1,\"ts_regressions\":0,\"dropped\":1,\"repaired_ts\":0}}\n", ".batches sidecar");
    }

    #[test]
    fn update_checkpoint_with_a_huge_row_count_is_a_typed_error() {
        let mut payload = Vec::new();
        write_usize(&mut payload, 1 << 40).unwrap();
        write_u64(&mut payload, 0).unwrap();
        write_usize(&mut payload, 1 << 40).unwrap();
        payload.extend_from_slice(&[0; 3 * LEDGER_ROW_BYTES]);
        match BatchUnits::restore(&payload, &[], 5) {
            Ok(_) => panic!("2^40 rows cannot fit in {} bytes", payload.len()),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
        }
    }

    #[test]
    fn sharded_checkpoint_round_trips_and_rejects_overlong_cursors() {
        let runs = [Some(1.5), None, Some(-0.0)];
        let payload = encode_runs(&runs).unwrap();
        let back = decode_runs(&payload, 3).unwrap();
        let bits = |r: &[Option<f64>]| r.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&runs));
        assert!(
            decode_runs(&payload, 2).is_err(),
            "more runs than repetitions"
        );
        assert!(
            decode_runs(&payload[..payload.len() - 1], 3).is_err(),
            "truncated"
        );
    }
}
