//! Stream-once batched execution: fan one stream replay out to many
//! algorithm instances, with per-instance fault isolation.
//!
//! The amplification layer (Theorems 3.7 and 4.6) runs `Θ(log 1/δ)`
//! independent repetitions of the same multi-pass algorithm, and the
//! guess-and-verify driver multiplies that by `O(log T)` guess levels.
//! Replaying the full adjacency-list stream for every repetition of every
//! level is pass-wasteful in exactly the sense the model charges for. A
//! [`BatchJob`] restores pass-optimality: each pass's item sequence is
//! replayed **once** and every item is fanned out to all `R` resident
//! [`MultiPassAlgorithm`] instances, so the whole batch costs as many
//! stream passes as a *single* instance would. `R = 1` is plain sequential
//! replay.
//!
//! Execution model:
//!
//! * The fan-out is itself driven as one algorithm by the shared
//!   [`drive_pass_slice`](crate::runner::drive_pass_slice) loop, so list
//!   boundaries, peak sampling, and abort polling are exactly the
//!   sequential driver's.
//! * With `threads ≤ 1` the instances are driven inline, in index order.
//! * With `threads > 1` the instances are sharded across worker threads
//!   (contiguous index ranges, mirroring `median_of_runs`' chunking). The
//!   driving thread batches stream events into chunks and broadcasts each
//!   chunk to every worker over a bounded channel — a full worker exerts
//!   backpressure on the stream generator instead of buffering unboundedly.
//!   Workers exist per pass: at every pass boundary the instances return to
//!   the driving thread, which is what makes boundary checkpoints and
//!   aggregate budget checks possible at any thread count.
//!
//! Because every instance observes the identical event sequence in either
//! mode, batched execution is **bitwise reproducible** against the
//! sequential driver: an instance seeded `s` produces the same output here
//! as it does under `Runner::run` on the same graph and order.
//!
//! # Fault isolation and budgets
//!
//! Replay through an instance is wrapped in `catch_unwind`, so a panicking
//! instance is *quarantined* — its slot in [`BatchOutcome::outputs`] becomes
//! `None`, its [`InstanceReport::outcome`] records the panic message, and
//! every other instance keeps running and stays bit-for-bit reproducible.
//! The same per-instance quarantine applies to [`Budget::max_bytes_per_instance`]
//! overruns, checked at the exact boundaries where the sequential runner
//! samples state size. Batch-wide limits ([`Budget::max_total_bytes`],
//! [`Budget::deadline`]) abort the whole run with a typed [`RunError`] —
//! they bound the *process*, which no per-instance quarantine can do.
//!
//! # Checkpoint / resume
//!
//! [`BatchJob::write_checkpoint`] captures the whole batch (every live
//! instance, every quarantined outcome, the shared guard) at an interior
//! pass boundary, atomically, via
//! [`crate::checkpoint::write_checkpoint_file`]; [`BatchJob::run`]'s
//! after-pass hook is where a one-shot run writes it. A run killed between
//! passes is picked up by [`BatchJob::restore_from_file`] followed by the
//! same [`BatchJob::run`], which replays only the remaining passes and
//! produces bit-for-bit the per-instance outputs of an uninterrupted run.
//! (`stream_generations` counts regeneration work and will differ on a
//! resumed run; the determinism contract covers outputs.)
//!
//! Ingestion guarding composes at the *stream* level, not per instance:
//! [`BatchConfig::guard`] wraps the fan-out itself in a single
//! [`Guarded`] adapter, so one [`OnlineValidator`] vets each item once
//! before it is broadcast (the repair policy's dropped items simply never
//! reach any instance). Running `R` validators for `R` instances of the
//! same stream would multiply validation cost and memory for no extra
//! information.
//!
//! [`OnlineValidator`]: crate::validate::OnlineValidator

use std::any::Any;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adjstream_graph::VertexId;

use crate::checkpoint::{
    read_bytes, read_checkpoint_file, read_u32, read_u8, read_usize, write_bytes,
    write_checkpoint_file, write_u32, write_u8, write_usize, Checkpoint,
};
use crate::guard::{decode_mode, decode_policy, encode_mode, encode_policy, GuardPolicy, Guarded};
use crate::item::StreamItem;
use crate::meter::{vec_bytes, PeakTracker, SpaceUsage};
use crate::obs::{Metrics, MetricsSnapshot, ObsCounters, PassMetrics, RunObserver};
use crate::runner::{drive_pass_runs, list_runs, GuardStats, MultiPassAlgorithm, RunError};
use crate::validate::ValidatorMode;

/// Resource limits enforced on a batched run.
///
/// `None` in any slot means unlimited. Per-instance limits quarantine the
/// offending instance (the rest of the batch keeps running); batch-wide
/// limits abort the whole run with a typed [`RunError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Per-instance state ceiling in bytes, checked where the sequential
    /// runner samples state size (every list and pass boundary). An
    /// instance exceeding it is quarantined with
    /// [`InstanceOutcome::BudgetExceeded`].
    pub max_bytes_per_instance: Option<usize>,
    /// Aggregate ceiling over all live instances' state, checked at every
    /// pass boundary. Exceeding it fails the run with
    /// [`RunError::SpaceBudgetExceeded`].
    pub max_total_bytes: Option<usize>,
    /// Wall-clock deadline for the whole run, checked at chunk granularity.
    /// Exceeding it fails the run with [`RunError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

/// Stream events buffered per replay chunk. Inline mode replays each full
/// chunk through one instance at a time, so larger chunks keep an
/// instance's state hot in cache across many events instead of touching all
/// `R` states per event; threaded mode ships whole chunks over the
/// channels, amortizing send overhead. Smaller chunks tighten backpressure
/// and shrink the buffer; this size trades ~2 MiB of buffer for
/// near-saturated replay throughput.
#[cfg(not(test))]
const CHUNK_EVENTS: usize = 128 * 1024;
/// Unit tests use tiny chunks so small streams still cross many chunk
/// boundaries.
#[cfg(test)]
const CHUNK_EVENTS: usize = 64;

/// Bounded-channel depth per worker, in chunks.
const CHANNEL_DEPTH: usize = 4;

/// Knobs for a batched run.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// Worker threads the instances are sharded over; `0` or `1` drives
    /// them inline on the calling thread.
    pub threads: usize,
    /// Wrap the *shared stream* in one [`Guarded`] validator with this
    /// policy and mode. `None` trusts the stream (the graph-backed
    /// generator always satisfies the promise).
    pub guard: Option<(GuardPolicy, ValidatorMode)>,
    /// Resource limits; default unlimited.
    pub budget: Budget,
    /// Collect structured run metrics into [`BatchReport::metrics`].
    /// Default off; turning it on never changes what the run computes.
    pub metrics: bool,
}

impl BatchConfig {
    /// Config with `threads` workers and every other knob at its default.
    pub fn with_threads(threads: usize) -> Self {
        BatchConfig {
            threads,
            ..BatchConfig::default()
        }
    }
}

/// How one instance of a batched run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceOutcome {
    /// Ran to completion; its output occupies its slot in
    /// [`BatchOutcome::outputs`].
    Ok,
    /// Aborted with a typed error (its own guard, if it carried one).
    Failed {
        /// The abort error.
        error: RunError,
    },
    /// Panicked mid-replay and was quarantined; the rest of the batch was
    /// unaffected.
    Panicked {
        /// Panic payload, when it was a string (the common `panic!` case).
        message: String,
    },
    /// Exceeded [`Budget::max_bytes_per_instance`] and was quarantined.
    BudgetExceeded {
        /// State size observed at the boundary that tripped the limit.
        peak_bytes: usize,
        /// The configured per-instance limit.
        limit: usize,
    },
}

/// Per-instance execution summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceReport {
    /// Worker shard the instance ran on (0 in inline mode).
    pub shard: usize,
    /// High-water mark of this instance's reported state, sampled at every
    /// adjacency-list boundary (same sampling points as the sequential
    /// runner).
    pub peak_state_bytes: usize,
    /// Items delivered to this instance across all passes (delivery stops
    /// at quarantine).
    pub items: usize,
    /// How the instance ended.
    pub outcome: InstanceOutcome,
    /// Deterministic observability counters the instance's algorithm
    /// reported via [`MultiPassAlgorithm::obs_counters`], if any.
    pub counters: Option<ObsCounters>,
}

/// Execution summary of a batched run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Instances fanned out to.
    pub instances: usize,
    /// Worker threads actually used (after clamping to the instance count).
    pub threads: usize,
    /// Stream passes executed — for the whole batch, not per instance.
    pub passes: usize,
    /// Items driven through the shared stream, summed over passes. Each
    /// item is counted once here no matter how many instances consumed it.
    pub stream_items: usize,
    /// Item sequences the pass source generated, as recorded through
    /// [`BatchJob::set_source_generations`] (e.g.
    /// [`GraphPasses::generations`](crate::runner::GraphPasses::generations):
    /// passes replaying an identical order share one buffer and do not
    /// count), plus those of the checkpointed run a job was restored from.
    pub stream_generations: usize,
    /// Total item deliveries across instances (≈ `stream_items ×
    /// instances`, minus items a shared repair guard dropped before
    /// fan-out and items quarantined instances never received).
    pub items_fanned_out: usize,
    /// Per-instance diagnostics, in instance order.
    pub per_instance: Vec<InstanceReport>,
    /// Counters of the shared-stream guard, when one was configured.
    pub guard: Option<GuardStats>,
    /// `Some(p)` when this run was restored from a checkpoint taken after
    /// `p` completed passes.
    pub resumed_from: Option<usize>,
    /// Aggregate structured metrics, collected when
    /// [`BatchConfig::metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
}

impl BatchReport {
    /// Instances that ran to completion ([`InstanceOutcome::Ok`]).
    pub fn survivors(&self) -> usize {
        self.per_instance
            .iter()
            .filter(|r| r.outcome == InstanceOutcome::Ok)
            .count()
    }
}

/// A batched run's outputs plus its report.
#[derive(Debug, Clone)]
pub struct BatchOutcome<T> {
    /// Instance outputs, in the order the instances were supplied. `None`
    /// marks a quarantined instance; its [`InstanceReport::outcome`] says
    /// why.
    pub outputs: Vec<Option<T>>,
    /// Execution summary.
    pub report: BatchReport,
}

/// One stream event, as broadcast to every instance. Mirrors the calls
/// [`drive_pass_slice`](crate::runner::drive_pass_slice) makes on a
/// [`MultiPassAlgorithm`].
#[derive(Debug, Clone, Copy)]
enum Event {
    BeginPass(usize),
    BeginList(VertexId),
    /// A same-source run, stored as a range into the carrying [`Chunk`]'s
    /// item buffer; delivered via [`MultiPassAlgorithm::feed_slice`].
    Run {
        start: usize,
        len: usize,
    },
    EndList(VertexId),
    EndPass(usize),
}

/// A broadcast unit: buffered events plus the item buffer that the chunk's
/// [`Event::Run`] ranges index into.
#[derive(Debug, Default)]
struct Chunk {
    events: Vec<Event>,
    items: Vec<StreamItem>,
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Liveness of one instance mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
enum InstanceStatus {
    Live,
    Failed(RunError),
    Panicked(String),
    OverBudget { peak_bytes: usize, limit: usize },
}

/// An instance plus its driver-side bookkeeping. Applying events through
/// this struct reproduces `drive_pass_slice`'s per-instance behavior
/// exactly: peak state sampled at list and pass boundaries, abort polled
/// after every run and at pass end, budget checked at the sampling points.
struct InstanceState<A: MultiPassAlgorithm> {
    /// Position in the caller's instance vector (stable across sharding).
    index: usize,
    shard: usize,
    algo: Option<A>,
    peak: PeakTracker,
    items: usize,
    pass: usize,
    byte_limit: Option<usize>,
    status: InstanceStatus,
}

impl<A: MultiPassAlgorithm> InstanceState<A> {
    fn new(algo: A, index: usize, byte_limit: Option<usize>) -> Self {
        InstanceState {
            index,
            shard: 0,
            algo: Some(algo),
            peak: PeakTracker::new(),
            items: 0,
            pass: 0,
            byte_limit,
            status: InstanceStatus::Live,
        }
    }

    fn is_live(&self) -> bool {
        self.status == InstanceStatus::Live
    }

    /// Observe the instance's state size at a boundary, quarantining it if
    /// the per-instance budget is exceeded.
    fn observe_bytes(&mut self, bytes: usize) {
        self.peak.observe(bytes);
        if let Some(limit) = self.byte_limit {
            if bytes > limit && self.is_live() {
                self.status = InstanceStatus::OverBudget {
                    peak_bytes: bytes,
                    limit,
                };
            }
        }
    }

    fn apply(&mut self, ev: Event, chunk_items: &[StreamItem]) {
        if !self.is_live() {
            return;
        }
        let Some(algo) = self.algo.as_mut() else {
            return;
        };
        match ev {
            Event::BeginPass(p) => {
                self.pass = p;
                algo.begin_pass(p);
            }
            Event::BeginList(owner) => algo.begin_list(owner),
            Event::Run { start, len } => {
                algo.feed_slice(&chunk_items[start..start + len]);
                self.items += len;
                // Same abort granularity as `drive_pass_slice`: per run.
                if let Some(error) = algo.abort_error() {
                    self.status = InstanceStatus::Failed(RunError::Invalid {
                        pass: self.pass,
                        error,
                    });
                }
            }
            Event::EndList(owner) => {
                algo.end_list(owner);
                let bytes = algo.space_bytes();
                self.observe_bytes(bytes);
            }
            Event::EndPass(p) => {
                algo.end_pass(p);
                let bytes = algo.space_bytes();
                if let Some(error) = algo.abort_error() {
                    self.peak.observe(bytes);
                    self.status = InstanceStatus::Failed(RunError::Invalid {
                        pass: self.pass,
                        error,
                    });
                } else {
                    self.observe_bytes(bytes);
                }
            }
        }
    }

    /// Replay a chunk with panic isolation: a panicking instance is marked
    /// [`InstanceStatus::Panicked`] and its algorithm is dropped (itself
    /// under `catch_unwind`, in case the poisoned state panics on drop);
    /// every other instance is untouched.
    fn apply_chunk(&mut self, chunk: &Chunk) {
        if !self.is_live() {
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            for &ev in &chunk.events {
                self.apply(ev, &chunk.items);
            }
        }));
        if let Err(payload) = result {
            self.status = InstanceStatus::Panicked(panic_message(payload));
        }
        if !self.is_live() {
            let algo = self.algo.take();
            let _ = catch_unwind(AssertUnwindSafe(move || drop(algo)));
        }
    }

    /// Finish the instance, producing its report and (for survivors) its
    /// output. `finish()` itself runs under `catch_unwind`.
    fn into_parts(mut self) -> (InstanceReport, Option<A::Output>) {
        let counters = self.algo.as_ref().and_then(|a| a.obs_counters());
        let (outcome, output) = match self.status {
            InstanceStatus::Live => {
                let algo = self.algo.take().expect("live instance has an algorithm");
                match catch_unwind(AssertUnwindSafe(move || algo.finish())) {
                    Ok(out) => (InstanceOutcome::Ok, Some(out)),
                    Err(payload) => (
                        InstanceOutcome::Panicked {
                            message: panic_message(payload),
                        },
                        None,
                    ),
                }
            }
            InstanceStatus::Failed(error) => (InstanceOutcome::Failed { error }, None),
            InstanceStatus::Panicked(message) => (InstanceOutcome::Panicked { message }, None),
            InstanceStatus::OverBudget { peak_bytes, limit } => {
                (InstanceOutcome::BudgetExceeded { peak_bytes, limit }, None)
            }
        };
        (
            InstanceReport {
                shard: self.shard,
                peak_state_bytes: self.peak.peak(),
                items: self.items,
                outcome,
                counters,
            },
            output,
        )
    }
}

/// The per-pass worker crew: event broadcast channels in, finished
/// instance states out.
struct PassWorkers<A: MultiPassAlgorithm> {
    senders: Vec<crossbeam::channel::Sender<Arc<Chunk>>>,
    done: crossbeam::channel::Receiver<Vec<InstanceState<A>>>,
}

/// The fan-out itself, viewed as one [`MultiPassAlgorithm`] so the shared
/// `drive_pass_slice` loop (and a shared [`Guarded`] wrapper) can drive it.
/// Unlike a plain algorithm it owns its instances *between* passes — worker
/// crews exist only while a pass is in flight — which is what lets the
/// engine checkpoint and budget-check at boundaries.
struct FanOut<A: MultiPassAlgorithm> {
    passes: usize,
    same_order: bool,
    buf: Vec<Event>,
    /// Item buffer the current chunk's [`Event::Run`] ranges index into.
    item_buf: Vec<StreamItem>,
    states: Vec<InstanceState<A>>,
    workers: Option<PassWorkers<A>>,
    /// Wall-clock deadline plus the configured limit in ms (for the error).
    deadline: Option<(Instant, u64)>,
    /// Batch-fatal condition (deadline); polled by the driver via
    /// [`MultiPassAlgorithm::abort_run`].
    fatal: Option<RunError>,
}

impl<A: MultiPassAlgorithm> FanOut<A> {
    /// Both backends buffer events into chunks instead of touching every
    /// instance per event: replaying a chunk against one instance at a time
    /// keeps that instance's sample structures hot in cache, where
    /// per-event interleaving across `R` instances thrashes it (measured
    /// ~5× slower at 55 resident triangle instances). Instances are
    /// independent, so chunked delivery is observationally identical.
    fn emit(&mut self, ev: Event) {
        self.buf.push(ev);
        // A `Run` event packs many items, so the item buffer needs its own
        // trigger to keep chunk memory bounded by the same size.
        if self.buf.len() >= CHUNK_EVENTS || self.item_buf.len() >= CHUNK_EVENTS {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.fatal.is_none() {
            if let Some((t, limit_ms)) = self.deadline {
                if Instant::now() >= t {
                    self.fatal = Some(RunError::DeadlineExceeded { limit_ms });
                }
            }
        }
        if self.fatal.is_some() {
            // The run is aborting; replaying further events is wasted work.
            self.buf.clear();
            self.item_buf.clear();
            return;
        }
        match &self.workers {
            Some(workers) => {
                let chunk = Arc::new(Chunk {
                    events: std::mem::take(&mut self.buf),
                    items: std::mem::take(&mut self.item_buf),
                });
                for tx in &workers.senders {
                    // A send fails only if the worker died; worker panics
                    // resurface at scope join, so dropping here is safe.
                    let _ = tx.send(Arc::clone(&chunk));
                }
            }
            None => {
                let chunk = Chunk {
                    events: std::mem::take(&mut self.buf),
                    items: std::mem::take(&mut self.item_buf),
                };
                for st in self.states.iter_mut() {
                    st.apply_chunk(&chunk);
                }
                // Hand the allocations back for the next chunk.
                self.buf = chunk.events;
                self.item_buf = chunk.items;
                self.buf.clear();
                self.item_buf.clear();
            }
        }
    }

    /// Tear down the pass's worker crew (if any) and take the instances
    /// back. Always restores `states` sorted by instance index, so the
    /// boundary view is identical at every thread count.
    fn join_pass_workers(&mut self) {
        self.buf.clear();
        self.item_buf.clear();
        if let Some(workers) = self.workers.take() {
            drop(workers.senders);
            let mut all: Vec<InstanceState<A>> = Vec::new();
            while let Ok(states) = workers.done.recv() {
                all.extend(states);
            }
            all.sort_by_key(|st| st.index);
            self.states = all;
        }
    }

    /// Aggregate live state across instances, for the batch-wide budget.
    fn total_live_bytes(&self) -> usize {
        self.states
            .iter()
            .filter(|st| st.is_live())
            .filter_map(|st| st.algo.as_ref().map(|a| a.space_bytes()))
            .sum()
    }
}

impl<A: MultiPassAlgorithm> SpaceUsage for FanOut<A> {
    /// Only the driver-side chunk buffer. Instance state is sampled
    /// per-instance inside [`InstanceState::apply`] (that is what the
    /// [`BatchReport`] publishes); summing `R` instances here would make
    /// the shared driver's boundary sampling O(R·state) per list, which
    /// measurably dominates whole runs.
    fn space_bytes(&self) -> usize {
        vec_bytes(&self.buf) + vec_bytes(&self.item_buf)
    }
}

impl<A: MultiPassAlgorithm> MultiPassAlgorithm for FanOut<A> {
    /// Never produced through `finish` — the engine disassembles the
    /// fan-out at the end of the last pass instead, because instance
    /// outcomes must survive the [`Guarded`] wrapper (whose `finish`
    /// consumes the wrapper around this type).
    type Output = ();

    fn passes(&self) -> usize {
        self.passes
    }

    fn requires_same_order(&self) -> bool {
        self.same_order
    }

    fn begin_pass(&mut self, pass: usize) {
        self.emit(Event::BeginPass(pass));
    }

    fn begin_list(&mut self, owner: VertexId) {
        self.emit(Event::BeginList(owner));
    }

    fn item(&mut self, src: VertexId, dst: VertexId) {
        self.feed_slice(&[StreamItem::new(src, dst)]);
    }

    fn feed_slice(&mut self, items: &[StreamItem]) {
        if items.is_empty() {
            return;
        }
        let start = self.item_buf.len();
        self.item_buf.extend_from_slice(items);
        self.emit(Event::Run {
            start,
            len: items.len(),
        });
    }

    fn end_list(&mut self, owner: VertexId) {
        self.emit(Event::EndList(owner));
    }

    fn end_pass(&mut self, pass: usize) {
        self.emit(Event::EndPass(pass));
        self.flush();
    }

    fn abort_run(&self) -> Option<RunError> {
        self.fatal.clone()
    }

    fn finish(self) -> Self::Output {}
}

/// The fan-out, optionally behind the shared ingestion guard. One exists
/// per batch run, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Driven<A: MultiPassAlgorithm> {
    Plain(FanOut<A>),
    Guarded(Guarded<FanOut<A>>),
}

impl<A: MultiPassAlgorithm> Driven<A> {
    fn fanout(&self) -> &FanOut<A> {
        match self {
            Driven::Plain(f) => f,
            Driven::Guarded(g) => g.inner_ref(),
        }
    }

    fn fanout_mut(&mut self) -> &mut FanOut<A> {
        match self {
            Driven::Plain(f) => f,
            Driven::Guarded(g) => g.inner_mut(),
        }
    }

    fn drive(
        &mut self,
        pass: usize,
        items: &[StreamItem],
        peak: &mut PeakTracker,
        processed: &mut usize,
        obs: &mut RunObserver,
    ) -> Result<(), RunError> {
        match self {
            Driven::Plain(f) => {
                drive_pass_runs(f, pass, items, list_runs(items), peak, processed, obs)
            }
            Driven::Guarded(g) => {
                drive_pass_runs(g, pass, items, list_runs(items), peak, processed, obs)
            }
        }
    }

    fn guard_stats(&self) -> Option<GuardStats> {
        match self {
            Driven::Plain(_) => None,
            Driven::Guarded(g) => Some(g.stats()),
        }
    }

    /// Serialize the shared guard's cross-pass state for a checkpoint.
    fn guard_snapshot(&self) -> Result<Option<(GuardPolicy, ValidatorMode, Vec<u8>)>, RunError> {
        match self {
            Driven::Plain(_) => Ok(None),
            Driven::Guarded(g) => {
                let mut blob = Vec::new();
                g.save_guard_state(&mut blob).map_err(ckpt_err)?;
                Ok(Some((g.policy(), g.mode(), blob)))
            }
        }
    }

    fn into_fanout(self) -> FanOut<A> {
        match self {
            Driven::Plain(f) => f,
            Driven::Guarded(g) => g.into_inner(),
        }
    }
}

/// Driver-side counters a job starts from: zero for a fresh run, the
/// checkpointed values for a restored one.
#[derive(Debug, Clone, Copy, Default)]
struct JobStart {
    completed: usize,
    processed: usize,
    driver_peak: usize,
    generations: usize,
    resumed_from: Option<usize>,
}

/// A batched run held *between* passes. Runs many instances of one
/// algorithm over a single shared stream replay; see the module docs for
/// the execution model.
///
/// One-shot callers hand the whole pass loop to [`BatchJob::run`]. A
/// long-running host — the `adjstreamd` estimation service — owns the loop
/// itself instead: it feeds each pass's items via [`BatchJob::run_pass`],
/// persists the boundary via [`BatchJob::write_checkpoint`], and may simply
/// stop between passes (preemption, eviction, daemon shutdown), picking the
/// job back up later — in the same process or after a crash — via
/// [`BatchJob::restore_from_file`]. Both loops step the same
/// [`BatchJob::run_pass`], so stepped, suspended, and resumed runs produce
/// bit-for-bit the per-instance outputs of an uninterrupted run.
///
/// The caller contract: the items fed to each pass must describe the same
/// stream the job was constructed (or checkpointed) against — unverifiable
/// from a checkpoint alone, exactly as seeds are — and a restored job's
/// [`BatchConfig`] must request the same guard configuration.
pub struct BatchJob<A: MultiPassAlgorithm> {
    driven: Driven<A>,
    total_passes: usize,
    same_order: bool,
    completed: usize,
    budget: Budget,
    threads: usize,
    shard_size: usize,
    peak: PeakTracker,
    processed: usize,
    base_generations: usize,
    source_generations: usize,
    resumed_from: Option<usize>,
    sink: Metrics,
    pass_metrics: Vec<PassMetrics>,
}

impl<A: MultiPassAlgorithm> BatchJob<A> {
    /// Build a job over `instances` under `cfg`. All instances must agree
    /// on `passes()` and `requires_same_order()` (they are copies of one
    /// algorithm at different seeds); an empty batch returns
    /// [`RunError::EmptyBatch`] and disagreeing instances return
    /// [`RunError::MixedPassContracts`]. No pass runs yet.
    pub fn new(instances: Vec<A>, cfg: &BatchConfig) -> Result<Self, RunError> {
        let Some(first) = instances.first() else {
            return Err(RunError::EmptyBatch);
        };
        let contract = (first.passes(), first.requires_same_order());
        if instances
            .iter()
            .any(|a| (a.passes(), a.requires_same_order()) != contract)
        {
            return Err(RunError::MixedPassContracts);
        }
        let limit = cfg.budget.max_bytes_per_instance;
        let states = instances
            .into_iter()
            .enumerate()
            .map(|(i, a)| InstanceState::new(a, i, limit))
            .collect();
        let sink = Metrics::from_flag(cfg.metrics);
        Self::assemble(states, contract, cfg, JobStart::default(), None, sink)
    }

    fn assemble(
        mut states: Vec<InstanceState<A>>,
        (total_passes, same_order): (usize, bool),
        cfg: &BatchConfig,
        start: JobStart,
        guard_blob: Option<Vec<u8>>,
        sink: Metrics,
    ) -> Result<Self, RunError> {
        let n = states.len();
        let threads = cfg.threads.clamp(1, n.max(1));
        let shard_size = n.div_ceil(threads.max(1)).max(1);
        for (i, st) in states.iter_mut().enumerate() {
            st.shard = if threads > 1 { i / shard_size } else { 0 };
        }
        let deadline = cfg.budget.deadline.and_then(|d| {
            let limit_ms = u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
            Instant::now().checked_add(d).map(|t| (t, limit_ms))
        });
        let fanout = FanOut {
            passes: total_passes,
            same_order,
            buf: Vec::with_capacity(CHUNK_EVENTS),
            item_buf: Vec::new(),
            states,
            workers: None,
            deadline,
            fatal: None,
        };
        let driven = match cfg.guard {
            None => Driven::Plain(fanout),
            Some((policy, mode)) => {
                let mut g = Guarded::with_validator(fanout, policy, mode);
                if let Some(blob) = &guard_blob {
                    g.restore_guard_state(blob).map_err(ckpt_err)?;
                }
                Driven::Guarded(g)
            }
        };
        let mut peak = PeakTracker::new();
        peak.observe(start.driver_peak);
        Ok(BatchJob {
            driven,
            total_passes,
            same_order,
            completed: start.completed,
            budget: cfg.budget,
            threads,
            shard_size,
            peak,
            processed: start.processed,
            base_generations: start.generations,
            source_generations: 0,
            resumed_from: start.resumed_from,
            sink,
            pass_metrics: Vec::new(),
        })
    }

    /// Restore a suspended job from the raw checkpoint `payload` (the
    /// decoded contents of a file written by
    /// [`BatchJob::write_checkpoint`]). `cfg` must request the same guard
    /// configuration the checkpointed run used; mismatches return
    /// [`RunError::Checkpoint`].
    pub fn restore_from_payload(payload: &[u8], cfg: &BatchConfig) -> Result<Self, RunError>
    where
        A: Checkpoint,
    {
        Self::restore_inner(payload, cfg, Metrics::from_flag(cfg.metrics), None)
    }

    /// Restore a suspended job from the checkpoint file at `path`,
    /// verifying the container's checksum. See
    /// [`BatchJob::restore_from_payload`] for the config contract.
    pub fn restore_from_file(path: &Path, cfg: &BatchConfig) -> Result<Self, RunError>
    where
        A: Checkpoint,
    {
        let sink = Metrics::from_flag(cfg.metrics);
        let t0 = sink.is_enabled().then(Instant::now);
        let payload = read_checkpoint_file(path).map_err(ckpt_err)?;
        Self::restore_inner(&payload, cfg, sink, t0)
    }

    fn restore_inner(
        payload: &[u8],
        cfg: &BatchConfig,
        sink: Metrics,
        t0: Option<Instant>,
    ) -> Result<Self, RunError>
    where
        A: Checkpoint,
    {
        let decoded: DecodedCheckpoint<A> =
            decode_boundary(payload, cfg.budget.max_bytes_per_instance).map_err(ckpt_err)?;
        if let Some(t0) = t0 {
            sink.record_checkpoint_restore(
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        let stored_guard = decoded
            .guard
            .as_ref()
            .map(|(policy, mode, _)| (*policy, *mode));
        if cfg.guard != stored_guard {
            return Err(ckpt_err(format!(
                "guard config mismatch: checkpoint has {stored_guard:?}, config has {:?}",
                cfg.guard
            )));
        }
        let guard_blob = decoded.guard.map(|(_, _, blob)| blob);
        Self::assemble(
            decoded.states,
            (decoded.total_passes, decoded.same_order),
            cfg,
            JobStart {
                completed: decoded.completed_passes,
                processed: decoded.processed,
                driver_peak: decoded.driver_peak,
                generations: decoded.generations,
                resumed_from: Some(decoded.completed_passes),
            },
            guard_blob,
            sink,
        )
    }

    /// Total stream passes the job's algorithm contract declares.
    pub fn passes(&self) -> usize {
        self.total_passes
    }

    /// Passes completed so far (including checkpointed passes of the run
    /// this job was restored from).
    pub fn completed_passes(&self) -> usize {
        self.completed
    }

    /// Whether every pass has run; a complete job is ready to
    /// [`BatchJob::finish`].
    pub fn is_complete(&self) -> bool {
        self.completed >= self.total_passes
    }

    /// Whether every pass must replay the same stream order.
    pub fn requires_same_order(&self) -> bool {
        self.same_order
    }

    /// `Some(p)` when this job was restored from a checkpoint taken after
    /// `p` completed passes.
    pub fn resumed_from(&self) -> Option<usize> {
        self.resumed_from
    }

    /// Aggregate live state across the job's surviving instances — what a
    /// host's admission controller charges the job for between passes.
    pub fn total_live_bytes(&self) -> usize {
        self.driven.fanout().total_live_bytes()
    }

    /// Record how many times the pass source actually generated an item
    /// sequence for this job (on top of any generations already carried in
    /// the checkpoint this job was restored from). Pure accounting for
    /// [`BatchReport::stream_generations`] and the checkpoint payload;
    /// never affects what the run computes.
    pub fn set_source_generations(&mut self, generations: usize) {
        self.source_generations = generations;
    }

    /// Run the next pass, fanning `items` — that pass's full item sequence
    /// — out to every instance. On return every instance is back on the
    /// calling thread: the boundary is observable ([`BatchJob::total_live_bytes`]),
    /// persistable ([`BatchJob::write_checkpoint`]), and the host may
    /// simply stop here to preempt the job. Batch-wide budget violations
    /// (total bytes, deadline) and strict-guard aborts fail the job with a
    /// typed [`RunError`]; per-instance failures quarantine the instance
    /// and keep the job alive.
    ///
    /// # Panics
    ///
    /// Panics if the job [`is_complete`](BatchJob::is_complete).
    pub fn run_pass(&mut self, items: &[StreamItem]) -> Result<(), RunError>
    where
        A: Send,
    {
        assert!(
            !self.is_complete(),
            "run_pass on a complete job ({} of {} passes)",
            self.completed,
            self.total_passes
        );
        let pass = self.completed;
        let pass_t0 = self.sink.is_enabled().then(Instant::now);
        let items_before = self.processed;
        let mut obs = RunObserver::for_sink(&self.sink);
        let scope_result = crossbeam::thread::scope(|scope| -> Result<(), RunError> {
            if self.threads > 1 {
                let fanout = self.driven.fanout_mut();
                let instance_states = std::mem::take(&mut fanout.states);
                let (done_tx, done_rx) = crossbeam::channel::bounded(self.threads);
                let mut senders = Vec::with_capacity(self.threads);
                let mut iter = instance_states.into_iter().peekable();
                while iter.peek().is_some() {
                    let shard_states: Vec<InstanceState<A>> =
                        iter.by_ref().take(self.shard_size).collect();
                    let (tx, rx) = crossbeam::channel::bounded::<Arc<Chunk>>(CHANNEL_DEPTH);
                    senders.push(tx);
                    let done_tx = done_tx.clone();
                    scope.spawn(move |_| {
                        let mut shard_states = shard_states;
                        for chunk in rx.iter() {
                            for st in shard_states.iter_mut() {
                                st.apply_chunk(&chunk);
                            }
                        }
                        let _ = done_tx.send(shard_states);
                    });
                }
                drop(done_tx);
                fanout.workers = Some(PassWorkers {
                    senders,
                    done: done_rx,
                });
            }
            let res = self
                .driven
                .drive(pass, items, &mut self.peak, &mut self.processed, &mut obs);
            self.driven.fanout_mut().join_pass_workers();
            res
        });
        if let Some(t0) = pass_t0 {
            // Lists and slices come from the shared loop's observer. The
            // wall covers worker spawn and join, and `peak_bytes` is the
            // batch's live state across all instances at the boundary (the
            // residency a budget would see), not any single instance's
            // peak — those are in the per-instance reports.
            let counted = obs.into_passes().pop().unwrap_or_default();
            self.pass_metrics.push(PassMetrics {
                pass: pass as u32,
                wall_nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                items: (self.processed - items_before) as u64,
                slices: counted.slices,
                lists: counted.lists,
                peak_bytes: self.driven.fanout().total_live_bytes() as u64,
                series: Vec::new(),
            });
        }
        match scope_result {
            Ok(run_result) => run_result?,
            Err(panic) => std::panic::resume_unwind(panic),
        }
        // Pass boundary: every instance is back on this thread.
        if let Some(limit) = self.budget.max_total_bytes {
            let used = self.driven.fanout().total_live_bytes();
            if used > limit {
                return Err(RunError::SpaceBudgetExceeded { used, limit });
            }
        }
        self.completed = pass + 1;
        Ok(())
    }

    /// Serialize the boundary — every live instance's state, every
    /// quarantined outcome, the shared guard, the driver counters — as a
    /// checkpoint payload. Only an incomplete job has a boundary to
    /// capture; a complete job returns [`RunError::Checkpoint`].
    pub fn checkpoint_payload(&self) -> Result<Vec<u8>, RunError>
    where
        A: Checkpoint,
    {
        if self.is_complete() {
            return Err(ckpt_err("job already complete: nothing to checkpoint"));
        }
        let guard = self.driven.guard_snapshot()?;
        encode_boundary(&PassBoundary {
            completed_passes: self.completed,
            total_passes: self.total_passes,
            same_order: self.same_order,
            states: &self.driven.fanout().states,
            guard,
            processed: self.processed,
            driver_peak: self.peak.peak(),
            generations: self.base_generations + self.source_generations,
        })
        .map_err(ckpt_err)
    }

    /// Write the boundary checkpoint to `path` atomically (temp file +
    /// rename, checksummed container) — the persistence behind suspension,
    /// eviction, and crash recovery.
    pub fn write_checkpoint(&self, path: &Path) -> Result<(), RunError>
    where
        A: Checkpoint,
    {
        let t0 = self.sink.is_enabled().then(Instant::now);
        let payload = self.checkpoint_payload()?;
        write_checkpoint_file(path, &payload).map_err(ckpt_err)?;
        if let Some(t0) = t0 {
            self.sink.record_checkpoint_write(
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                payload.len() as u64,
            );
        }
        Ok(())
    }

    /// Run every remaining pass, then [`finish`](BatchJob::finish).
    ///
    /// `items_for_pass` supplies each pass's full item sequence (called
    /// once per pass with its 0-based index, shaped like
    /// [`run_slice_passes`](crate::runner::run_slice_passes)'s supplier);
    /// [`GraphPasses::items`](crate::runner::GraphPasses::items) serves
    /// graph-backed runs. `after_pass` is called at every interior pass
    /// boundary — after pass `p`, before pass `p + 1` — where the job is
    /// observable and checkpointable (e.g. `|job|
    /// job.write_checkpoint(path)`); an error from it aborts the run.
    ///
    /// A strict shared guard aborts the whole batch with
    /// [`RunError::Invalid`], and batch-wide budgets with their typed
    /// errors; individual instance failures (panic, per-instance budget)
    /// only quarantine that instance.
    pub fn run<F, I, H>(
        mut self,
        mut items_for_pass: F,
        mut after_pass: H,
    ) -> Result<BatchOutcome<A::Output>, RunError>
    where
        A: Send,
        F: FnMut(usize) -> I,
        I: AsRef<[StreamItem]>,
        H: FnMut(&BatchJob<A>) -> Result<(), RunError>,
    {
        while !self.is_complete() {
            let items = items_for_pass(self.completed);
            self.run_pass(items.as_ref())?;
            if !self.is_complete() {
                after_pass(&self)?;
            }
        }
        Ok(self.finish())
    }

    /// Disassemble a complete job into its outputs and report.
    ///
    /// # Panics
    ///
    /// Panics if the job is not [`is_complete`](BatchJob::is_complete).
    pub fn finish(self) -> BatchOutcome<A::Output> {
        assert!(
            self.is_complete(),
            "finish on an incomplete job ({} of {} passes)",
            self.completed,
            self.total_passes
        );
        let BatchJob {
            driven,
            total_passes,
            threads,
            processed,
            base_generations,
            source_generations,
            resumed_from,
            sink,
            pass_metrics,
            ..
        } = self;
        let guard = driven.guard_stats();
        let fanout = driven.into_fanout();
        let n = fanout.states.len();
        let mut outputs = Vec::with_capacity(n);
        let mut per_instance = Vec::with_capacity(n);
        let mut items_fanned_out = 0usize;
        for st in fanout.states {
            let (report, output) = st.into_parts();
            items_fanned_out += report.items;
            per_instance.push(report);
            outputs.push(output);
        }
        let metrics = sink.snapshot().map(|base| {
            let mut counters = ObsCounters::default();
            let mut instance_peak = 0usize;
            for r in &per_instance {
                if let Some(c) = &r.counters {
                    counters.merge(c);
                }
                instance_peak = instance_peak.max(r.peak_state_bytes);
            }
            MetricsSnapshot {
                schema: base.schema,
                runs: n as u64,
                passes: pass_metrics,
                counters,
                guard,
                checkpoint: base.checkpoint,
                retry: base.retry,
                peak_state_bytes: instance_peak as u64,
                items_processed: processed as u64,
            }
        });
        BatchOutcome {
            outputs,
            report: BatchReport {
                instances: n,
                threads,
                passes: total_passes,
                stream_items: processed,
                stream_generations: base_generations + source_generations,
                items_fanned_out,
                per_instance,
                guard,
                resumed_from,
                metrics,
            },
        }
    }
}

/// Everything visible at an interior pass boundary — what a checkpoint
/// captures.
struct PassBoundary<'a, A: MultiPassAlgorithm> {
    completed_passes: usize,
    total_passes: usize,
    same_order: bool,
    states: &'a [InstanceState<A>],
    guard: Option<(GuardPolicy, ValidatorMode, Vec<u8>)>,
    processed: usize,
    driver_peak: usize,
    generations: usize,
}

/// Map a checkpoint-layer failure into the run-level error space.
fn ckpt_err(e: impl std::fmt::Display) -> RunError {
    RunError::Checkpoint {
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payload encoding
// ---------------------------------------------------------------------------

const STATUS_LIVE: u8 = 0;
const STATUS_FAILED: u8 = 1;
const STATUS_PANICKED: u8 = 2;
const STATUS_OVER_BUDGET: u8 = 3;

fn encode_boundary<A>(b: &PassBoundary<'_, A>) -> io::Result<Vec<u8>>
where
    A: MultiPassAlgorithm + Checkpoint,
{
    let mut w: Vec<u8> = Vec::new();
    write_u32(&mut w, b.completed_passes as u32)?;
    write_u32(&mut w, b.total_passes as u32)?;
    write_u8(&mut w, b.same_order as u8)?;
    write_usize(&mut w, b.states.len())?;
    write_usize(&mut w, b.processed)?;
    write_usize(&mut w, b.driver_peak)?;
    write_usize(&mut w, b.generations)?;
    match &b.guard {
        None => write_u8(&mut w, 0)?,
        Some((policy, mode, blob)) => {
            write_u8(&mut w, 1)?;
            encode_policy(&mut w, *policy)?;
            encode_mode(&mut w, *mode)?;
            write_bytes(&mut w, blob)?;
        }
    }
    for st in b.states {
        write_usize(&mut w, st.items)?;
        write_usize(&mut w, st.peak.peak())?;
        match &st.status {
            InstanceStatus::Live => {
                write_u8(&mut w, STATUS_LIVE)?;
                let algo = st.algo.as_ref().ok_or_else(|| {
                    crate::checkpoint::corrupt("live instance lost its algorithm")
                })?;
                let mut blob = Vec::new();
                algo.save(&mut blob)?;
                write_bytes(&mut w, &blob)?;
            }
            InstanceStatus::Failed(error) => {
                write_u8(&mut w, STATUS_FAILED)?;
                error.save(&mut w)?;
            }
            InstanceStatus::Panicked(message) => {
                write_u8(&mut w, STATUS_PANICKED)?;
                crate::checkpoint::write_str(&mut w, message)?;
            }
            InstanceStatus::OverBudget { peak_bytes, limit } => {
                write_u8(&mut w, STATUS_OVER_BUDGET)?;
                write_usize(&mut w, *peak_bytes)?;
                write_usize(&mut w, *limit)?;
            }
        }
    }
    Ok(w)
}

struct DecodedCheckpoint<A: MultiPassAlgorithm> {
    completed_passes: usize,
    total_passes: usize,
    same_order: bool,
    processed: usize,
    driver_peak: usize,
    generations: usize,
    guard: Option<(GuardPolicy, ValidatorMode, Vec<u8>)>,
    states: Vec<InstanceState<A>>,
}

fn decode_boundary<A>(payload: &[u8], byte_limit: Option<usize>) -> io::Result<DecodedCheckpoint<A>>
where
    A: MultiPassAlgorithm + Checkpoint,
{
    let mut r: &[u8] = payload;
    let r = &mut r;
    let completed_passes = read_u32(r)? as usize;
    let total_passes = read_u32(r)? as usize;
    let same_order = read_u8(r)? != 0;
    if completed_passes >= total_passes {
        return Err(crate::checkpoint::corrupt(format!(
            "checkpoint claims {completed_passes} of {total_passes} passes completed"
        )));
    }
    let instance_count = read_usize(r)?;
    let processed = read_usize(r)?;
    let driver_peak = read_usize(r)?;
    let generations = read_usize(r)?;
    let guard = match read_u8(r)? {
        0 => None,
        1 => {
            let policy = decode_policy(r)?;
            let mode = decode_mode(r)?;
            let blob = read_bytes(r)?;
            Some((policy, mode, blob))
        }
        t => {
            return Err(crate::checkpoint::corrupt(format!(
                "bad guard presence tag {t}"
            )))
        }
    };
    let mut states = Vec::with_capacity(instance_count.min(1 << 16));
    for index in 0..instance_count {
        let items = read_usize(r)?;
        let stored_peak = read_usize(r)?;
        let tag = read_u8(r)?;
        let (status, algo) = match tag {
            STATUS_LIVE => {
                let blob = read_bytes(r)?;
                let algo = A::restore(&mut blob.as_slice())?;
                (InstanceStatus::Live, Some(algo))
            }
            STATUS_FAILED => (InstanceStatus::Failed(RunError::restore(r)?), None),
            STATUS_PANICKED => (
                InstanceStatus::Panicked(crate::checkpoint::read_str(r)?),
                None,
            ),
            STATUS_OVER_BUDGET => (
                InstanceStatus::OverBudget {
                    peak_bytes: read_usize(r)?,
                    limit: read_usize(r)?,
                },
                None,
            ),
            t => {
                return Err(crate::checkpoint::corrupt(format!(
                    "bad instance status tag {t}"
                )))
            }
        };
        let mut peak = PeakTracker::new();
        peak.observe(stored_peak);
        states.push(InstanceState {
            index,
            shard: 0,
            algo,
            peak,
            items,
            pass: completed_passes,
            byte_limit,
            status,
        });
    }
    Ok(DecodedCheckpoint {
        completed_passes,
        total_passes,
        same_order,
        processed,
        driver_peak,
        generations,
        guard,
        states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjlist::AdjListStream;
    use crate::checkpoint::{read_u64, write_u64};
    use crate::fault::{CorruptedStream, FaultKind, FaultPlan};
    use crate::guard::GuardPolicy;
    use crate::order::StreamOrder;
    use crate::runner::{run_slice_passes, GraphPasses, PassOrders, Runner};
    use crate::validate::{StreamError, ValidatorMode};
    use adjstream_graph::{gen, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Seeded toy estimator: hashes every item with its seed, returning a
    /// deterministic digest — a stand-in for "same seed + same stream ⇒
    /// same output". Can be armed to panic at a given item index or to
    /// grow its reported state per item, for fault-tolerance tests.
    struct Digest {
        seed: u64,
        passes: usize,
        same_order: bool,
        acc: u64,
        items: usize,
        panic_at_item: Option<usize>,
        bytes_per_item: usize,
    }

    impl Digest {
        fn new(seed: u64, passes: usize, same_order: bool) -> Self {
            Digest {
                seed,
                passes,
                same_order,
                acc: 0,
                items: 0,
                panic_at_item: None,
                bytes_per_item: 0,
            }
        }

        fn panicking_at(mut self, item: usize) -> Self {
            self.panic_at_item = Some(item);
            self
        }

        fn growing(mut self, bytes_per_item: usize) -> Self {
            self.bytes_per_item = bytes_per_item;
            self
        }
    }

    impl SpaceUsage for Digest {
        fn space_bytes(&self) -> usize {
            32 + self.items % 7 + self.items * self.bytes_per_item
        }
    }

    impl MultiPassAlgorithm for Digest {
        type Output = u64;
        fn passes(&self) -> usize {
            self.passes
        }
        fn requires_same_order(&self) -> bool {
            self.same_order
        }
        fn begin_pass(&mut self, pass: usize) {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(pass as u64 ^ self.seed);
        }
        fn begin_list(&mut self, owner: VertexId) {
            self.acc = self.acc.rotate_left(7) ^ (owner.0 as u64);
        }
        fn item(&mut self, src: VertexId, dst: VertexId) {
            if self.panic_at_item == Some(self.items) {
                panic!("injected panic at item {}", self.items);
            }
            self.items += 1;
            self.acc = self
                .acc
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(((src.0 as u64) << 32 | dst.0 as u64) ^ self.seed);
        }
        fn end_list(&mut self, owner: VertexId) {
            self.acc ^= (owner.0 as u64).wrapping_mul(0x9E37_79B9);
        }
        fn finish(self) -> u64 {
            self.acc
        }
    }

    impl Checkpoint for Digest {
        fn save(&self, w: &mut dyn io::Write) -> io::Result<()> {
            write_u64(w, self.seed)?;
            write_usize(w, self.passes)?;
            write_u8(w, self.same_order as u8)?;
            write_u64(w, self.acc)?;
            write_usize(w, self.items)?;
            write_u8(w, self.panic_at_item.is_some() as u8)?;
            write_usize(w, self.panic_at_item.unwrap_or(0))?;
            write_usize(w, self.bytes_per_item)
        }

        fn restore(r: &mut dyn io::Read) -> io::Result<Self> {
            let seed = read_u64(r)?;
            let passes = read_usize(r)?;
            let same_order = read_u8(r)? != 0;
            let acc = read_u64(r)?;
            let items = read_usize(r)?;
            let has_panic = read_u8(r)? != 0;
            let panic_item = read_usize(r)?;
            let bytes_per_item = read_usize(r)?;
            Ok(Digest {
                seed,
                passes,
                same_order,
                acc,
                items,
                panic_at_item: has_panic.then_some(panic_item),
                bytes_per_item,
            })
        }
    }

    fn er_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::gnm(40, 160, &mut rng)
    }

    fn sequential_digests(g: &Graph, orders: &PassOrders, seeds: &[u64]) -> Vec<u64> {
        seeds
            .iter()
            .map(|&s| Runner::run(g, Digest::new(s, 2, false), orders).0)
            .collect()
    }

    /// Loop `job` over `g` streamed per `orders`, checkpointing to `path`
    /// (when given) at every interior boundary.
    fn run_job(
        mut job: BatchJob<Digest>,
        g: &Graph,
        orders: &PassOrders,
        path: Option<&Path>,
    ) -> Result<BatchOutcome<u64>, RunError> {
        let source = GraphPasses::new(g, orders, job.passes(), job.requires_same_order())?;
        job.set_source_generations(source.generations());
        job.run(
            |p| source.items(p),
            |job| path.map_or(Ok(()), |path| job.write_checkpoint(path)),
        )
    }

    fn run_graph(
        g: &Graph,
        instances: Vec<Digest>,
        orders: &PassOrders,
        cfg: &BatchConfig,
    ) -> Result<BatchOutcome<u64>, RunError> {
        run_job(BatchJob::new(instances, cfg)?, g, orders, None)
    }

    fn run_checkpointed(
        g: &Graph,
        instances: Vec<Digest>,
        orders: &PassOrders,
        cfg: &BatchConfig,
        path: &Path,
    ) -> Result<BatchOutcome<u64>, RunError> {
        run_job(BatchJob::new(instances, cfg)?, g, orders, Some(path))
    }

    fn resume(
        g: &Graph,
        orders: &PassOrders,
        cfg: &BatchConfig,
        path: &Path,
    ) -> Result<BatchOutcome<u64>, RunError> {
        run_job(
            BatchJob::restore_from_file(path, cfg)?,
            g,
            orders,
            Some(path),
        )
    }

    fn run_items(
        instances: Vec<Digest>,
        c: &CorruptedStream,
        cfg: &BatchConfig,
    ) -> Result<BatchOutcome<u64>, RunError> {
        BatchJob::new(instances, cfg)?.run(|p| c.items_for_pass(p), |_| Ok(()))
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "adjstream-batch-ckpt-{}-{name}",
            std::process::id()
        ));
        p
    }

    /// Run a closure with the default panic hook silenced, so injected
    /// panics don't spray backtraces over test output.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        // Serialize hook swaps across test threads.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn batched_matches_sequential_bit_for_bit_at_any_thread_count() {
        let g = er_graph(3);
        let orders = PassOrders::Same(StreamOrder::shuffled(40, 11));
        let seeds: Vec<u64> = (100..109).collect();
        let want: Vec<Option<u64>> = sequential_digests(&g, &orders, &seeds)
            .into_iter()
            .map(Some)
            .collect();
        for threads in [1, 2, 4, 16] {
            let instances: Vec<Digest> = seeds.iter().map(|&s| Digest::new(s, 2, false)).collect();
            let out = run_graph(
                &g,
                instances,
                &orders,
                &BatchConfig {
                    threads,
                    ..BatchConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.outputs, want, "threads = {threads}");
            assert_eq!(out.report.instances, 9);
            assert_eq!(out.report.passes, 2);
            assert_eq!(out.report.survivors(), 9);
            assert!(out
                .report
                .per_instance
                .iter()
                .all(|r| r.outcome == InstanceOutcome::Ok));
        }
    }

    #[test]
    fn same_order_passes_generate_the_stream_once() {
        let g = er_graph(5);
        let orders = PassOrders::Same(StreamOrder::shuffled(40, 2));
        let instances: Vec<Digest> = (0..4).map(|s| Digest::new(s, 2, false)).collect();
        let out = run_graph(&g, instances, &orders, &BatchConfig::default()).unwrap();
        assert_eq!(out.report.stream_generations, 1);
        assert_eq!(out.report.stream_items, 2 * 2 * 160); // 2 passes × 2m
        assert_eq!(out.report.items_fanned_out, 4 * 2 * 2 * 160);
        // Differing per-pass orders regenerate.
        let orders = PassOrders::PerPass(vec![StreamOrder::natural(40), StreamOrder::reversed(40)]);
        let instances: Vec<Digest> = (0..4).map(|s| Digest::new(s, 2, false)).collect();
        let out = run_graph(&g, instances, &orders, &BatchConfig::default()).unwrap();
        assert_eq!(out.report.stream_generations, 2);
    }

    #[test]
    fn order_contract_errors_match_the_sequential_runner() {
        let g = er_graph(7);
        // PerPass length mismatch.
        let instances: Vec<Digest> = (0..3).map(|s| Digest::new(s, 2, false)).collect();
        let err = run_graph(
            &g,
            instances,
            &PassOrders::PerPass(vec![StreamOrder::natural(40)]),
            &BatchConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::WrongOrderCount {
                expected: 2,
                got: 1
            }
        );
        // requires_same_order violated.
        let instances: Vec<Digest> = (0..3).map(|s| Digest::new(s, 2, true)).collect();
        let err = run_graph(
            &g,
            instances,
            &PassOrders::PerPass(vec![StreamOrder::natural(40), StreamOrder::reversed(40)]),
            &BatchConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, RunError::OrderMismatch);
        // Equal PerPass entries satisfy the same-order requirement.
        let order = StreamOrder::shuffled(40, 4);
        let instances: Vec<Digest> = (0..3).map(|s| Digest::new(s, 2, true)).collect();
        assert!(run_graph(
            &g,
            instances,
            &PassOrders::PerPass(vec![order.clone(), order]),
            &BatchConfig::default(),
        )
        .is_ok());
    }

    #[test]
    fn per_instance_reports_cover_every_instance() {
        let g = er_graph(9);
        let orders = PassOrders::Same(StreamOrder::natural(40));
        let instances: Vec<Digest> = (0..10).map(|s| Digest::new(s, 2, false)).collect();
        let cfg = BatchConfig::with_threads(3);
        let out = run_graph(&g, instances, &orders, &cfg).unwrap();
        assert_eq!(out.report.per_instance.len(), 10);
        assert_eq!(out.report.threads, 3);
        // Chunked sharding: ⌈10/3⌉ = 4 → shards 0,0,0,0,1,1,1,1,2,2.
        let shards: Vec<usize> = out.report.per_instance.iter().map(|r| r.shard).collect();
        assert_eq!(shards, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        for r in &out.report.per_instance {
            assert_eq!(r.items, 2 * 2 * 160);
            assert!(r.peak_state_bytes >= 32);
        }
    }

    #[test]
    fn shared_strict_guard_aborts_the_whole_batch_with_position() {
        let g = er_graph(13);
        let items = AdjListStream::new(&g, StreamOrder::shuffled(40, 6)).collect_items();
        let c = FaultPlan::new(8)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        assert!(c.skipped().is_empty());
        for threads in [1, 4] {
            let instances: Vec<Digest> = (0..5).map(|s| Digest::new(s, 1, false)).collect();
            let cfg = BatchConfig {
                threads,
                guard: Some((GuardPolicy::Strict, ValidatorMode::Exact)),
                ..BatchConfig::default()
            };
            let err = run_items(instances, &c, &cfg).unwrap_err();
            let RunError::Invalid { pass: 0, error } = err else {
                panic!("expected Invalid, got {err:?}");
            };
            assert!(matches!(error, StreamError::SelfLoop { .. }));
        }
    }

    #[test]
    fn shared_repair_guard_stats_match_a_sequential_guarded_run() {
        let g = er_graph(17);
        let items = AdjListStream::new(&g, StreamOrder::shuffled(40, 9)).collect_items();
        let c = FaultPlan::new(21)
            .with(FaultKind::DropDirection, 2)
            .with(FaultKind::DuplicateItem, 1)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        // Sequential reference: one instance behind its own guard.
        let (_, seq_report) = run_slice_passes(
            Guarded::new(Digest::new(0, 2, false), GuardPolicy::Repair),
            |p| c.items_for_pass(p),
        )
        .unwrap();
        let want = seq_report.guard.expect("guarded run has stats");
        for threads in [1, 3] {
            let instances: Vec<Digest> = (0..6).map(|s| Digest::new(s, 2, false)).collect();
            let cfg = BatchConfig {
                threads,
                guard: Some((GuardPolicy::Repair, ValidatorMode::Exact)),
                ..BatchConfig::default()
            };
            let out = run_items(instances, &c, &cfg).unwrap();
            let got = out.report.guard.expect("shared guard publishes stats");
            // Seeded hashing makes the validator's map capacities — and so
            // its peak bytes — a pure function of the stream, so the whole
            // stats struct is the deterministic contract.
            assert_eq!(got, want, "threads = {threads}");
            assert!(got.validator_peak_bytes > 0);
            // Repaired items never reached any instance: every instance saw
            // the same (repaired) item count.
            let per_items: Vec<usize> = out.report.per_instance.iter().map(|r| r.items).collect();
            assert!(per_items.iter().all(|&i| i == per_items[0]));
            assert!(per_items[0] < 2 * c.items().len());
        }
    }

    #[test]
    fn guarded_outputs_stay_bitwise_reproducible_across_engines() {
        let g = er_graph(23);
        let items = AdjListStream::new(&g, StreamOrder::shuffled(40, 5)).collect_items();
        let c = FaultPlan::new(2)
            .with(FaultKind::DuplicateItem, 2)
            .apply(&items);
        let seeds: Vec<u64> = (40..46).collect();
        // Sequential: each instance individually guarded sees the same
        // repaired stream the shared guard produces.
        let want: Vec<Option<u64>> = seeds
            .iter()
            .map(|&s| {
                Some(
                    run_slice_passes(
                        Guarded::new(Digest::new(s, 2, false), GuardPolicy::Repair),
                        |p| c.items_for_pass(p),
                    )
                    .unwrap()
                    .0,
                )
            })
            .collect();
        let instances: Vec<Digest> = seeds.iter().map(|&s| Digest::new(s, 2, false)).collect();
        let cfg = BatchConfig {
            threads: 4,
            guard: Some((GuardPolicy::Repair, ValidatorMode::Exact)),
            ..BatchConfig::default()
        };
        let out = run_items(instances, &c, &cfg).unwrap();
        assert_eq!(out.outputs, want);
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let g = er_graph(1);
        let err = run_graph(
            &g,
            Vec::<Digest>::new(),
            &PassOrders::Same(StreamOrder::natural(40)),
            &BatchConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, RunError::EmptyBatch);
    }

    #[test]
    fn mixed_pass_contracts_are_a_typed_error() {
        let g = er_graph(1);
        let err = run_graph(
            &g,
            vec![Digest::new(0, 1, false), Digest::new(1, 2, false)],
            &PassOrders::Same(StreamOrder::natural(40)),
            &BatchConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, RunError::MixedPassContracts);
    }

    #[test]
    fn more_threads_than_instances_clamps() {
        let g = er_graph(2);
        let orders = PassOrders::Same(StreamOrder::natural(40));
        let instances: Vec<Digest> = (0..2).map(|s| Digest::new(s, 1, false)).collect();
        let out = run_graph(&g, instances, &orders, &BatchConfig::with_threads(8)).unwrap();
        assert_eq!(out.report.threads, 2);
        assert_eq!(out.outputs.len(), 2);
    }

    #[test]
    fn panicking_instance_is_quarantined_and_survivors_stay_bit_for_bit() {
        let g = er_graph(31);
        let orders = PassOrders::Same(StreamOrder::shuffled(40, 8));
        let seeds: Vec<u64> = (200..209).collect();
        let want = sequential_digests(&g, &orders, &seeds);
        let victim = 4usize;
        for threads in [1, 4] {
            let instances: Vec<Digest> = seeds
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let d = Digest::new(s, 2, false);
                    if i == victim {
                        // Panic mid-pass-1 (each pass delivers 2·160 items).
                        d.panicking_at(100)
                    } else {
                        d
                    }
                })
                .collect();
            let out = quietly(|| {
                run_graph(
                    &g,
                    instances,
                    &orders,
                    &BatchConfig {
                        threads,
                        ..BatchConfig::default()
                    },
                )
                .unwrap()
            });
            assert_eq!(out.report.survivors(), 8, "threads = {threads}");
            for (i, (output, report)) in
                out.outputs.iter().zip(&out.report.per_instance).enumerate()
            {
                if i == victim {
                    assert_eq!(*output, None);
                    let InstanceOutcome::Panicked { message } = &report.outcome else {
                        panic!("expected Panicked, got {:?}", report.outcome);
                    };
                    assert!(message.contains("injected panic"), "{message}");
                } else {
                    assert_eq!(*output, Some(want[i]), "instance {i}, threads {threads}");
                    assert_eq!(report.outcome, InstanceOutcome::Ok);
                }
            }
        }
    }

    #[test]
    fn per_instance_budget_quarantines_only_the_hog() {
        let g = er_graph(37);
        let orders = PassOrders::Same(StreamOrder::natural(40));
        let want = sequential_digests(&g, &orders, &[300, 302]);
        // Instance 1 grows 100 bytes per item; limit trips well within
        // pass 1 (2·160 items/pass).
        let instances = vec![
            Digest::new(300, 2, false),
            Digest::new(301, 2, false).growing(100),
            Digest::new(302, 2, false),
        ];
        let out = run_graph(
            &g,
            instances,
            &orders,
            &BatchConfig {
                budget: Budget {
                    max_bytes_per_instance: Some(5_000),
                    ..Budget::default()
                },
                ..BatchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.report.survivors(), 2);
        assert_eq!(out.outputs[0], Some(want[0]));
        assert_eq!(out.outputs[1], None);
        assert_eq!(out.outputs[2], Some(want[1]));
        let InstanceOutcome::BudgetExceeded { peak_bytes, limit } =
            out.report.per_instance[1].outcome
        else {
            panic!("expected BudgetExceeded");
        };
        assert_eq!(limit, 5_000);
        assert!(peak_bytes > 5_000);
        // The hog stopped receiving items after quarantine.
        assert!(out.report.per_instance[1].items < out.report.per_instance[0].items);
    }

    #[test]
    fn aggregate_budget_fails_the_whole_run() {
        let g = er_graph(41);
        let orders = PassOrders::Same(StreamOrder::natural(40));
        let instances: Vec<Digest> = (0..3).map(|s| Digest::new(s, 2, false)).collect();
        let err = run_graph(
            &g,
            instances,
            &orders,
            &BatchConfig {
                budget: Budget {
                    max_total_bytes: Some(1),
                    ..Budget::default()
                },
                ..BatchConfig::default()
            },
        )
        .unwrap_err();
        let RunError::SpaceBudgetExceeded { used, limit: 1 } = err else {
            panic!("expected SpaceBudgetExceeded, got {err:?}");
        };
        assert!(used >= 3 * 32);
    }

    #[test]
    fn zero_deadline_fails_with_deadline_exceeded() {
        let g = er_graph(43);
        let orders = PassOrders::Same(StreamOrder::natural(40));
        let instances: Vec<Digest> = (0..2).map(|s| Digest::new(s, 2, false)).collect();
        let err = run_graph(
            &g,
            instances,
            &orders,
            &BatchConfig {
                budget: Budget {
                    deadline: Some(Duration::ZERO),
                    ..Budget::default()
                },
                ..BatchConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, RunError::DeadlineExceeded { limit_ms: 0 });
    }

    #[test]
    fn checkpointed_run_matches_and_resumes_bit_for_bit() {
        let g = er_graph(47);
        let orders = PassOrders::Same(StreamOrder::shuffled(40, 13));
        let seeds: Vec<u64> = (500..505).collect();
        let want: Vec<Option<u64>> = sequential_digests(&g, &orders, &seeds)
            .into_iter()
            .map(Some)
            .collect();
        let path = ckpt_path("resume");
        let _ = std::fs::remove_file(&path);
        // Uninterrupted checkpointed run: outputs unchanged, checkpoint
        // file left at the pass-0/1 boundary — exactly what a process
        // killed after the boundary write would leave behind.
        let instances: Vec<Digest> = seeds.iter().map(|&s| Digest::new(s, 2, false)).collect();
        let out = run_checkpointed(&g, instances, &orders, &BatchConfig::default(), &path).unwrap();
        assert_eq!(out.outputs, want);
        assert_eq!(out.report.resumed_from, None);
        assert!(path.exists(), "boundary checkpoint persists");
        // Resume from that checkpoint at several thread counts: pass 1
        // replays, outputs are bit-for-bit those of the full run.
        for threads in [1, 3] {
            let resumed = resume(
                &g,
                &orders,
                &BatchConfig {
                    threads,
                    ..BatchConfig::default()
                },
                &path,
            )
            .unwrap();
            assert_eq!(resumed.outputs, want, "threads = {threads}");
            assert_eq!(resumed.report.resumed_from, Some(1));
            assert_eq!(resumed.report.passes, 2);
            assert_eq!(resumed.report.survivors(), 5);
            // All stream items (both passes) are accounted for in the
            // resumed report: pass 0's count came from the checkpoint.
            assert_eq!(resumed.report.stream_items, 2 * 2 * 160);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_preserves_quarantined_outcomes() {
        let g = er_graph(53);
        let orders = PassOrders::Same(StreamOrder::shuffled(40, 17));
        let seeds: Vec<u64> = (600..604).collect();
        let want = sequential_digests(&g, &orders, &seeds);
        let path = ckpt_path("quarantine");
        let _ = std::fs::remove_file(&path);
        let instances: Vec<Digest> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let d = Digest::new(s, 2, false);
                if i == 2 {
                    d.panicking_at(50) // dies in pass 0, before the boundary
                } else {
                    d
                }
            })
            .collect();
        let out = quietly(|| {
            run_checkpointed(&g, instances, &orders, &BatchConfig::default(), &path).unwrap()
        });
        assert_eq!(out.report.survivors(), 3);
        let resumed = resume(&g, &orders, &BatchConfig::default(), &path).unwrap();
        assert_eq!(resumed.report.survivors(), 3);
        for (i, output) in resumed.outputs.iter().enumerate() {
            if i == 2 {
                assert_eq!(*output, None);
                assert!(matches!(
                    resumed.report.per_instance[2].outcome,
                    InstanceOutcome::Panicked { .. }
                ));
            } else {
                assert_eq!(*output, Some(want[i]));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_corrupt_and_mismatched_checkpoints() {
        let g = er_graph(59);
        let orders = PassOrders::Same(StreamOrder::natural(40));
        let path = ckpt_path("reject");
        let _ = std::fs::remove_file(&path);
        let instances: Vec<Digest> = (0..3).map(|s| Digest::new(s, 2, false)).collect();
        run_checkpointed(&g, instances, &orders, &BatchConfig::default(), &path).unwrap();
        // Guard config mismatch.
        let cfg = BatchConfig {
            guard: Some((GuardPolicy::Strict, ValidatorMode::Exact)),
            ..BatchConfig::default()
        };
        let err = resume(&g, &orders, &cfg, &path).unwrap_err();
        assert!(
            matches!(&err, RunError::Checkpoint { message } if message.contains("guard config")),
            "{err:?}"
        );
        // Flipped payload byte → checksum failure surfaces as Checkpoint.
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 12] ^= 0x20;
        std::fs::write(&path, &raw).unwrap();
        let err = resume(&g, &orders, &BatchConfig::default(), &path).unwrap_err();
        assert!(matches!(err, RunError::Checkpoint { .. }), "{err:?}");
        std::fs::remove_file(&path).unwrap();
    }
}
