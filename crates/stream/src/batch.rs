//! Batched repetitions: drive many algorithm instances over each resident
//! pass, with per-instance fault isolation.
//!
//! The amplification layer (Theorems 3.7 and 4.6) runs `Θ(log 1/δ)`
//! independent repetitions of the same multi-pass algorithm, and the
//! guess-and-verify driver multiplies that by `O(log T)` guess levels.
//! Regenerating or re-reading the adjacency-list stream for every
//! repetition of every level is pass-wasteful in exactly the sense the
//! model charges for. A [`BatchJob`] restores pass-optimality: the caller
//! supplies each pass's item sequence **once**, as one resident slice, and
//! every one of the `R` [`MultiPassAlgorithm`] instances replays that
//! slice, so the whole batch costs as many stream passes as a *single*
//! instance would. `R = 1` is plain sequential replay.
//!
//! Execution model:
//!
//! * Each instance runs the one pass loop,
//!   [`drive_pass_slice`](crate::runner::drive_pass_slice)'s, over the
//!   whole slice, with its own peak tracker and item count, so list
//!   boundaries, peak sampling and abort polling are exactly the
//!   sequential driver's. One instance replays a whole pass before the
//!   next starts, which keeps its state hot in cache.
//! * With `threads ≤ 1` the instances run inline, in index order.
//! * With `threads > 1` the instances are split into contiguous index
//!   ranges, one scoped thread each (mirroring `median_of_runs`' chunking),
//!   all reading the same shared slice. The threads exist per pass: at
//!   every pass boundary the instances are back with the job, which is
//!   what makes boundary checkpoints and aggregate budget checks possible
//!   at any thread count.
//!
//! Because every instance observes the identical item sequence in either
//! mode, batched execution is **bitwise reproducible** against the
//! sequential driver: an instance seeded `s` produces the same output here
//! as it does under `Runner::run` on the same graph and order.
//!
//! # Fault isolation and budgets
//!
//! Each instance's pass runs inside `catch_unwind`, so a panicking
//! instance is *quarantined* — its slot in [`BatchOutcome::outputs`] becomes
//! `None`, its [`InstanceReport::outcome`] records the panic message, and
//! every other instance keeps running and stays bit-for-bit reproducible.
//! The same per-instance quarantine applies to [`Budget::max_bytes_per_instance`]
//! overruns, checked at the exact boundaries where the sequential runner
//! samples state size, and to an instance that aborts on its own (a strict
//! [`Guarded`](crate::guard::Guarded) instance). Batch-wide limits
//! ([`Budget::max_total_bytes`], [`Budget::deadline`]) abort the whole run
//! with a typed [`RunError`] — they bound the *process*, which no
//! per-instance quarantine can do.
//!
//! # Checkpoint / resume
//!
//! [`BatchJob::write_checkpoint`] captures the whole batch (every live
//! instance, every quarantined outcome) at an interior pass boundary,
//! atomically, via [`crate::checkpoint::write_checkpoint_file`];
//! [`BatchJob::run`]'s after-pass hook is where a one-shot run writes it. A
//! run killed between passes is picked up by [`BatchJob::restore_from_file`]
//! followed by the same [`BatchJob::run`], which replays only the remaining
//! passes and produces bit-for-bit the per-instance outputs of an
//! uninterrupted run. (`stream_generations` counts regeneration work and
//! will differ on a resumed run; the determinism contract covers outputs.)
//!
//! # Guarding
//!
//! The job trusts its items. A caller holding an unvalidated stream either
//! repairs it once upstream with [`guard_items`](crate::guard::guard_items)
//! and batches the admitted items, or batches
//! [`Guarded`](crate::guard::Guarded) instances, each with its own
//! validator.

use std::any::Any;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::checkpoint::{
    read_bytes, read_checkpoint_file, read_u32, read_u8, read_usize, write_bytes,
    write_checkpoint_file, write_u32, write_u8, write_usize, Checkpoint,
};
use crate::item::StreamItem;
use crate::meter::PeakTracker;
use crate::obs::{Metrics, MetricsSnapshot, ObsCounters, PassMetrics, RunObserver};
use crate::runner::{drive_pass_runs, list_runs, MultiPassAlgorithm, RunError};

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
    /// Wall-clock deadline for the whole run, checked at every list and
    /// pass boundary of every instance. Exceeding it fails the run with
    /// [`RunError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

/// Knobs for a batched run.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// Worker threads the instances are sharded over; `0` or `1` drives
    /// them inline on the calling thread.
    pub threads: usize,
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
    /// Instances in the batch.
    pub instances: usize,
    /// Worker threads actually used (after clamping to the instance count).
    pub threads: usize,
    /// Stream passes executed — for the whole batch, not per instance.
    pub passes: usize,
    /// Items in the passes the job was fed, summed over passes. Each item
    /// is counted once here no matter how many instances consumed it.
    pub stream_items: usize,
    /// Item sequences the pass source generated, as recorded through
    /// [`BatchJob::set_source_generations`] (e.g.
    /// [`GraphPasses::generations`](crate::runner::GraphPasses::generations):
    /// passes replaying an identical order share one buffer and do not
    /// count), plus those of the checkpointed run a job was restored from.
    pub stream_generations: usize,
    /// Total item deliveries across instances (≈ `stream_items ×
    /// instances`, minus items quarantined instances never received).
    pub items_fanned_out: usize,
    /// Per-instance diagnostics, in instance order.
    pub per_instance: Vec<InstanceReport>,
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

/// The limits each instance's pass loop checks at every boundary where it
/// samples state.
#[derive(Debug, Clone, Copy)]
struct Limits {
    max_bytes: Option<usize>,
    /// Wall-clock deadline plus the configured limit in ms (for the error).
    deadline: Option<(Instant, u64)>,
}

impl Limits {
    /// An expired deadline (batch-fatal) is reported before a per-instance
    /// overrun, which [`InstanceState::run_pass`] maps to a quarantine.
    fn check(&self, bytes: usize) -> Result<(), RunError> {
        if let Some((t, limit_ms)) = self.deadline {
            if Instant::now() >= t {
                return Err(RunError::DeadlineExceeded { limit_ms });
            }
        }
        match self.max_bytes {
            Some(limit) if bytes > limit => {
                Err(RunError::SpaceBudgetExceeded { used: bytes, limit })
            }
            _ => Ok(()),
        }
    }
}

/// An instance plus its per-instance bookkeeping.
struct InstanceState<A> {
    /// The live algorithm, or the outcome the instance was quarantined
    /// with (never [`InstanceOutcome::Ok`]).
    status: Result<A, InstanceOutcome>,
    peak: PeakTracker,
    items: usize,
}

impl<A: MultiPassAlgorithm> InstanceState<A> {
    fn live(&self) -> Option<&A> {
        self.status.as_ref().ok()
    }

    /// Drive a live instance through `pass` of `items` under panic
    /// isolation. An abort, a panic or a per-instance budget overrun
    /// quarantines the instance at the boundary where it happens and drops
    /// its algorithm (itself under `catch_unwind`, in case the poisoned
    /// state panics on drop); only an expired deadline is returned, as it
    /// fails the whole job.
    fn run_pass(
        &mut self,
        pass: usize,
        items: &[StreamItem],
        limits: Limits,
    ) -> Result<(), RunError> {
        let Ok(algo) = &mut self.status else {
            return Ok(());
        };
        let (peak, count) = (&mut self.peak, &mut self.items);
        let result = catch_unwind(AssertUnwindSafe(|| {
            drive_pass_runs(
                algo,
                pass,
                items,
                list_runs(items),
                count,
                &mut RunObserver::disabled(),
                |bytes| {
                    peak.observe(bytes);
                    limits.check(bytes)
                },
            )
        }));
        let outcome = match result {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(fatal @ RunError::DeadlineExceeded { .. })) => return Err(fatal),
            Ok(Err(RunError::SpaceBudgetExceeded { used, limit })) => {
                InstanceOutcome::BudgetExceeded {
                    peak_bytes: used,
                    limit,
                }
            }
            Ok(Err(error)) => InstanceOutcome::Failed { error },
            Err(payload) => InstanceOutcome::Panicked {
                message: panic_message(payload),
            },
        };
        let dropped = std::mem::replace(&mut self.status, Err(outcome));
        let _ = catch_unwind(AssertUnwindSafe(move || drop(dropped)));
        Ok(())
    }

    /// Finish the instance, producing its report and (for survivors) its
    /// output. `finish()` itself runs under `catch_unwind`.
    fn into_parts(self, shard: usize) -> (InstanceReport, Option<A::Output>) {
        let counters = self.live().and_then(|a| a.obs_counters());
        let (outcome, output) = match self.status {
            Ok(algo) => match catch_unwind(AssertUnwindSafe(move || algo.finish())) {
                Ok(out) => (InstanceOutcome::Ok, Some(out)),
                Err(payload) => (
                    InstanceOutcome::Panicked {
                        message: panic_message(payload),
                    },
                    None,
                ),
            },
            Err(outcome) => (outcome, None),
        };
        (
            InstanceReport {
                shard,
                peak_state_bytes: self.peak.peak(),
                items: self.items,
                outcome,
                counters,
            },
            output,
        )
    }
}

/// Job counters a job starts from: zero for a fresh run, the checkpointed
/// values for a restored one.
#[derive(Debug, Clone, Copy, Default)]
struct JobStart {
    completed: usize,
    processed: usize,
    generations: usize,
    resumed_from: Option<usize>,
}

/// A batched run held *between* passes. Runs many instances of one
/// algorithm over each pass's shared resident slice; see the module docs
/// for the execution model.
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
/// from a checkpoint alone, exactly as seeds are.
pub struct BatchJob<A: MultiPassAlgorithm> {
    states: Vec<InstanceState<A>>,
    total_passes: usize,
    same_order: bool,
    completed: usize,
    limits: Limits,
    max_total_bytes: Option<usize>,
    threads: usize,
    shard_size: usize,
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
        if !shares_contract(instances.iter(), contract) {
            return Err(RunError::MixedPassContracts);
        }
        let states = instances
            .into_iter()
            .map(|a| InstanceState {
                status: Ok(a),
                peak: PeakTracker::new(),
                items: 0,
            })
            .collect();
        let sink = Metrics::from_flag(cfg.metrics);
        Ok(Self::assemble(
            states,
            contract,
            cfg,
            JobStart::default(),
            sink,
        ))
    }

    fn assemble(
        states: Vec<InstanceState<A>>,
        (total_passes, same_order): (usize, bool),
        cfg: &BatchConfig,
        start: JobStart,
        sink: Metrics,
    ) -> Self {
        let n = states.len();
        let threads = cfg.threads.clamp(1, n.max(1));
        let deadline = cfg.budget.deadline.and_then(|d| {
            let limit_ms = u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
            Instant::now().checked_add(d).map(|t| (t, limit_ms))
        });
        BatchJob {
            states,
            total_passes,
            same_order,
            completed: start.completed,
            limits: Limits {
                max_bytes: cfg.budget.max_bytes_per_instance,
                deadline,
            },
            max_total_bytes: cfg.budget.max_total_bytes,
            threads,
            shard_size: n.div_ceil(threads).max(1),
            processed: start.processed,
            base_generations: start.generations,
            source_generations: 0,
            resumed_from: start.resumed_from,
            sink,
            pass_metrics: Vec::new(),
        }
    }

    /// Restore a suspended job from the raw checkpoint `payload` (the
    /// decoded contents of a file written by
    /// [`BatchJob::write_checkpoint`]). A payload that does not decode, or
    /// whose live instances break the pass contract its header declares,
    /// returns [`RunError::Checkpoint`].
    pub fn restore_from_payload(payload: &[u8], cfg: &BatchConfig) -> Result<Self, RunError>
    where
        A: Checkpoint,
    {
        Self::restore_inner(payload, cfg, Metrics::from_flag(cfg.metrics), None)
    }

    /// Restore a suspended job from the checkpoint file at `path`,
    /// verifying the container's checksum. See
    /// [`BatchJob::restore_from_payload`] for what is rejected.
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
        let (states, contract, start) = decode_boundary(payload).map_err(ckpt_err)?;
        if let Some(t0) = t0 {
            sink.record_checkpoint_restore(
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        if !shares_contract(states.iter().filter_map(InstanceState::live), contract) {
            return Err(ckpt_err(format!(
                "a restored instance breaks the declared contract of {} passes (same order: {})",
                contract.0, contract.1
            )));
        }
        Ok(Self::assemble(states, contract, cfg, start, sink))
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
        self.states
            .iter()
            .filter_map(InstanceState::live)
            .map(|a| a.space_bytes())
            .sum()
    }

    /// Record how many times the pass source actually generated an item
    /// sequence for this job (on top of any generations already carried in
    /// the checkpoint this job was restored from). Pure accounting for
    /// [`BatchReport::stream_generations`] and the checkpoint payload;
    /// never affects what the run computes.
    pub fn set_source_generations(&mut self, generations: usize) {
        self.source_generations = generations;
    }

    /// Run the next pass, replaying `items` — that pass's full item
    /// sequence — through every live instance. On return every instance is
    /// back with the job: the boundary is observable
    /// ([`BatchJob::total_live_bytes`]), persistable
    /// ([`BatchJob::write_checkpoint`]), and the host may simply stop here
    /// to preempt the job. Batch-wide budget violations (total bytes,
    /// deadline) fail the job with a typed [`RunError`]; per-instance
    /// failures quarantine the instance and keep the job alive.
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
        let limits = self.limits;
        let run_shard = move |shard: &mut [InstanceState<A>]| {
            shard
                .iter_mut()
                .try_for_each(|st| st.run_pass(pass, items, limits))
        };
        let result = if self.threads > 1 {
            std::thread::scope(|scope| {
                let workers: Vec<_> = self
                    .states
                    .chunks_mut(self.shard_size)
                    .map(|shard| scope.spawn(move || run_shard(shard)))
                    .collect();
                // Instance panics are caught inside `run_pass`; anything
                // else resurfaces here. The first error in shard order wins.
                workers
                    .into_iter()
                    .try_for_each(|w| w.join().unwrap_or_else(|panic| resume_unwind(panic)))
            })
        } else {
            run_shard(&mut self.states)
        };
        self.processed += items.len();
        if let Some(t0) = pass_t0 {
            // Every instance walks the same lists, one slice each. The wall
            // covers thread spawn and join, and `peak_bytes` is the batch's
            // live state across all instances at the boundary (the
            // residency a budget would see), not any single instance's
            // peak — those are in the per-instance reports.
            let lists = list_runs(items).count() as u64;
            self.pass_metrics.push(PassMetrics {
                pass: pass as u32,
                wall_nanos: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                items: items.len() as u64,
                slices: lists,
                lists,
                peak_bytes: self.total_live_bytes() as u64,
                series: Vec::new(),
            });
        }
        result?;
        // Pass boundary: every instance is back with the job.
        if let Some(limit) = self.max_total_bytes {
            let used = self.total_live_bytes();
            if used > limit {
                return Err(RunError::SpaceBudgetExceeded { used, limit });
            }
        }
        self.completed = pass + 1;
        Ok(())
    }

    /// Serialize the boundary — every live instance's state, every
    /// quarantined outcome, the job counters — as a checkpoint payload.
    /// Only an incomplete job has a boundary to capture; a complete job
    /// returns [`RunError::Checkpoint`].
    pub fn checkpoint_payload(&self) -> Result<Vec<u8>, RunError>
    where
        A: Checkpoint,
    {
        if self.is_complete() {
            return Err(ckpt_err("job already complete: nothing to checkpoint"));
        }
        encode_boundary(self).map_err(ckpt_err)
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
    /// Batch-wide budgets abort the whole batch with their typed errors;
    /// individual instance failures (abort, panic, per-instance budget)
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
            states,
            total_passes,
            threads,
            shard_size,
            processed,
            base_generations,
            source_generations,
            resumed_from,
            sink,
            pass_metrics,
            ..
        } = self;
        let n = states.len();
        let mut outputs = Vec::with_capacity(n);
        let mut per_instance = Vec::with_capacity(n);
        let mut items_fanned_out = 0usize;
        for (i, st) in states.into_iter().enumerate() {
            let (report, output) = st.into_parts(i / shard_size);
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
                guard: None,
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
                resumed_from,
                metrics,
            },
        }
    }
}

/// Whether every algorithm declares the pass contract `(passes,
/// requires_same_order)` — the rule one shared pass sequence needs.
fn shares_contract<'a, A: MultiPassAlgorithm + 'a>(
    mut algos: impl Iterator<Item = &'a A>,
    contract: (usize, bool),
) -> bool {
    algos.all(|a| (a.passes(), a.requires_same_order()) == contract)
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

/// The smallest instance record: item count, peak and status tag.
const MIN_RECORD_BYTES: usize = 8 + 8 + 1;

/// Header layout: completed and total passes (`u32`), the same-order flag,
/// then the instance count, processed items, a retired word (once the
/// driver's own peak; written as 0, ignored on read), generations
/// (`usize` each), and a guard tag that must be 0.
fn encode_boundary<A>(job: &BatchJob<A>) -> io::Result<Vec<u8>>
where
    A: MultiPassAlgorithm + Checkpoint,
{
    let mut w: Vec<u8> = Vec::new();
    write_u32(&mut w, job.completed as u32)?;
    write_u32(&mut w, job.total_passes as u32)?;
    write_u8(&mut w, job.same_order as u8)?;
    write_usize(&mut w, job.states.len())?;
    write_usize(&mut w, job.processed)?;
    write_usize(&mut w, 0)?;
    write_usize(&mut w, job.base_generations + job.source_generations)?;
    write_u8(&mut w, 0)?;
    for st in &job.states {
        write_usize(&mut w, st.items)?;
        write_usize(&mut w, st.peak.peak())?;
        match &st.status {
            Ok(algo) => {
                write_u8(&mut w, STATUS_LIVE)?;
                let mut blob = Vec::new();
                algo.save(&mut blob)?;
                write_bytes(&mut w, &blob)?;
            }
            Err(InstanceOutcome::Failed { error }) => {
                write_u8(&mut w, STATUS_FAILED)?;
                error.save(&mut w)?;
            }
            Err(InstanceOutcome::Panicked { message }) => {
                write_u8(&mut w, STATUS_PANICKED)?;
                crate::checkpoint::write_str(&mut w, message)?;
            }
            Err(InstanceOutcome::BudgetExceeded { peak_bytes, limit }) => {
                write_u8(&mut w, STATUS_OVER_BUDGET)?;
                write_usize(&mut w, *peak_bytes)?;
                write_usize(&mut w, *limit)?;
            }
            Err(InstanceOutcome::Ok) => {
                unreachable!("a quarantined instance has a failure outcome")
            }
        }
    }
    Ok(w)
}

/// A decoded payload: the instances, the pass contract its header
/// declares, and the counters the job resumes from.
type Decoded<A> = (Vec<InstanceState<A>>, (usize, bool), JobStart);

fn decode_boundary<A>(payload: &[u8]) -> io::Result<Decoded<A>>
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
    let _retired_driver_peak = read_usize(r)?;
    let generations = read_usize(r)?;
    match read_u8(r)? {
        0 => {}
        t => {
            return Err(crate::checkpoint::corrupt(format!(
                "bad guard presence tag {t}"
            )))
        }
    }
    let mut states = Vec::with_capacity(instance_count.min(r.len() / MIN_RECORD_BYTES));
    for _ in 0..instance_count {
        let items = read_usize(r)?;
        let stored_peak = read_usize(r)?;
        let status = match read_u8(r)? {
            STATUS_LIVE => {
                let blob = read_bytes(r)?;
                Ok(A::restore(&mut blob.as_slice())?)
            }
            STATUS_FAILED => Err(InstanceOutcome::Failed {
                error: RunError::restore(r)?,
            }),
            STATUS_PANICKED => Err(InstanceOutcome::Panicked {
                message: crate::checkpoint::read_str(r)?,
            }),
            STATUS_OVER_BUDGET => Err(InstanceOutcome::BudgetExceeded {
                peak_bytes: read_usize(r)?,
                limit: read_usize(r)?,
            }),
            t => {
                return Err(crate::checkpoint::corrupt(format!(
                    "bad instance status tag {t}"
                )))
            }
        };
        let mut peak = PeakTracker::new();
        peak.observe(stored_peak);
        states.push(InstanceState {
            status,
            peak,
            items,
        });
    }
    let start = JobStart {
        completed: completed_passes,
        processed,
        generations,
        resumed_from: Some(completed_passes),
    };
    Ok((states, (total_passes, same_order), start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjlist::AdjListStream;
    use crate::checkpoint::{read_u64, write_u64};
    use crate::fault::{FaultKind, FaultPlan};
    use crate::guard::{GuardPolicy, Guarded};
    use crate::meter::SpaceUsage;
    use crate::order::StreamOrder;
    use crate::runner::{run_slice_passes, GraphPasses, PassOrders, Runner};
    use crate::validate::StreamError;
    use adjstream_graph::{gen, Graph, VertexId};
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
    fn strict_guarded_instances_fail_alone_with_position() {
        let g = er_graph(13);
        let items = AdjListStream::new(&g, StreamOrder::shuffled(40, 6)).collect_items();
        let c = FaultPlan::new(8)
            .with(FaultKind::InjectSelfLoop, 1)
            .apply(&items);
        let policy = |i: u64| {
            if i % 2 == 1 {
                GuardPolicy::Strict
            } else {
                GuardPolicy::Repair
            }
        };
        let guarded = |i: u64| Guarded::new(Digest::new(i, 2, false), policy(i));
        for threads in [1, 4] {
            let out = BatchJob::new(
                (0..4).map(guarded).collect(),
                &BatchConfig::with_threads(threads),
            )
            .and_then(|job| job.run(|p| c.items_for_pass(p), |_| Ok(())))
            .unwrap();
            assert_eq!(out.report.survivors(), 2, "threads = {threads}");
            for (i, (output, report)) in
                (0u64..).zip(out.outputs.iter().zip(&out.report.per_instance))
            {
                let want = run_slice_passes(guarded(i), |p| c.items_for_pass(p));
                if policy(i) == GuardPolicy::Strict {
                    assert_eq!(*output, None);
                    let InstanceOutcome::Failed { error } = &report.outcome else {
                        panic!("expected Failed, got {:?}", report.outcome);
                    };
                    assert_eq!(Err(error.clone()), want.map(|(o, _)| o));
                    assert!(matches!(
                        error,
                        RunError::Invalid {
                            pass: 0,
                            error: StreamError::SelfLoop { .. }
                        }
                    ));
                } else {
                    assert_eq!(*output, Some(want.unwrap().0), "instance {i}");
                }
            }
        }
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

    /// The job [`checkpoint_payload_and_resumed_bits_are_pinned`] pins: two
    /// `Digest` instances over a fixed 8-vertex graph.
    fn pinned_job() -> (BatchJob<Digest>, Vec<StreamItem>, Vec<StreamItem>) {
        let mut rng = StdRng::seed_from_u64(0x9A7);
        let g = gen::gnm(8, 12, &mut rng);
        let orders = PassOrders::Same(StreamOrder::shuffled(8, 3));
        let source = GraphPasses::new(&g, &orders, 2, false).unwrap();
        let mut job = BatchJob::new(
            vec![Digest::new(7, 2, false), Digest::new(8, 2, false)],
            &BatchConfig::default(),
        )
        .unwrap();
        job.set_source_generations(source.generations());
        (job, source.items(0).to_vec(), source.items(1).to_vec())
    }

    /// The pass-0 checkpoint payload of [`pinned_job`] as the chunked
    /// fan-out driver wrote it. Bytes 25..33 held that driver's chunk
    /// buffer peak (1840); the word is now written as 0 and ignored on read.
    const PINNED_PAYLOAD: &str = "\
        0100000002000000000200000000000000180000000000000030070000000000000100000000000000\
        001800000000000000250000000000000000320000000000000007000000000000000200000000000000\
        005b4df39d26e4099a1800000000000000000000000000000000000000000000000018000000000000\
        0025000000000000000032000000000000000800000000000000020000000000000000ac21237ff74c\
        bbae18000000000000000000000000000000000000000000000000";
    const RETIRED_WORD: std::ops::Range<usize> = 25..33;
    const PINNED_BITS: [u64; 2] = [8977096067061260349, 7779674746220358500];

    #[test]
    fn checkpoint_payload_and_resumed_bits_are_pinned() {
        let pinned: Vec<u8> = (0..PINNED_PAYLOAD.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&PINNED_PAYLOAD[i..i + 2], 16).unwrap())
            .collect();
        let (mut job, pass0, pass1) = pinned_job();
        job.run_pass(&pass0).unwrap();
        let payload = job.checkpoint_payload().unwrap();
        let mut want = pinned.clone();
        want[RETIRED_WORD].fill(0);
        assert_eq!(payload, want);
        // Both the current bytes and the older driver's restore to the
        // pinned outputs.
        for bytes in [&payload, &pinned] {
            let mut job =
                BatchJob::<Digest>::restore_from_payload(bytes, &BatchConfig::default()).unwrap();
            job.run_pass(&pass1).unwrap();
            let out = job.finish();
            assert_eq!(out.outputs, PINNED_BITS.map(Some));
            assert_eq!(
                (out.report.stream_items, out.report.items_fanned_out),
                (48, 96)
            );
        }
    }

    #[test]
    fn resume_rejects_corrupt_and_mismatched_checkpoints() {
        let g = er_graph(59);
        let orders = PassOrders::Same(StreamOrder::natural(40));
        let path = ckpt_path("reject");
        let _ = std::fs::remove_file(&path);
        let instances: Vec<Digest> = (0..3).map(|s| Digest::new(s, 2, false)).collect();
        run_checkpointed(&g, instances, &orders, &BatchConfig::default(), &path).unwrap();
        let payload = read_checkpoint_file(&path).unwrap();
        let restore = |bytes: &[u8]| {
            BatchJob::<Digest>::restore_from_payload(bytes, &BatchConfig::default()).map(|_| ())
        };
        assert_eq!(restore(&payload), Ok(()));
        // A header whose pass contract the live instances break: "0 of 1
        // passes", "1 of 3 passes", and a same-order flag they do not set.
        let mut patches: Vec<Vec<u8>> = Vec::new();
        for (completed, total) in [(0u32, 1u32), (1, 3)] {
            let mut p = payload.clone();
            p[0..4].copy_from_slice(&completed.to_le_bytes());
            p[4..8].copy_from_slice(&total.to_le_bytes());
            patches.push(p);
        }
        let mut p = payload.clone();
        p[8] = 1;
        patches.push(p);
        // An instance count far beyond what the payload holds: rejected as
        // truncated, with the preallocation capped by the bytes left.
        let mut p = payload.clone();
        p[9..17].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        patches.push(p);
        // A nonzero guard tag: no job carries a shared guard.
        let mut p = payload.clone();
        p[41] = 1;
        patches.push(p);
        for (i, bad) in patches.iter().enumerate() {
            let err = restore(bad).unwrap_err();
            assert!(
                matches!(err, RunError::Checkpoint { .. }),
                "patch {i}: {err:?}"
            );
        }
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
