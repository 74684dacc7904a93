//! Graph-sharded execution: partition a trace by list-owner vertex and run
//! a mergeable multi-pass algorithm shard-by-shard.
//!
//! The batched engine (`crate::batch`) shards *repetitions*; this module
//! shards the *graph*. A [`ShardPlan`] assigns every adjacency list (a
//! maximal same-source run of the trace) to `owner(v) = hash(v) mod N`
//! using the workspace's seeded [`crate::hashing::FastBuildHasher`], so
//! placement is a pure function of the vertex id — stable across runs,
//! processes, and machines. Shards borrow sub-ranges of the one shared
//! item slice; nothing is copied.
//!
//! [`run_sharded_with`] then executes each pass of a [`ShardAlgorithm`] once
//! per shard: the pass-boundary state is serialized through the
//! [`Checkpoint`] wire format, each shard restores a private replica,
//! drives only its own lists through the one pass loop of
//! [`crate::runner`] (with their *global* list positions injected via
//! [`MultiPassAlgorithm::begin_list_at`]), and the per-shard
//! partials are folded back in shard order with
//! [`ShardAlgorithm::merge_pass`]. An algorithm whose per-pass writes are
//! order-independent and start empty at every pass boundary (see the
//! trait docs) produces output **bit-identical** to driving the same
//! algorithm sequentially over the whole trace — at any shard count.
//!
//! That loop is the only one; how a pass reaches the shards is its
//! per-pass step. [`run_sharded_hooked`] plugs in one scoped thread per
//! shard. A process-per-shard parent plugs in a step that writes the
//! boundary blob to disk, spawns one worker process per shard (each
//! running [`run_shard_pass_blob`]), and decodes the payloads the workers
//! write back with [`decode_shard_payload`]. This module owns that
//! payload — the shard's [`ShardPassStats`] (`peak, items, lists,
//! slices` as four u64 LE words) followed by the partial state in the
//! [`Checkpoint`] encoding — and the checkpoint container
//! ([`crate::checkpoint`], one [`crate::frame`]) carries it across the
//! process boundary, exactly as the lower-bound protocol simulator treats
//! algorithm state as message-sized.

use std::time::Instant;

use adjstream_graph::VertexId;

use crate::checkpoint::{read_u64, read_usize, write_u64, write_usize, Checkpoint};
use crate::hashing::FastBuildHasher;
use crate::item::StreamItem;
use crate::meter::PeakTracker;
use crate::obs::{Metrics, MetricsSnapshot, PassMetrics, RunObserver, METRICS_SCHEMA_VERSION};
use crate::runner::{
    drive_pass_runs, list_runs, track_peak, MultiPassAlgorithm, RunError, RunReport,
};

/// One adjacency list assigned to a shard: a sub-range of the shared item
/// slice plus the list's global position (its 0-based index among all
/// lists of the trace, in arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRun {
    /// First item of the run (inclusive index into the trace items).
    pub start: usize,
    /// One past the last item of the run.
    pub end: usize,
    /// Global arrival index of this list within the pass.
    pub global_pos: u64,
}

/// Deterministic shard of `owner`: seeded hash of the vertex id mod the
/// shard count. Exposed so tests (and external partitioners) can assert
/// placement stability.
pub fn shard_of(owner: VertexId, shards: usize) -> usize {
    use std::hash::BuildHasher;
    debug_assert!(shards > 0);
    (FastBuildHasher::default().hash_one(owner.0) % shards as u64) as usize
}

/// A partition of one trace's adjacency lists across `N` shards. See
/// module docs.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per-shard run lists, each sorted by `global_pos`.
    shards: Vec<Vec<ShardRun>>,
    /// Total lists in the trace.
    total_runs: u64,
    /// Items covered (the trace length).
    items_len: usize,
}

impl ShardPlan {
    /// Partition `items` into `shards` shards (clamped to at least 1).
    ///
    /// One linear scan: runs are the lists the sequential pass loop
    /// delivers, found by the same vectorized source-change detector, so
    /// plan construction costs one branch per ~8 items. The payload is
    /// never copied — a [`ShardRun`] is just an index range into `items`.
    pub fn build(items: &[StreamItem], shards: usize) -> ShardPlan {
        let n = shards.max(1);
        let mut plan = ShardPlan {
            shards: vec![Vec::new(); n],
            total_runs: 0,
            items_len: items.len(),
        };
        for run in list_runs(items) {
            plan.shards[shard_of(items[run.start].src, n)].push(run);
            plan.total_runs += 1;
        }
        plan
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The runs assigned to `shard`, in global arrival order.
    pub fn runs_for(&self, shard: usize) -> &[ShardRun] {
        &self.shards[shard]
    }

    /// Total adjacency lists in the planned trace.
    pub fn total_runs(&self) -> u64 {
        self.total_runs
    }

    /// Items covered by the plan (the planned trace's length).
    pub fn items_len(&self) -> usize {
        self.items_len
    }
}

/// Errors from sharded execution.
#[derive(Debug)]
pub enum ShardError {
    /// A shard's pass aborted with a run error.
    Run(RunError),
    /// Per-shard partial states could not be merged.
    Merge {
        /// Pass whose partials failed to merge.
        pass: usize,
        /// What was inconsistent.
        detail: String,
    },
    /// Serializing or restoring pass-boundary state failed.
    State(std::io::Error),
    /// A shard worker thread panicked.
    Panicked {
        /// Shard whose worker died.
        shard: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Run(e) => write!(f, "shard run failed: {e}"),
            ShardError::Merge { pass, detail } => {
                write!(f, "pass {pass} shard merge failed: {detail}")
            }
            ShardError::State(e) => write!(f, "shard state serialization failed: {e}"),
            ShardError::Panicked { shard } => write!(f, "shard {shard} worker panicked"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<RunError> for ShardError {
    fn from(e: RunError) -> Self {
        ShardError::Run(e)
    }
}

/// A multi-pass algorithm whose per-pass state composes across graph
/// shards.
///
/// # Contract (what makes sharded == sequential, bit for bit)
///
/// * **Read-only base, empty writes.** At every pass boundary the state
///   splits into a frozen *base* (everything earlier passes computed) and
///   this pass's *write set*, which `begin_pass` must (re)initialize
///   empty. Each shard then folds only its own lists into the write set.
/// * **Commutative-monoid writes.** `merge_pass(other, pass)` folds
///   `other`'s pass-`pass` write set into `self`'s. Because every
///   adjacency list is processed by exactly one shard, a write set built
///   from sums, set unions keyed on content, or disjoint-key map unions
///   merges to exactly the sequential value regardless of how lists were
///   partitioned.
/// * **Global positions, not local ones.** Any order-sensitive quantity
///   must be keyed on the *global* list position delivered via
///   [`MultiPassAlgorithm::begin_list_at`] — never on a locally
///   maintained arrival counter, which would differ per shard.
pub trait ShardAlgorithm: MultiPassAlgorithm + Checkpoint + Send + Sized {
    /// Fold `other`'s current-pass write state into `self`. Both sides
    /// must descend from the same pass-boundary base state; return a
    /// human-readable detail string if they demonstrably do not.
    fn merge_pass(&mut self, other: Self, pass: usize) -> Result<(), String>;
}

/// Per-shard stats from one pass, which the shard loop folds into the
/// merged pass row.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardPassStats {
    /// Peak state bytes this shard observed during the pass.
    pub peak_state_bytes: usize,
    /// Items this shard dispatched.
    pub items_processed: usize,
    /// Lists this shard announced.
    pub lists: u64,
    /// Slices this shard delivered.
    pub slices: u64,
}

impl ShardPassStats {
    /// Fold this shard's pass into a merged pass row: volumes sum,
    /// residency is the max over the concurrently running shards.
    fn fold_into(&self, pm: &mut PassMetrics) {
        pm.items += self.items_processed as u64;
        pm.slices += self.slices;
        pm.lists += self.lists;
        pm.peak_bytes = pm.peak_bytes.max(self.peak_state_bytes as u64);
    }
}

impl Checkpoint for ShardPassStats {
    fn save(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        write_usize(w, self.peak_state_bytes)?;
        write_usize(w, self.items_processed)?;
        write_u64(w, self.lists)?;
        write_u64(w, self.slices)
    }

    fn restore(r: &mut dyn std::io::Read) -> std::io::Result<Self> {
        Ok(ShardPassStats {
            peak_state_bytes: read_usize(r)?,
            items_processed: read_usize(r)?,
            lists: read_u64(r)?,
            slices: read_u64(r)?,
        })
    }
}

/// One shard × one pass: restore a replica from the serialized
/// pass-boundary state `base` and drive the shard's runs through the one
/// pass loop, each run one list delivered as one slice.
fn run_shard_pass<A: ShardAlgorithm>(
    base: &[u8],
    pass: usize,
    items: &[StreamItem],
    runs: &[ShardRun],
) -> Result<(A, ShardPassStats), ShardError> {
    let mut algo = A::restore(&mut &base[..]).map_err(ShardError::State)?;
    let mut peak = PeakTracker::new();
    let mut processed = 0usize;
    drive_pass_runs(
        &mut algo,
        pass,
        items,
        runs.iter().copied(),
        &mut processed,
        &mut RunObserver::disabled(),
        track_peak(&mut peak),
    )?;
    let lists = runs.len() as u64;
    let stats = ShardPassStats {
        peak_state_bytes: peak.peak(),
        items_processed: processed,
        lists,
        slices: lists,
    };
    Ok((algo, stats))
}

/// One shard × one pass from a serialized pass-boundary state — the body
/// of a process-per-shard worker. Returns the worker payload: the shard's
/// [`ShardPassStats`], then the partial state re-serialized through the
/// same [`Checkpoint`] wire format.
pub fn run_shard_pass_blob<A: ShardAlgorithm>(
    base: &[u8],
    pass: usize,
    items: &[StreamItem],
    runs: &[ShardRun],
) -> Result<Vec<u8>, ShardError> {
    let (algo, stats) = run_shard_pass::<A>(base, pass, items, runs)?;
    let mut payload = Vec::new();
    stats.save(&mut payload).map_err(ShardError::State)?;
    algo.save(&mut payload).map_err(ShardError::State)?;
    Ok(payload)
}

/// Decode one shard-worker payload of [`run_shard_pass_blob`] — the
/// parent half of process-per-shard execution. Returns the shard's
/// partial state and stats; a short or garbled payload is
/// [`ShardError::State`].
pub fn decode_shard_payload<A: ShardAlgorithm>(
    payload: &[u8],
) -> Result<(A, ShardPassStats), ShardError> {
    let r = &mut &payload[..];
    let stats = ShardPassStats::restore(r).map_err(ShardError::State)?;
    let replica = A::restore(r).map_err(ShardError::State)?;
    Ok((replica, stats))
}

/// What one shard hands back from one pass: its replica of the state, its
/// [`ShardPassStats`], and the pass's wall time in nanoseconds.
pub type ShardPassOutput<A> = (A, ShardPassStats, u64);

/// One pass of every shard, each on its own scoped thread — the step of
/// [`run_sharded_hooked`]. Every thread is joined before the first error,
/// in shard order, is returned.
fn run_shard_threads<A: ShardAlgorithm>(
    base: &[u8],
    pass: usize,
    plan: &ShardPlan,
    items: &[StreamItem],
) -> Result<Vec<ShardPassOutput<A>>, ShardError> {
    let results: Vec<Result<ShardPassOutput<A>, ShardError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.shard_count())
            .map(|shard| {
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let (replica, stats) =
                        run_shard_pass::<A>(base, pass, items, plan.runs_for(shard))?;
                    let wall_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    Ok((replica, stats, wall_nanos))
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(shard, h)| h.join().unwrap_or(Err(ShardError::Panicked { shard })))
            .collect()
    });
    results.into_iter().collect()
}

/// Execute `algo` over `items` sharded per `plan`, one worker thread per
/// shard, merging at every pass boundary: [`run_sharded_with`] with the
/// scoped-thread step. A pass's wall time is the **max** over the
/// concurrently running shards.
///
/// `after_pass` is invoked at every merged pass boundary (after pass `p`'s
/// shards have joined and merged, before pass `p+1` begins); pass
/// `|_| Ok(())` when there is nothing to do there. It lets callers mark
/// the boundaries, e.g. to close one timing span per pass. A hook error
/// aborts the run.
pub fn run_sharded_hooked<A, F>(
    algo: A,
    plan: &ShardPlan,
    items: &[StreamItem],
    sink: &Metrics,
    after_pass: F,
) -> Result<(A::Output, RunReport), ShardError>
where
    A: ShardAlgorithm,
    F: FnMut(usize) -> Result<(), ShardError>,
{
    assert_eq!(
        plan.items_len(),
        items.len(),
        "plan was built over a different trace"
    );
    run_sharded_with(
        algo,
        sink,
        |pass, base| run_shard_threads(base, pass, plan, items),
        after_pass,
    )
}

/// The one sharded pass loop. At every pass boundary it serializes `algo`
/// into the base blob, hands it to `step` — which runs pass `pass` on
/// every shard and returns each shard's [`ShardPassOutput`] in shard
/// order — folds the replicas back with [`ShardAlgorithm::merge_pass`],
/// and then calls `after_pass` (see [`run_sharded_hooked`]).
///
/// Reports into `sink` with shard-aware pass metrics: residency
/// (`peak_bytes`) is the **max** over shards, items/slices/lists are
/// **sums**, and a pass's wall is the max of the walls `step` reports.
/// Thread workers ([`run_sharded_hooked`]) and process workers differ
/// only in their step; a step error of any type `E` aborts the run.
pub fn run_sharded_with<A, E, S, F>(
    mut algo: A,
    sink: &Metrics,
    mut step: S,
    mut after_pass: F,
) -> Result<(A::Output, RunReport), E>
where
    A: ShardAlgorithm,
    E: From<ShardError>,
    S: FnMut(usize, &[u8]) -> Result<Vec<ShardPassOutput<A>>, E>,
    F: FnMut(usize) -> Result<(), ShardError>,
{
    let passes = algo.passes();
    let mut rows: Vec<PassMetrics> = Vec::with_capacity(passes);
    for pass in 0..passes {
        let mut base = Vec::new();
        algo.save(&mut base).map_err(ShardError::State)?;
        let mut pm = PassMetrics {
            pass: pass as u32,
            ..PassMetrics::default()
        };
        let mut merged: Option<A> = None;
        for (replica, stats, wall_nanos) in step(pass, &base)? {
            pm.wall_nanos = pm.wall_nanos.max(wall_nanos);
            stats.fold_into(&mut pm);
            match &mut merged {
                None => merged = Some(replica),
                Some(m) => m
                    .merge_pass(replica, pass)
                    .map_err(|detail| ShardError::Merge { pass, detail })?,
            }
        }
        algo = merged.ok_or_else(|| ShardError::Merge {
            pass,
            detail: "no shard states to merge".into(),
        })?;
        rows.push(pm);
        after_pass(pass)?;
    }
    let peak = rows.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
    let processed: u64 = rows.iter().map(|p| p.items).sum();
    let guard = algo.guard_stats();
    let counters = algo.obs_counters();
    let metrics = sink.is_enabled().then(|| MetricsSnapshot {
        schema: METRICS_SCHEMA_VERSION,
        runs: 1,
        passes: rows,
        counters: counters.unwrap_or_default(),
        guard,
        checkpoint: Default::default(),
        retry: Default::default(),
        peak_state_bytes: peak,
        items_processed: processed,
    });
    if let Some(snap) = &metrics {
        sink.absorb(snap);
    }
    Ok((
        algo.finish(),
        RunReport {
            peak_state_bytes: peak as usize,
            items_processed: processed as usize,
            passes,
            guard,
            metrics,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::SpaceUsage;
    use crate::runner::run_slice_passes;
    use std::io::{Read, Write};

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    /// Synthetic promise-valid items: a cycle 0-1-...-(n-1)-0 with every
    /// list contiguous.
    fn cycle_items(n: u32) -> Vec<StreamItem> {
        let mut items = Vec::new();
        for s in 0..n {
            let prev = (s + n - 1) % n;
            let next = (s + 1) % n;
            items.push(StreamItem::new(v(s), v(prev)));
            items.push(StreamItem::new(v(s), v(next)));
        }
        items
    }

    /// A two-pass mergeable test algorithm: pass 0 accumulates
    /// `Σ owner·global_pos` and an item count; pass 1 accumulates the sum
    /// of destination ids. All writes are sums ⇒ exact shard merging.
    #[derive(Debug, Default, PartialEq)]
    struct PosSum {
        pass: usize,
        auto_pos: u64,
        cur_pos: u64,
        weighted: u64,
        items_p0: u64,
        dst_sum_p1: u64,
    }

    impl SpaceUsage for PosSum {
        fn space_bytes(&self) -> usize {
            48
        }
    }

    impl MultiPassAlgorithm for PosSum {
        type Output = (u64, u64, u64);

        fn passes(&self) -> usize {
            2
        }

        fn begin_pass(&mut self, pass: usize) {
            self.pass = pass;
            self.auto_pos = 0;
        }

        fn begin_list(&mut self, owner: VertexId) {
            self.begin_list_at(owner, self.auto_pos);
        }

        fn begin_list_at(&mut self, _owner: VertexId, global_pos: u64) {
            self.cur_pos = global_pos;
            self.auto_pos = global_pos + 1;
        }

        fn item(&mut self, src: VertexId, dst: VertexId) {
            if self.pass == 0 {
                self.items_p0 += 1;
                self.weighted += u64::from(src.0) * self.cur_pos;
            } else {
                self.dst_sum_p1 += u64::from(dst.0);
            }
        }

        fn finish(self) -> (u64, u64, u64) {
            (self.weighted, self.items_p0, self.dst_sum_p1)
        }
    }

    impl Checkpoint for PosSum {
        fn save(&self, w: &mut dyn Write) -> std::io::Result<()> {
            write_usize(w, self.pass)?;
            write_u64(w, self.weighted)?;
            write_u64(w, self.items_p0)?;
            write_u64(w, self.dst_sum_p1)
        }

        fn restore(r: &mut dyn Read) -> std::io::Result<Self> {
            Ok(PosSum {
                pass: read_usize(r)?,
                auto_pos: 0,
                cur_pos: 0,
                weighted: read_u64(r)?,
                items_p0: read_u64(r)?,
                dst_sum_p1: read_u64(r)?,
            })
        }
    }

    impl ShardAlgorithm for PosSum {
        fn merge_pass(&mut self, other: Self, pass: usize) -> Result<(), String> {
            match pass {
                0 => {
                    self.weighted += other.weighted;
                    self.items_p0 += other.items_p0;
                }
                _ => self.dst_sum_p1 += other.dst_sum_p1,
            }
            Ok(())
        }
    }

    #[test]
    fn plan_covers_every_item_exactly_once_and_is_stable() {
        let items = cycle_items(37);
        for shards in [1usize, 2, 4, 8] {
            let plan = ShardPlan::build(&items, shards);
            assert_eq!(plan.shard_count(), shards);
            assert_eq!(plan.total_runs(), 37);
            let mut covered = vec![false; items.len()];
            let mut seen_pos = std::collections::BTreeSet::new();
            for s in 0..shards {
                for run in plan.runs_for(s) {
                    assert!(run.start < run.end);
                    // A run is one whole list owned by one vertex, placed on
                    // the shard the seeded hash names.
                    let owner = items[run.start].src;
                    assert_eq!(shard_of(owner, shards), s);
                    for it in &items[run.start..run.end] {
                        assert_eq!(it.src, owner);
                    }
                    for (i, c) in covered.iter_mut().enumerate().take(run.end).skip(run.start) {
                        assert!(!*c, "item {i} covered twice");
                        *c = true;
                    }
                    assert!(seen_pos.insert(run.global_pos));
                }
            }
            assert!(covered.iter().all(|&c| c), "every item covered");
            assert_eq!(seen_pos.len() as u64, plan.total_runs());
            // Rebuilding the plan reproduces the placement exactly.
            let again = ShardPlan::build(&items, shards);
            for s in 0..shards {
                assert_eq!(plan.runs_for(s), again.runs_for(s));
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let items = cycle_items(5);
        let plan = ShardPlan::build(&items, 0);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.runs_for(0).len(), 5);
    }

    #[test]
    fn sharded_run_matches_sequential_at_every_shard_count() {
        let items = cycle_items(101);
        let (want, want_report) =
            run_slice_passes(PosSum::default(), |_pass| &items[..]).expect("sequential");
        for shards in [1usize, 2, 3, 4, 8, 16] {
            let plan = ShardPlan::build(&items, shards);
            let (got, report) = run_sharded_hooked(
                PosSum::default(),
                &plan,
                &items,
                &Metrics::disabled(),
                |_| Ok(()),
            )
            .expect("sharded");
            assert_eq!(got, want, "shards={shards}");
            assert_eq!(report.items_processed, want_report.items_processed);
            assert_eq!(report.passes, 2);
        }
    }

    #[test]
    fn process_mode_helpers_reproduce_thread_mode() {
        let items = cycle_items(53);
        let plan = ShardPlan::build(&items, 4);
        let (want, _) = run_sharded_hooked(
            PosSum::default(),
            &plan,
            &items,
            &Metrics::disabled(),
            |_| Ok(()),
        )
        .expect("threads");

        // Drive the one loop with an in-process step that round-trips
        // every shard through the worker payload, as process mode does.
        let mut payload_items = 0;
        let (got, _) = run_sharded_with(
            PosSum::default(),
            &Metrics::disabled(),
            |pass, base| {
                (0..plan.shard_count())
                    .map(|s| {
                        let payload =
                            run_shard_pass_blob::<PosSum>(base, pass, &items, plan.runs_for(s))?;
                        // A cut payload is a typed error, never a panic.
                        for cut in [0, 8, 31, payload.len() - 1] {
                            assert!(matches!(
                                decode_shard_payload::<PosSum>(&payload[..cut]),
                                Err(ShardError::State(_))
                            ));
                        }
                        let (replica, stats) = decode_shard_payload::<PosSum>(&payload)?;
                        payload_items += stats.items_processed;
                        Ok((replica, stats, 0))
                    })
                    .collect::<Result<Vec<_>, ShardError>>()
            },
            |_| Ok(()),
        )
        .expect("process-style step");
        assert_eq!(got, want);
        assert_eq!(payload_items, 2 * items.len());
    }

    #[test]
    fn empty_trace_runs_clean() {
        let items: Vec<StreamItem> = Vec::new();
        let plan = ShardPlan::build(&items, 4);
        let (out, report) = run_sharded_hooked(
            PosSum::default(),
            &plan,
            &items,
            &Metrics::disabled(),
            |_| Ok(()),
        )
        .expect("empty");
        assert_eq!(out, (0, 0, 0));
        assert_eq!(report.items_processed, 0);
    }

    #[test]
    fn sharded_metrics_are_shard_aware() {
        let items = cycle_items(40);
        let plan = ShardPlan::build(&items, 4);
        let sink = Metrics::enabled();
        let (_, report) =
            run_sharded_hooked(PosSum::default(), &plan, &items, &sink, |_| Ok(())).expect("run");
        let snap = report.metrics.expect("metrics collected");
        assert_eq!(snap.passes.len(), 2);
        for p in &snap.passes {
            // Items/lists are summed across shards: the whole trace.
            assert_eq!(p.items, items.len() as u64);
            assert_eq!(p.lists, 40);
            // Residency is a max over shards, not a sum of replicas.
            assert_eq!(p.peak_bytes, 48);
        }
        assert_eq!(snap.items_processed, items.len() as u64 * 2);
        assert_eq!(snap.peak_state_bytes, 48);
    }
}
