//! Driving multi-pass algorithms over adjacency list streams.
//!
//! Every sequential entry point — [`run_slice_passes`] for per-pass item
//! slices (traces, corrupted streams, mmapped files) and [`Runner`] for
//! generated streams, which replays [`GraphPasses`] through it — shares one
//! pass driver, [`drive_pass_slice`]: it detects list boundaries, delivers
//! each list's items as one slice, samples peak state at every boundary,
//! and aborts with a typed [`RunError`] if the algorithm (e.g. a
//! [`crate::guard::Guarded`] wrapper in strict mode) reports a fatal stream
//! violation. The batched engine ([`crate::batch`]) drives each of its
//! instances through the same loop, and a graph shard ([`crate::shard`])
//! drives its plan's runs through it. The panicking entry point is a thin
//! wrapper over the fallible one. [`run_with_verdict`] runs a caller's
//! passes over an unchecked resident trace while a second thread rules on
//! the trace.

use adjstream_graph::{Graph, VertexId};

use crate::adjlist::AdjListStream;
use crate::item::StreamItem;
use crate::meter::{PeakTracker, SpaceUsage};
use crate::mmapfile::VerifyCursor;
use crate::obs::{Metrics, MetricsSnapshot, ObsCounters, RunObserver};
use crate::order::StreamOrder;
use crate::shard::ShardRun;
use crate::trace::TraceError;
use crate::validate::{validate_slice_with, StreamError};

/// A streaming algorithm taking one or more passes over an adjacency list
/// stream.
///
/// The driver announces list boundaries because the model makes them
/// observable: a list boundary is exactly a change of the source vertex in
/// the item sequence, which any algorithm can detect with `O(log n)` state.
/// Receiving explicit `begin_list`/`end_list` calls keeps each algorithm free
/// of that boilerplate without granting it any extra power.
pub trait MultiPassAlgorithm: SpaceUsage {
    /// What the algorithm returns after its final pass.
    type Output;

    /// Number of passes required.
    fn passes(&self) -> usize;

    /// Whether later passes must replay pass 1's order (true for the
    /// Section 3 triangle algorithm, false for the Section 4 4-cycle one).
    fn requires_same_order(&self) -> bool {
        false
    }

    /// Called once at the start of pass `pass` (0-based).
    fn begin_pass(&mut self, pass: usize);

    /// A new adjacency list (owned by `owner`) is starting.
    fn begin_list(&mut self, owner: VertexId) {
        let _ = owner;
    }

    /// A new adjacency list (owned by `owner`) is starting at global
    /// arrival index `global_pos` — its 0-based position among all lists of
    /// the pass. The pass loop always announces lists through this hook;
    /// the default forwards to [`begin_list`](Self::begin_list). An
    /// algorithm keyed on list positions overrides it: a sharded pass
    /// delivers only its own shard's lists, so a locally counted position
    /// would be wrong (see [`crate::shard::ShardAlgorithm`]).
    fn begin_list_at(&mut self, owner: VertexId, global_pos: u64) {
        let _ = global_pos;
        self.begin_list(owner);
    }

    /// One stream item `src → dst` (always within `src`'s list).
    fn item(&mut self, src: VertexId, dst: VertexId);

    /// A run of consecutive items sharing one source vertex, delivered
    /// between that list's `begin_list` and `end_list`.
    ///
    /// Contract: every element of `items` has the same `src`, and `items`
    /// is exactly the contiguous stretch of the current list the driver
    /// chose to batch (drivers deliver whole lists, but implementations
    /// must not assume that — a repair guard may forward a list in
    /// several admitted segments). The default delegates to
    /// [`item`](Self::item) per element; algorithms with a cheaper batched
    /// path (e.g. one hash probe per run instead of per item) override it,
    /// and an override must be observationally identical to that loop.
    fn feed_slice(&mut self, items: &[StreamItem]) {
        for it in items {
            self.item(it.src, it.dst);
        }
    }

    /// The current adjacency list (owned by `owner`) ended.
    fn end_list(&mut self, owner: VertexId) {
        let _ = owner;
    }

    /// The current pass ended.
    fn end_pass(&mut self, pass: usize) {
        let _ = pass;
    }

    /// A fatal stream violation this algorithm wants the run aborted for.
    ///
    /// The driver polls this after every delivered list run and at pass
    /// end; a `Some` stops the run with [`RunError::Invalid`]. Plain algorithms
    /// never abort (the default); [`crate::guard::Guarded`] overrides this
    /// to surface validation failures under the strict policy.
    fn abort_error(&self) -> Option<StreamError> {
        None
    }

    /// Ingestion-guard statistics to publish in the [`RunReport`], if this
    /// algorithm collects any (see [`crate::guard::Guarded`]).
    fn guard_stats(&self) -> Option<GuardStats> {
        None
    }

    /// Sampler/watcher lifecycle counters to publish in a
    /// [`MetricsSnapshot`], if this algorithm accumulates any.
    ///
    /// The counters must be deterministic properties of the run —
    /// maintained whether or not a metrics sink is attached — so
    /// observability can never change what a run computes. Wrappers
    /// ([`crate::guard::Guarded`]) delegate.
    fn obs_counters(&self) -> Option<ObsCounters> {
        None
    }

    /// Consume the algorithm and produce its output.
    fn finish(self) -> Self::Output;
}

/// Stream layouts for each pass.
#[derive(Debug, Clone)]
pub enum PassOrders {
    /// Every pass replays the same layout.
    Same(StreamOrder),
    /// One layout per pass (length must equal the algorithm's pass count).
    PerPass(Vec<StreamOrder>),
}

impl PassOrders {
    pub(crate) fn order_for(&self, pass: usize) -> &StreamOrder {
        match self {
            PassOrders::Same(o) => o,
            PassOrders::PerPass(os) => &os[pass],
        }
    }

    pub(crate) fn is_same_order(&self) -> bool {
        match self {
            PassOrders::Same(_) => true,
            PassOrders::PerPass(os) => os.windows(2).all(|w| w[0] == w[1]),
        }
    }

    /// Check this layout against an algorithm's pass contract: a
    /// [`PassOrders::PerPass`] list must have one order per pass, and an
    /// algorithm that [requires identical pass
    /// orders](MultiPassAlgorithm::requires_same_order) must not be given
    /// differing ones. [`GraphPasses::new`] applies it for every
    /// graph-backed run, sequential or batched.
    pub fn check(&self, passes: usize, requires_same_order: bool) -> Result<(), RunError> {
        if requires_same_order && !self.is_same_order() {
            return Err(RunError::OrderMismatch);
        }
        if let PassOrders::PerPass(os) = self {
            if os.len() != passes {
                return Err(RunError::WrongOrderCount {
                    expected: passes,
                    got: os.len(),
                });
            }
        }
        Ok(())
    }
}

/// Why a fallible run stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The algorithm requires identical pass orders but the supplied orders
    /// differ.
    OrderMismatch,
    /// [`PassOrders::PerPass`] length does not match the pass count.
    WrongOrderCount {
        /// Passes the algorithm takes.
        expected: usize,
        /// Orders supplied.
        got: usize,
    },
    /// The stream violated the adjacency-list promise (reported by a
    /// guarded algorithm running under the strict policy).
    Invalid {
        /// 0-based pass the violation surfaced in.
        pass: usize,
        /// The violation itself (carries the item position when one exists).
        error: StreamError,
    },
    /// A batched run was given no instances to drive.
    EmptyBatch,
    /// A batched run's instances disagree on their pass contract (pass
    /// count or same-order requirement); one shared stream cannot serve
    /// them all.
    MixedPassContracts,
    /// The run's wall-clock deadline expired before the final pass
    /// completed.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// The live state summed across all batch instances exceeded the
    /// aggregate space budget at a pass boundary.
    SpaceBudgetExceeded {
        /// Bytes in use across live instances when the check fired.
        used: usize,
        /// The configured aggregate limit in bytes.
        limit: usize,
    },
    /// A checkpoint could not be written, read, or applied.
    Checkpoint {
        /// Human-readable description of the checkpoint failure.
        message: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::OrderMismatch => write!(f, "algorithm requires identical pass orders"),
            RunError::WrongOrderCount { expected, got } => {
                write!(
                    f,
                    "one order per pass required: expected {expected}, got {got}"
                )
            }
            RunError::Invalid { pass, error } => {
                write!(f, "invalid stream in pass {}: {error}", pass + 1)
            }
            RunError::EmptyBatch => write!(f, "batch has no instances to run"),
            RunError::MixedPassContracts => {
                write!(f, "batch instances must share one pass contract")
            }
            RunError::DeadlineExceeded { limit_ms } => {
                write!(f, "run exceeded its {limit_ms} ms deadline")
            }
            RunError::SpaceBudgetExceeded { used, limit } => write!(
                f,
                "aggregate state of {used} bytes exceeds the {limit}-byte budget"
            ),
            RunError::Checkpoint { message } => write!(f, "checkpoint failure: {message}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Counters published by an ingestion guard (see [`crate::guard::Guarded`]).
///
/// Detection/repair counters tally *distinct* faults, counted in the first
/// pass only — a fault repaired again on replay in later passes is not
/// recounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Promise violations detected (first pass).
    pub faults_detected: usize,
    /// Items dropped to restore the promise (first pass).
    pub items_repaired: usize,
    /// Edges found unmatched at the end of the first pass and suppressed in
    /// later passes.
    pub edges_quarantined: usize,
    /// Peak bytes of validator + guard bookkeeping, separated out so
    /// experiments can distinguish algorithm state from guard overhead.
    /// Includes the exact validator's end-of-pass sort buffer.
    pub validator_peak_bytes: usize,
}

/// Execution summary of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// High-water mark of the algorithm's reported state, in bytes, sampled
    /// at every adjacency-list boundary.
    pub peak_state_bytes: usize,
    /// Total stream items processed across all passes.
    pub items_processed: usize,
    /// Number of passes executed.
    pub passes: usize,
    /// Ingestion-guard counters, when the algorithm was wrapped in one.
    pub guard: Option<GuardStats>,
    /// Structured observations of the run — `Some` only for
    /// [`run_slice_passes_observed`] given an enabled [`Metrics`] sink. The
    /// deterministic fields (`peak_state_bytes`, per-pass items/lists,
    /// sampler counters, guard counters) duplicate what the report and
    /// algorithm already expose; wall times are the only
    /// non-reproducible content.
    pub metrics: Option<MetricsSnapshot>,
}

/// What a run returns: the algorithm's output with its report, or why the
/// run stopped.
pub type RunResult<O> = Result<(O, RunReport), RunError>;

/// Drive one pass of `items` through `algo` with slice-batched dispatch:
/// split `items` into maximal runs of one source vertex and deliver each
/// run through [`MultiPassAlgorithm::feed_slice`] between its list
/// boundaries.
///
/// `begin_list`/`end_list` bracket every run, and peak state is sampled at
/// each list boundary and at pass end. Because
/// [`MultiPassAlgorithm::feed_slice`] must match a per-item
/// [`MultiPassAlgorithm::item`] loop, outputs and [`RunReport`]s are those
/// of item-by-item delivery. Aborts are polled per run: an algorithm that
/// latches a fatal error ignores later input (see
/// [`crate::guard::Guarded`]), so the surfaced error is the first one.
pub fn drive_pass_slice<A>(
    algo: &mut A,
    pass: usize,
    items: &[StreamItem],
    peak: &mut PeakTracker,
    processed: &mut usize,
) -> Result<(), RunError>
where
    A: MultiPassAlgorithm,
{
    drive_pass_runs(
        algo,
        pass,
        items,
        list_runs(items),
        processed,
        &mut RunObserver::disabled(),
        track_peak(peak),
    )
}

/// The one pass loop behind every entry point: [`drive_pass_slice`] over
/// the given `runs` of `items` with an attached [`RunObserver`]. Sequential
/// callers pass every list ([`list_runs`]); a sharded pass passes only its
/// shard's runs, whose global positions reach the algorithm through
/// [`MultiPassAlgorithm::begin_list_at`]. The observer is consulted only at
/// the boundaries where the loop already samples state, so a disabled
/// observer keeps the unobserved hot path.
///
/// `at_boundary` receives the state size sampled at every list boundary
/// and at pass end. Callers record their peak there ([`track_peak`]), and
/// a caller enforcing limits (the batched engine's per-instance budget and
/// deadline) stops the pass by returning an error. At one boundary the
/// algorithm's own [`MultiPassAlgorithm::abort_error`] takes precedence.
pub(crate) fn drive_pass_runs<A>(
    algo: &mut A,
    pass: usize,
    items: &[StreamItem],
    runs: impl IntoIterator<Item = ShardRun>,
    processed: &mut usize,
    obs: &mut RunObserver,
    mut at_boundary: impl FnMut(usize) -> Result<(), RunError>,
) -> Result<(), RunError>
where
    A: MultiPassAlgorithm,
{
    obs.begin_pass(pass, *processed);
    algo.begin_pass(pass);
    for run in runs {
        let slice = &items[run.start..run.end];
        let src = slice[0].src;
        algo.begin_list_at(src, run.global_pos);
        algo.feed_slice(slice);
        *processed += slice.len();
        obs.slice();
        algo.end_list(src);
        let bytes = algo.space_bytes();
        let limited = at_boundary(bytes);
        obs.boundary(bytes, *processed);
        if let Some(error) = algo.abort_error() {
            return Err(RunError::Invalid { pass, error });
        }
        limited?;
    }
    algo.end_pass(pass);
    let bytes = algo.space_bytes();
    let limited = at_boundary(bytes);
    obs.end_pass(bytes, *processed);
    if let Some(error) = algo.abort_error() {
        return Err(RunError::Invalid { pass, error });
    }
    limited
}

/// The boundary hook of a pass without limits: record the peak, never
/// stop.
pub(crate) fn track_peak(peak: &mut PeakTracker) -> impl FnMut(usize) -> Result<(), RunError> + '_ {
    move |bytes| {
        peak.observe(bytes);
        Ok(())
    }
}

/// Every adjacency list of `items` — each maximal same-source run — in
/// arrival order, with its global position.
pub(crate) fn list_runs(items: &[StreamItem]) -> impl Iterator<Item = ShardRun> + '_ {
    let mut start = 0usize;
    (0u64..).map_while(move |global_pos| {
        (start < items.len()).then(|| {
            let end = find_run_end(items, start);
            let run = ShardRun {
                start,
                end,
                global_pos,
            };
            start = end;
            run
        })
    })
}

/// End (exclusive) of the maximal same-source run starting at `start`.
///
/// This boundary scan is the per-item hot loop of slice dispatch — every
/// trace item is examined here exactly once per pass. The body compares
/// eight sources per iteration with the branch hoisted out of the lane:
/// each lane folds its mismatch bit into a mask, and the single branch per
/// 8-item block tests the mask. On long runs (the common case for dense
/// adjacency lists) this retires ~1 branch per 8 items instead of 1 per
/// item, and the compiler is free to vectorize the compare/shift lanes.
#[inline]
fn find_run_end(items: &[StreamItem], start: usize) -> usize {
    let src = items[start].src;
    let mut i = start + 1;
    while i + 8 <= items.len() {
        let mut mask = 0u32;
        for lane in 0..8 {
            mask |= u32::from(items[i + lane].src != src) << lane;
        }
        if mask != 0 {
            return i + mask.trailing_zeros() as usize;
        }
        i += 8;
    }
    while i < items.len() && items[i].src == src {
        i += 1;
    }
    i
}

/// Package a completed run: pull guard stats and sampler counters through
/// the trait hooks, fold the observer into a snapshot, and absorb it into
/// the sink.
fn finish_run<A: MultiPassAlgorithm>(
    algo: A,
    peak: PeakTracker,
    processed: usize,
    passes: usize,
    obs: RunObserver,
    sink: &Metrics,
) -> (A::Output, RunReport) {
    let guard = algo.guard_stats();
    let counters = algo.obs_counters();
    let metrics = obs.into_snapshot(peak.peak(), processed, guard, counters);
    if let Some(snap) = &metrics {
        sink.absorb(snap);
    }
    (
        algo.finish(),
        RunReport {
            peak_state_bytes: peak.peak(),
            items_processed: processed,
            passes,
            guard,
            metrics,
        },
    )
}

/// Run `algo` over explicit per-pass item slices produced by
/// `items_for_pass` (called once per pass, 0-based), one
/// [`drive_pass_slice`] per pass.
///
/// `items_for_pass` may return anything that derefs to a slice (a borrowed
/// `&[StreamItem]`, a `Vec`, …), and may return *different* sequences per
/// pass — e.g. corrupted streams from [`crate::fault::FaultPlan`] that
/// model reorder faults.
pub fn run_slice_passes<A, F, I>(
    algo: A,
    items_for_pass: F,
) -> Result<(A::Output, RunReport), RunError>
where
    A: MultiPassAlgorithm,
    F: FnMut(usize) -> I,
    I: AsRef<[StreamItem]>,
{
    run_slice_passes_observed(algo, items_for_pass, &Metrics::disabled())
}

/// [`run_slice_passes`] reporting into a [`Metrics`] sink: with an enabled
/// sink the returned [`RunReport::metrics`] carries the run's snapshot and
/// the sink absorbs it; with a disabled sink this *is*
/// [`run_slice_passes`] — outputs and reports are bit-for-bit identical.
pub fn run_slice_passes_observed<A, F, I>(
    mut algo: A,
    mut items_for_pass: F,
    sink: &Metrics,
) -> Result<(A::Output, RunReport), RunError>
where
    A: MultiPassAlgorithm,
    F: FnMut(usize) -> I,
    I: AsRef<[StreamItem]>,
{
    let mut peak = PeakTracker::new();
    let mut processed = 0usize;
    let mut obs = RunObserver::for_sink(sink);
    let passes = algo.passes();
    for pass in 0..passes {
        let items = items_for_pass(pass);
        let items = items.as_ref();
        drive_pass_runs(
            &mut algo,
            pass,
            items,
            list_runs(items),
            &mut processed,
            &mut obs,
            track_peak(&mut peak),
        )?;
    }
    Ok(finish_run(algo, peak, processed, passes, obs, sink))
}

/// Run `run` on the calling thread while a second thread rules on the
/// resident trace `items`: it finishes `checksum`, the deferred payload
/// check of a mapped trace, and then, if `promise`, checks the
/// adjacency-list promise ([`validate_slice`](crate::validate::validate_slice)).
/// With neither check to make, `run` runs alone.
///
/// The verdict decides what the run is worth, so it wins: a rejected
/// trace returns its [`TraceError`] whatever `run` returned, and an
/// accepted one returns `run`'s value. `run` starts before the verdict is
/// known, so it must not panic on malformed input.
pub fn run_with_verdict<T>(
    items: &[StreamItem],
    checksum: Option<VerifyCursor<'_>>,
    promise: bool,
    run: impl FnOnce() -> T,
) -> Result<T, TraceError> {
    if checksum.is_none() && !promise {
        return Ok(run());
    }
    // The key buffer is allocated here, before the spawn: glibc gives the
    // checking thread its own malloc arena, and a buffer allocated there
    // stays cached in that arena after it is freed, where the passes can
    // never reuse it.
    let keys = promise.then(|| Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        let check = scope.spawn(move || {
            if let Some(cursor) = checksum {
                cursor.finish(CHECKSUM_WINDOW)?;
            }
            match keys {
                Some(keys) => validate_slice_with(items, keys)
                    .map(drop)
                    .map_err(TraceError::Invalid),
                None => Ok(()),
            }
        });
        let out = run();
        let verdict = check
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        verdict.map(|()| out)
    })
}

/// Bytes [`run_with_verdict`] hashes per checksum step.
const CHECKSUM_WINDOW: usize = 1 << 20;

/// The per-pass item sequences of a graph streamed per [`PassOrders`],
/// materialized once per distinct order: passes replaying an order share
/// its buffer instead of regenerating it. This buffer is harness state, not
/// algorithm state — it is never reported through [`SpaceUsage`].
#[derive(Debug, Clone)]
pub struct GraphPasses {
    /// One item sequence per distinct order, in first-use order.
    streams: Vec<Vec<StreamItem>>,
    /// Index into `streams` of each pass's sequence.
    of_pass: Vec<usize>,
}

impl GraphPasses {
    /// Check `orders` against a `passes`-pass contract ([`PassOrders::check`])
    /// and generate each distinct order's items from `graph`.
    pub fn new(
        graph: &Graph,
        orders: &PassOrders,
        passes: usize,
        requires_same_order: bool,
    ) -> Result<Self, RunError> {
        orders.check(passes, requires_same_order)?;
        let mut distinct: Vec<&StreamOrder> = Vec::new();
        let mut streams = Vec::new();
        let of_pass = (0..passes)
            .map(|pass| {
                let order = orders.order_for(pass);
                distinct
                    .iter()
                    .position(|o| *o == order)
                    .unwrap_or_else(|| {
                        distinct.push(order);
                        streams.push(AdjListStream::new(graph, order.clone()).collect_items());
                        streams.len() - 1
                    })
            })
            .collect();
        Ok(GraphPasses { streams, of_pass })
    }

    /// Items of pass `pass` (0-based).
    pub fn items(&self, pass: usize) -> &[StreamItem] {
        &self.streams[self.of_pass[pass]]
    }

    /// How many item sequences were generated from the graph.
    pub fn generations(&self) -> usize {
        self.streams.len()
    }
}

/// Drives algorithms over graphs and records space usage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Runner;

impl Runner {
    /// Run `algo` to completion over `graph` streamed per `orders`,
    /// reporting failures as typed [`RunError`]s instead of panicking.
    pub fn try_run<A: MultiPassAlgorithm>(
        graph: &Graph,
        algo: A,
        orders: &PassOrders,
    ) -> Result<(A::Output, RunReport), RunError> {
        let source = GraphPasses::new(graph, orders, algo.passes(), algo.requires_same_order())?;
        run_slice_passes(algo, |pass| source.items(pass))
    }

    /// Run `algo` to completion over `graph` streamed per `orders`.
    ///
    /// Panics if the algorithm requires identical pass orders and `orders`
    /// provides differing ones — that would silently violate the algorithm's
    /// correctness contract. Prefer [`Runner::try_run`] when the input is
    /// not known to be well-formed.
    pub fn run<A: MultiPassAlgorithm>(
        graph: &Graph,
        algo: A,
        orders: &PassOrders,
    ) -> (A::Output, RunReport) {
        match Self::try_run(graph, algo, orders) {
            Ok(out) => out,
            Err(e @ RunError::OrderMismatch) => {
                panic!("algorithm requires identical pass orders: {e}")
            }
            Err(e @ RunError::WrongOrderCount { .. }) => {
                panic!("one order per pass required: {e}")
            }
            Err(e) => panic!("stream validation failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::gen;

    /// Counts edges (items / 2) in one pass; state is one counter.
    struct EdgeCounter {
        items: usize,
    }

    impl SpaceUsage for EdgeCounter {
        fn space_bytes(&self) -> usize {
            std::mem::size_of::<usize>()
        }
    }

    impl MultiPassAlgorithm for EdgeCounter {
        type Output = usize;
        fn passes(&self) -> usize {
            1
        }
        fn begin_pass(&mut self, _pass: usize) {}
        fn item(&mut self, _src: VertexId, _dst: VertexId) {
            self.items += 1;
        }
        fn finish(self) -> usize {
            self.items / 2
        }
    }

    /// Records per-pass list boundary sequences to verify replay semantics.
    struct BoundaryRecorder {
        passes: usize,
        same_order: bool,
        seen: Vec<Vec<VertexId>>,
    }

    impl SpaceUsage for BoundaryRecorder {
        fn space_bytes(&self) -> usize {
            self.seen.iter().map(|v| v.len() * 4).sum()
        }
    }

    impl MultiPassAlgorithm for BoundaryRecorder {
        type Output = Vec<Vec<VertexId>>;
        fn passes(&self) -> usize {
            self.passes
        }
        fn requires_same_order(&self) -> bool {
            self.same_order
        }
        fn begin_pass(&mut self, _pass: usize) {
            self.seen.push(Vec::new());
        }
        fn item(&mut self, _src: VertexId, _dst: VertexId) {}
        fn begin_list(&mut self, owner: VertexId) {
            self.seen.last_mut().unwrap().push(owner);
        }
        fn finish(self) -> Self::Output {
            self.seen
        }
    }

    #[test]
    fn edge_counter_counts() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::gnm(40, 111, &mut rng);
        let (m, report) = Runner::run(
            &g,
            EdgeCounter { items: 0 },
            &PassOrders::Same(StreamOrder::shuffled(40, 3)),
        );
        assert_eq!(m, 111);
        assert_eq!(report.items_processed, 222);
        assert_eq!(report.passes, 1);
        assert_eq!(report.peak_state_bytes, 8);
        assert_eq!(report.guard, None);
    }

    #[test]
    fn same_order_replays_identically() {
        let g = gen::complete(6);
        let (seen, _) = Runner::run(
            &g,
            BoundaryRecorder {
                passes: 2,
                same_order: true,
                seen: Vec::new(),
            },
            &PassOrders::Same(StreamOrder::shuffled(6, 17)),
        );
        assert_eq!(seen[0], seen[1]);
    }

    #[test]
    fn per_pass_orders_differ() {
        let g = gen::complete(6);
        let (seen, _) = Runner::run(
            &g,
            BoundaryRecorder {
                passes: 2,
                same_order: false,
                seen: Vec::new(),
            },
            &PassOrders::PerPass(vec![StreamOrder::natural(6), StreamOrder::reversed(6)]),
        );
        assert_ne!(seen[0], seen[1]);
        assert_eq!(seen[0], seen[1].iter().rev().copied().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "identical pass orders")]
    fn same_order_requirement_is_enforced() {
        let g = gen::complete(4);
        let _ = Runner::run(
            &g,
            BoundaryRecorder {
                passes: 2,
                same_order: true,
                seen: Vec::new(),
            },
            &PassOrders::PerPass(vec![StreamOrder::natural(4), StreamOrder::reversed(4)]),
        );
    }

    #[test]
    #[should_panic(expected = "one order per pass")]
    fn per_pass_length_is_enforced() {
        let g = gen::complete(4);
        let _ = Runner::run(
            &g,
            BoundaryRecorder {
                passes: 2,
                same_order: false,
                seen: Vec::new(),
            },
            &PassOrders::PerPass(vec![StreamOrder::natural(4)]),
        );
    }

    #[test]
    fn try_run_returns_typed_errors() {
        let g = gen::complete(4);
        let r = Runner::try_run(
            &g,
            BoundaryRecorder {
                passes: 2,
                same_order: true,
                seen: Vec::new(),
            },
            &PassOrders::PerPass(vec![StreamOrder::natural(4), StreamOrder::reversed(4)]),
        );
        assert_eq!(r.unwrap_err(), RunError::OrderMismatch);
        let r = Runner::try_run(
            &g,
            BoundaryRecorder {
                passes: 2,
                same_order: false,
                seen: Vec::new(),
            },
            &PassOrders::PerPass(vec![StreamOrder::natural(4)]),
        );
        assert_eq!(
            r.unwrap_err(),
            RunError::WrongOrderCount {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn equal_per_pass_orders_count_as_same() {
        // An algorithm requiring identical orders accepts PerPass entries
        // that are all equal — equality of layout is what matters, not the
        // enum variant used to express it.
        let g = gen::complete(5);
        let order = StreamOrder::shuffled(5, 9);
        let (seen, report) = Runner::run(
            &g,
            BoundaryRecorder {
                passes: 3,
                same_order: true,
                seen: Vec::new(),
            },
            &PassOrders::PerPass(vec![order.clone(), order.clone(), order]),
        );
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[1], seen[2]);
        assert_eq!(report.passes, 3);
    }

    #[test]
    fn run_slice_passes_allows_per_pass_divergence() {
        use crate::item::StreamItem;
        let p0 = vec![
            StreamItem::new(VertexId(0), VertexId(1)),
            StreamItem::new(VertexId(1), VertexId(0)),
        ];
        let p1: Vec<StreamItem> = p0.iter().rev().copied().collect();
        let passes = [p0, p1];
        let (seen, report) = run_slice_passes(
            BoundaryRecorder {
                passes: 2,
                same_order: false,
                seen: Vec::new(),
            },
            |p| passes[p].clone(),
        )
        .unwrap();
        assert_eq!(seen[0], vec![VertexId(0), VertexId(1)]);
        assert_eq!(seen[1], vec![VertexId(1), VertexId(0)]);
        assert_eq!(report.items_processed, 4);
    }
}
