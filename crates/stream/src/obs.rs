//! Structured run metrics and event tracing for the execution stack.
//!
//! Every run driver in this workspace can account for what a run *did* —
//! per-pass wall time, items and slices dispatched, a sampled time-series
//! of [`SpaceUsage`](crate::meter::SpaceUsage) bytes, sampler
//! admission/eviction/freeze counts, guard repairs, checkpoint latencies,
//! and retry counts — without perturbing what the run *computes*. The
//! contract is strict: with metrics disabled the drivers execute today's
//! hot path (a single predicted branch per list boundary), and with
//! metrics enabled every estimate, peak byte count, and guard counter is
//! bit-for-bit identical to the disabled run. Only the observer changes.
//!
//! The moving parts:
//!
//! * [`Metrics`] — the sink. Constructed enabled or disabled at run
//!   construction; cheap to clone (a shared handle). Disabled handles
//!   make every recording call a no-op on a `None`.
//! * [`MetricsSnapshot`] — the versioned export: everything a finished
//!   run (or an aggregate of runs) observed, serializable as one-line
//!   JSON via [`MetricsSnapshot::to_json`].
//! * [`ObsCounters`] — sampler/watcher lifecycle counters the core
//!   algorithms accumulate internally (plain integer increments on paths
//!   they already branch on) and publish through
//!   [`MultiPassAlgorithm::obs_counters`](crate::runner::MultiPassAlgorithm::obs_counters).
//! * [`RunObserver`] — the per-run recorder the drivers thread through
//!   [`crate::runner::drive_pass_slice`]'s boundary loop.
//!
//! Aggregation is additive: absorbing several runs into one sink sums
//! wall times, items, and counters pass-wise, keeps byte peaks as maxima,
//! and keeps the space time-series of the run with the largest peak (the
//! run worth plotting).

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::checkpoint::{read_u64, write_u64};
use crate::runner::GuardStats;

/// Version stamped into every exported [`MetricsSnapshot`]. Bump when the
/// JSON schema or the meaning of a field changes.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Ceiling on retained space time-series points per pass; when a pass
/// produces more list boundaries than this, the series is decimated by
/// doubling its sampling stride (keeping every other point), so the
/// retained points always span the whole pass.
pub const SERIES_MAX_POINTS: usize = 64;

/// Sampler and watcher lifecycle counters accumulated by the core
/// algorithms.
///
/// These are plain integer increments on branches the algorithms already
/// take (the `BottomKEvent` / `ReservoirEvent` match arms), so they are
/// maintained unconditionally — the counts are deterministic properties
/// of the run, independent of whether a [`Metrics`] sink is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsCounters {
    /// Keys admitted into an edge sample (bottom-k insertions, threshold
    /// acceptances).
    pub admissions: u64,
    /// Keys displaced from a full bottom-k sample by a smaller hash.
    pub evictions: u64,
    /// Offers a full or threshold sample declined.
    pub rejections: u64,
    /// Bounded structures currently saturated at capacity (edge sample,
    /// pair reservoir, wedge cap) — a snapshot taken when the counters are
    /// published, not a running count.
    pub freezes: u64,
    /// Pair/wedge records stored into a reservoir slot.
    pub pairs_stored: u64,
    /// Reservoir replacements (a stored record displaced another).
    pub pairs_replaced: u64,
    /// Reservoir offers that lost the replacement lottery.
    pub pairs_rejected: u64,
    /// Watch registrations on a pair-completion watcher (refcount
    /// acquisitions).
    pub watches_started: u64,
    /// Watch releases (refcount drops).
    pub watches_retired: u64,
}

impl ObsCounters {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &ObsCounters) {
        self.admissions += other.admissions;
        self.evictions += other.evictions;
        self.rejections += other.rejections;
        self.freezes += other.freezes;
        self.pairs_stored += other.pairs_stored;
        self.pairs_replaced += other.pairs_replaced;
        self.pairs_rejected += other.pairs_rejected;
        self.watches_started += other.watches_started;
        self.watches_retired += other.watches_retired;
    }

    /// Serialize for a checkpoint payload (fixed-width, field order is the
    /// struct order).
    pub fn save(&self, w: &mut dyn Write) -> io::Result<()> {
        for v in [
            self.admissions,
            self.evictions,
            self.rejections,
            self.freezes,
            self.pairs_stored,
            self.pairs_replaced,
            self.pairs_rejected,
            self.watches_started,
            self.watches_retired,
        ] {
            write_u64(w, v)?;
        }
        Ok(())
    }

    /// Inverse of [`ObsCounters::save`].
    pub fn restore(r: &mut dyn Read) -> io::Result<ObsCounters> {
        Ok(ObsCounters {
            admissions: read_u64(r)?,
            evictions: read_u64(r)?,
            rejections: read_u64(r)?,
            freezes: read_u64(r)?,
            pairs_stored: read_u64(r)?,
            pairs_replaced: read_u64(r)?,
            pairs_rejected: read_u64(r)?,
            watches_started: read_u64(r)?,
            watches_retired: read_u64(r)?,
        })
    }
}

/// One point of a pass's space time-series: state bytes observed at an
/// adjacency-list boundary, positioned by the cumulative item count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpacePoint {
    /// Items processed in this pass when the sample was taken.
    pub items: u64,
    /// State bytes reported by the algorithm at that boundary.
    pub bytes: u64,
}

/// What one pass did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassMetrics {
    /// 0-based pass index.
    pub pass: u32,
    /// Wall-clock time the pass took, summed over merged runs.
    pub wall_nanos: u64,
    /// Items dispatched in the pass, summed over merged runs.
    pub items: u64,
    /// Same-source slices delivered via `feed_slice`.
    pub slices: u64,
    /// Adjacency lists the pass announced.
    pub lists: u64,
    /// Peak state bytes observed during the pass (max over merged runs).
    pub peak_bytes: u64,
    /// Decimated space time-series (≤ [`SERIES_MAX_POINTS`] points; from
    /// the merged run with the largest pass peak).
    pub series: Vec<SpacePoint>,
}

/// Checkpoint I/O latencies, accumulated by the batched engine's
/// pass-boundary hook and the resume path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointMetrics {
    /// Checkpoint files written.
    pub writes: u64,
    /// Total wall time spent encoding + atomically writing them.
    pub write_nanos: u64,
    /// Total payload bytes written.
    pub write_bytes: u64,
    /// Checkpoint files read and applied on resume.
    pub restores: u64,
    /// Total wall time spent reading + decoding them.
    pub restore_nanos: u64,
}

/// Retry/backoff counters from fault-tolerant ingestion
/// (`read_trace_file_with_retry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryMetrics {
    /// Read operations that went through a retry policy.
    pub operations: u64,
    /// Total attempts across those operations (≥ `operations`).
    pub attempts: u64,
    /// Attempts beyond the first per operation.
    pub retries: u64,
}

/// Everything a finished run — or an additive aggregate of runs —
/// observed. The versioned export behind `--metrics-out`,
/// `RunReport::metrics`, and the bench JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Schema version ([`METRICS_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Runs merged into this snapshot (repetitions, batch instances).
    pub runs: u64,
    /// Per-pass observations, indexed by pass.
    pub passes: Vec<PassMetrics>,
    /// Sampler/watcher counters, summed over runs.
    pub counters: ObsCounters,
    /// Ingestion-guard counters, when a guard ran.
    pub guard: Option<GuardStats>,
    /// Checkpoint write/restore latencies.
    pub checkpoint: CheckpointMetrics,
    /// Retry/backoff counters.
    pub retry: RetryMetrics,
    /// High-water mark of a single run's state bytes (max over runs) —
    /// equal to `RunReport::peak_state_bytes` for a single observed run.
    pub peak_state_bytes: u64,
    /// Items processed across all passes (for batch aggregates: shared
    /// stream items, not per-instance deliveries).
    pub items_processed: u64,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            schema: METRICS_SCHEMA_VERSION,
            runs: 0,
            passes: Vec::new(),
            counters: ObsCounters::default(),
            guard: None,
            checkpoint: CheckpointMetrics::default(),
            retry: RetryMetrics::default(),
            peak_state_bytes: 0,
            items_processed: 0,
        }
    }
}

/// Sum two optional guard-counter blocks (counts add, validator peaks
/// take the max — same shape as merging two runs' reports).
fn merge_guard(a: Option<GuardStats>, b: Option<GuardStats>) -> Option<GuardStats> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(GuardStats {
            faults_detected: a.faults_detected + b.faults_detected,
            items_repaired: a.items_repaired + b.items_repaired,
            edges_quarantined: a.edges_quarantined + b.edges_quarantined,
            validator_peak_bytes: a.validator_peak_bytes.max(b.validator_peak_bytes),
        }),
    }
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counts add, peaks take the max, and each
    /// pass keeps the space series of whichever contributing run peaked
    /// higher.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.runs += other.runs;
        for op in &other.passes {
            if self.passes.iter().all(|p| p.pass != op.pass) {
                // Keep `passes` sorted by pass index for stable JSON.
                let at = self.passes.partition_point(|p| p.pass < op.pass);
                self.passes.insert(at, op.clone());
                continue;
            }
            let p = self
                .passes
                .iter_mut()
                .find(|p| p.pass == op.pass)
                .expect("pass present");
            p.wall_nanos += op.wall_nanos;
            p.items += op.items;
            p.slices += op.slices;
            p.lists += op.lists;
            if op.peak_bytes > p.peak_bytes {
                p.series = op.series.clone();
            }
            p.peak_bytes = p.peak_bytes.max(op.peak_bytes);
        }
        self.counters.merge(&other.counters);
        self.guard = merge_guard(self.guard, other.guard);
        self.checkpoint.writes += other.checkpoint.writes;
        self.checkpoint.write_nanos += other.checkpoint.write_nanos;
        self.checkpoint.write_bytes += other.checkpoint.write_bytes;
        self.checkpoint.restores += other.checkpoint.restores;
        self.checkpoint.restore_nanos += other.checkpoint.restore_nanos;
        self.retry.operations += other.retry.operations;
        self.retry.attempts += other.retry.attempts;
        self.retry.retries += other.retry.retries;
        self.peak_state_bytes = self.peak_state_bytes.max(other.peak_state_bytes);
        self.items_processed += other.items_processed;
    }

    /// Serialize as one line of JSON. Every key is a static identifier and
    /// every value an integer, so no escaping is needed; the first key is
    /// always `"schema"`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema\": {}, \"runs\": {}, \"peak_state_bytes\": {}, \"items_processed\": {}",
            self.schema, self.runs, self.peak_state_bytes, self.items_processed
        ));
        out.push_str(", \"passes\": [");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"pass\": {}, \"wall_nanos\": {}, \"items\": {}, \"slices\": {}, \
                 \"lists\": {}, \"peak_bytes\": {}, \"series\": [",
                p.pass, p.wall_nanos, p.items, p.slices, p.lists, p.peak_bytes
            ));
            for (j, pt) in p.series.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{}, {}]", pt.items, pt.bytes));
            }
            out.push_str("]}");
        }
        out.push(']');
        let c = &self.counters;
        out.push_str(&format!(
            ", \"sampler\": {{\"admissions\": {}, \"evictions\": {}, \"rejections\": {}, \
             \"freezes\": {}, \"pairs_stored\": {}, \"pairs_replaced\": {}, \
             \"pairs_rejected\": {}, \"watches_started\": {}, \"watches_retired\": {}}}",
            c.admissions,
            c.evictions,
            c.rejections,
            c.freezes,
            c.pairs_stored,
            c.pairs_replaced,
            c.pairs_rejected,
            c.watches_started,
            c.watches_retired
        ));
        match &self.guard {
            None => out.push_str(", \"guard\": null"),
            Some(g) => out.push_str(&format!(
                ", \"guard\": {{\"faults_detected\": {}, \"items_repaired\": {}, \
                 \"edges_quarantined\": {}, \"validator_peak_bytes\": {}}}",
                g.faults_detected, g.items_repaired, g.edges_quarantined, g.validator_peak_bytes
            )),
        }
        out.push_str(&format!(
            ", \"checkpoint\": {{\"writes\": {}, \"write_nanos\": {}, \"write_bytes\": {}, \
             \"restores\": {}, \"restore_nanos\": {}}}",
            self.checkpoint.writes,
            self.checkpoint.write_nanos,
            self.checkpoint.write_bytes,
            self.checkpoint.restores,
            self.checkpoint.restore_nanos
        ));
        out.push_str(&format!(
            ", \"retry\": {{\"operations\": {}, \"attempts\": {}, \"retries\": {}}}}}",
            self.retry.operations, self.retry.attempts, self.retry.retries
        ));
        out
    }
}

/// The metrics sink: a cheap cloneable handle, enabled or disabled at run
/// construction.
///
/// Disabled handles carry no allocation and turn every recording call
/// into a `None` check; enabled handles share one mutex-protected
/// [`MetricsSnapshot`] that observed runs merge into. The mutex is locked
/// only at run/pass boundaries, never per item.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Option<Arc<Mutex<MetricsSnapshot>>>);

impl Metrics {
    /// A sink that collects.
    pub fn enabled() -> Metrics {
        Metrics(Some(Arc::new(Mutex::new(MetricsSnapshot::default()))))
    }

    /// A sink that ignores everything (the default).
    pub fn disabled() -> Metrics {
        Metrics(None)
    }

    /// [`Metrics::enabled`] when `collect` is true, else
    /// [`Metrics::disabled`].
    pub fn from_flag(collect: bool) -> Metrics {
        if collect {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        }
    }

    /// Whether this handle collects.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn with<F: FnOnce(&mut MetricsSnapshot)>(&self, f: F) {
        if let Some(inner) = &self.0 {
            f(&mut inner.lock().expect("metrics sink poisoned"));
        }
    }

    /// Merge a finished run's snapshot into the sink.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        self.with(|m| m.merge(snap));
    }

    /// Record one checkpoint write of `bytes` payload bytes taking
    /// `nanos`.
    pub fn record_checkpoint_write(&self, nanos: u64, bytes: u64) {
        self.with(|m| {
            m.checkpoint.writes += 1;
            m.checkpoint.write_nanos += nanos;
            m.checkpoint.write_bytes += bytes;
        });
    }

    /// Record one checkpoint restore taking `nanos`.
    pub fn record_checkpoint_restore(&self, nanos: u64) {
        self.with(|m| {
            m.checkpoint.restores += 1;
            m.checkpoint.restore_nanos += nanos;
        });
    }

    /// Record a retried read: `attempts` total attempts for one operation.
    pub fn record_retries(&self, attempts: u64) {
        self.with(|m| {
            m.retry.operations += 1;
            m.retry.attempts += attempts;
            m.retry.retries += attempts.saturating_sub(1);
        });
    }

    /// A copy of everything absorbed so far (`None` for disabled sinks).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0
            .as_ref()
            .map(|inner| inner.lock().expect("metrics sink poisoned").clone())
    }
}

/// Decimating space-series builder: retains at most
/// [`SERIES_MAX_POINTS`] boundary samples by doubling the sampling stride
/// whenever the buffer fills, so the kept points always cover the whole
/// pass at uniform granularity.
#[derive(Debug, Default)]
struct SeriesBuilder {
    points: Vec<SpacePoint>,
    stride: u64,
    boundary: u64,
}

impl SeriesBuilder {
    fn new() -> SeriesBuilder {
        SeriesBuilder {
            points: Vec::new(),
            stride: 1,
            boundary: 0,
        }
    }

    fn push(&mut self, items: u64, bytes: u64) {
        if self.boundary.is_multiple_of(self.stride) {
            if self.points.len() == SERIES_MAX_POINTS {
                let mut keep = 0usize;
                self.points.retain(|_| {
                    keep += 1;
                    (keep - 1).is_multiple_of(2)
                });
                self.stride *= 2;
            }
            if self.boundary.is_multiple_of(self.stride) {
                self.points.push(SpacePoint { items, bytes });
            }
        }
        self.boundary += 1;
    }
}

/// Per-pass accumulation state of a [`RunObserver`].
#[derive(Debug)]
struct ActivePass {
    pass: u32,
    t0: Instant,
    start_items: usize,
    slices: u64,
    lists: u64,
    peak_bytes: u64,
    series: SeriesBuilder,
}

/// The per-run recorder the sequential drivers thread through the
/// boundary-detection loop. Disabled observers reduce every call to one
/// predicted branch; they are what the unobserved entry points pass.
#[derive(Debug)]
pub struct RunObserver {
    enabled: bool,
    active: Option<ActivePass>,
    passes: Vec<PassMetrics>,
}

impl RunObserver {
    /// An observer that records nothing.
    pub fn disabled() -> RunObserver {
        RunObserver {
            enabled: false,
            active: None,
            passes: Vec::new(),
        }
    }

    /// An observer recording iff `sink` is enabled.
    pub fn for_sink(sink: &Metrics) -> RunObserver {
        RunObserver {
            enabled: sink.is_enabled(),
            active: None,
            passes: Vec::new(),
        }
    }

    /// A pass is starting; `processed` is the run's cumulative item count.
    #[inline]
    pub fn begin_pass(&mut self, pass: usize, processed: usize) {
        if !self.enabled {
            return;
        }
        self.active = Some(ActivePass {
            pass: pass as u32,
            t0: Instant::now(),
            start_items: processed,
            slices: 0,
            lists: 0,
            peak_bytes: 0,
            series: SeriesBuilder::new(),
        });
    }

    /// A list boundary was sampled at `bytes` with `processed` cumulative
    /// items.
    #[inline]
    pub fn boundary(&mut self, bytes: usize, processed: usize) {
        if !self.enabled {
            return;
        }
        if let Some(a) = &mut self.active {
            a.lists += 1;
            a.peak_bytes = a.peak_bytes.max(bytes as u64);
            a.series
                .push((processed - a.start_items) as u64, bytes as u64);
        }
    }

    /// One same-source slice was delivered through `feed_slice`.
    #[inline]
    pub fn slice(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(a) = &mut self.active {
            a.slices += 1;
        }
    }

    /// The pass ended at `bytes` state with `processed` cumulative items.
    #[inline]
    pub fn end_pass(&mut self, bytes: usize, processed: usize) {
        if !self.enabled {
            return;
        }
        if let Some(mut a) = self.active.take() {
            a.peak_bytes = a.peak_bytes.max(bytes as u64);
            self.passes.push(PassMetrics {
                pass: a.pass,
                wall_nanos: u64::try_from(a.t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                items: (processed - a.start_items) as u64,
                slices: a.slices,
                lists: a.lists,
                peak_bytes: a.peak_bytes,
                series: a.series.points,
            });
        }
    }

    /// Package the observations of one finished run (`None` when
    /// disabled).
    pub fn into_snapshot(
        self,
        peak_state_bytes: usize,
        items_processed: usize,
        guard: Option<GuardStats>,
        counters: Option<ObsCounters>,
    ) -> Option<MetricsSnapshot> {
        if !self.enabled {
            return None;
        }
        Some(MetricsSnapshot {
            runs: 1,
            passes: self.passes,
            counters: counters.unwrap_or_default(),
            guard,
            peak_state_bytes: peak_state_bytes as u64,
            items_processed: items_processed as u64,
            ..MetricsSnapshot::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let m = Metrics::disabled();
        m.record_checkpoint_write(100, 10);
        m.record_retries(5);
        m.absorb(&MetricsSnapshot::default());
        assert!(!m.is_enabled());
        assert_eq!(m.snapshot(), None);
    }

    #[test]
    fn enabled_sink_accumulates() {
        let m = Metrics::enabled();
        m.record_checkpoint_write(100, 10);
        m.record_checkpoint_write(50, 20);
        m.record_checkpoint_restore(30);
        m.record_retries(3);
        let s = m.snapshot().unwrap();
        assert_eq!(s.checkpoint.writes, 2);
        assert_eq!(s.checkpoint.write_nanos, 150);
        assert_eq!(s.checkpoint.write_bytes, 30);
        assert_eq!(s.checkpoint.restores, 1);
        assert_eq!(s.retry.operations, 1);
        assert_eq!(s.retry.attempts, 3);
        assert_eq!(s.retry.retries, 2);
    }

    #[test]
    fn merge_is_additive_with_max_peaks() {
        let mut a = MetricsSnapshot {
            runs: 1,
            passes: vec![PassMetrics {
                pass: 0,
                wall_nanos: 10,
                items: 100,
                slices: 2,
                lists: 4,
                peak_bytes: 64,
                series: vec![SpacePoint {
                    items: 50,
                    bytes: 64,
                }],
            }],
            peak_state_bytes: 64,
            items_processed: 100,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            runs: 1,
            passes: vec![
                PassMetrics {
                    pass: 0,
                    wall_nanos: 20,
                    items: 100,
                    slices: 0,
                    lists: 4,
                    peak_bytes: 128,
                    series: vec![SpacePoint {
                        items: 25,
                        bytes: 128,
                    }],
                },
                PassMetrics {
                    pass: 1,
                    items: 40,
                    ..PassMetrics::default()
                },
            ],
            peak_state_bytes: 128,
            items_processed: 140,
            ..MetricsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.passes.len(), 2);
        assert_eq!(a.passes[0].wall_nanos, 30);
        assert_eq!(a.passes[0].items, 200);
        assert_eq!(a.passes[0].peak_bytes, 128);
        // The higher-peak run's series wins.
        assert_eq!(a.passes[0].series[0].bytes, 128);
        assert_eq!(a.passes[1].pass, 1);
        assert_eq!(a.peak_state_bytes, 128);
        assert_eq!(a.items_processed, 240);
    }

    #[test]
    fn series_decimates_with_stride_doubling() {
        let mut s = SeriesBuilder::new();
        for i in 0..1000u64 {
            s.push(i, i * 2);
        }
        assert!(s.points.len() <= SERIES_MAX_POINTS);
        assert!(s.points.len() >= SERIES_MAX_POINTS / 2);
        // Points are uniformly strided and start at boundary 0.
        assert_eq!(s.points[0].items, 0);
        let stride = s.points[1].items - s.points[0].items;
        for w in s.points.windows(2) {
            assert_eq!(w[1].items - w[0].items, stride);
        }
    }

    #[test]
    fn json_is_one_versioned_line() {
        let snap = MetricsSnapshot {
            runs: 1,
            passes: vec![PassMetrics {
                pass: 0,
                wall_nanos: 5,
                items: 10,
                slices: 1,
                lists: 2,
                peak_bytes: 99,
                series: vec![SpacePoint {
                    items: 5,
                    bytes: 99,
                }],
            }],
            guard: Some(GuardStats {
                faults_detected: 1,
                items_repaired: 1,
                edges_quarantined: 0,
                validator_peak_bytes: 40,
            }),
            ..MetricsSnapshot::default()
        };
        let json = snap.to_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"schema\": 1, "));
        assert!(json.contains("\"peak_bytes\": 99"));
        assert!(json.contains("\"series\": [[5, 99]]"));
        assert!(json.contains("\"faults_detected\": 1"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn observer_tracks_pass_boundaries() {
        let sink = Metrics::enabled();
        let mut obs = RunObserver::for_sink(&sink);
        obs.begin_pass(0, 0);
        obs.boundary(10, 3);
        obs.slice();
        obs.boundary(30, 6);
        obs.end_pass(20, 6);
        obs.begin_pass(1, 6);
        obs.boundary(5, 9);
        obs.end_pass(5, 12);
        let snap = obs.into_snapshot(30, 12, None, None).unwrap();
        assert_eq!(snap.passes.len(), 2);
        assert_eq!(snap.passes[0].lists, 2);
        assert_eq!(snap.passes[0].slices, 1);
        assert_eq!(snap.passes[0].items, 6);
        assert_eq!(snap.passes[0].peak_bytes, 30);
        assert_eq!(snap.passes[1].items, 6);
        assert_eq!(snap.passes[1].peak_bytes, 5);
        assert_eq!(snap.peak_state_bytes, 30);
        sink.absorb(&snap);
        assert_eq!(sink.snapshot().unwrap(), snap);
    }

    #[test]
    fn disabled_observer_yields_none() {
        let mut obs = RunObserver::disabled();
        obs.begin_pass(0, 0);
        obs.boundary(10, 1);
        obs.end_pass(10, 2);
        assert_eq!(obs.into_snapshot(10, 2, None, None), None);
    }
}
