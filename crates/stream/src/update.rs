//! Dynamic update streams: timestamped edge insertions and deletions.
//!
//! Every other driver in this workspace replays one *static* trace; this
//! module is the substrate for workloads where the graph changes while the
//! estimator runs (ROADMAP item 1). An [`UpdateStream`] is a timestamp-
//! ordered sequence of [`UpdateEvent`]s — `Insert {u, v}` / `Delete {u, v}`
//! at time `ts` — replayable in *batches*: the batched update driver
//! ([`run_update_batches`]) feeds each batch to an [`UpdateAlgorithm`] and
//! records the per-batch estimate and its delta, which is what the CLI
//! `update-stream` mode and the amortized-cost bench report.
//!
//! The on-disk text format is one event per line:
//!
//! ```text
//! + 0 1 0
//! + 1 2 1
//! - 0 1 2
//! ```
//!
//! (`op src dst ts`, timestamps non-decreasing). The [`churn`] generator
//! produces the standard dynamic workload: a *load* phase inserting every
//! edge of a base graph in seeded random order, then a *churn* tail that
//! swings over the edge set, deleting live edges and re-inserting dead ones
//! — deletions always target a currently-live edge, so generated streams
//! are valid under graph semantics.

use std::fmt;
use std::io::{self, Write};

use adjstream_graph::{EdgeKey, Graph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::meter::{PeakTracker, SpaceUsage};

/// What an update does to the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// The edge becomes live.
    Insert,
    /// The edge stops being live.
    Delete,
}

impl fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UpdateOp::Insert => "+",
            UpdateOp::Delete => "-",
        })
    }
}

/// One timestamped edge update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpdateEvent {
    /// Insert or delete.
    pub op: UpdateOp,
    /// The undirected edge being updated.
    pub edge: EdgeKey,
    /// Event timestamp; an [`UpdateStream`] keeps these non-decreasing.
    pub ts: u64,
}

impl UpdateEvent {
    /// An insertion of `{u, v}` at time `ts`.
    pub fn insert(u: u32, v: u32, ts: u64) -> Self {
        UpdateEvent {
            op: UpdateOp::Insert,
            edge: EdgeKey::new(VertexId(u), VertexId(v)),
            ts,
        }
    }

    /// A deletion of `{u, v}` at time `ts`.
    pub fn delete(u: u32, v: u32, ts: u64) -> Self {
        UpdateEvent {
            op: UpdateOp::Delete,
            edge: EdgeKey::new(VertexId(u), VertexId(v)),
            ts,
        }
    }
}

/// Why an update-trace text file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateParseError {
    /// A line did not match `op src dst ts`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was found there.
        found: String,
    },
    /// An event's endpoints were equal (self-loops are not representable).
    SelfLoop {
        /// 1-based line number.
        line: usize,
        /// The repeated endpoint.
        vertex: u32,
    },
    /// A timestamp went backwards.
    TimestampRegression {
        /// 1-based line number.
        line: usize,
        /// The previous event's timestamp.
        previous: u64,
        /// The offending timestamp.
        found: u64,
    },
}

impl fmt::Display for UpdateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateParseError::Malformed { line, found } => {
                write!(f, "line {line}: expected `+|- SRC DST TS`, got {found:?}")
            }
            UpdateParseError::SelfLoop { line, vertex } => {
                write!(f, "line {line}: self-loop on vertex {vertex}")
            }
            UpdateParseError::TimestampRegression {
                line,
                previous,
                found,
            } => write!(
                f,
                "line {line}: timestamp {found} regresses below {previous}"
            ),
        }
    }
}

impl std::error::Error for UpdateParseError {}

/// A replayable, timestamp-ordered sequence of edge updates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStream {
    events: Vec<UpdateEvent>,
}

impl UpdateStream {
    /// Wrap a timestamp-ordered event sequence.
    ///
    /// # Panics
    ///
    /// Panics if timestamps decrease — batching and windowing both rely on
    /// monotone time.
    pub fn new(events: Vec<UpdateEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].ts <= w[1].ts),
            "update events must have non-decreasing timestamps"
        );
        UpdateStream { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, in timestamp order.
    pub fn events(&self) -> &[UpdateEvent] {
        &self.events
    }

    /// `(first, last)` timestamps, `None` when empty.
    pub fn ts_range(&self) -> Option<(u64, u64)> {
        Some((self.events.first()?.ts, self.events.last()?.ts))
    }

    /// `(inserts, deletes)` totals.
    pub fn op_counts(&self) -> (usize, usize) {
        let ins = self
            .events
            .iter()
            .filter(|e| e.op == UpdateOp::Insert)
            .count();
        (ins, self.events.len() - ins)
    }

    /// Iterate the stream in contiguous batches of at most `size` events
    /// (the last batch may be short). `size` is clamped to at least 1.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = &[UpdateEvent]> {
        self.events.chunks(size.max(1))
    }

    /// The events with `ts` in the half-open interval `[start, end)` —
    /// a binary search on the sorted timestamps, used by the windowed
    /// estimator to slice out one window without scanning the whole trace.
    pub fn slice_ts(&self, start: u64, end: u64) -> &[UpdateEvent] {
        if start >= end {
            return &[];
        }
        let lo = self.events.partition_point(|e| e.ts < start);
        let hi = self.events.partition_point(|e| e.ts < end);
        &self.events[lo..hi]
    }

    /// The edge set live after replaying every event: inserts add, deletes
    /// remove (a delete with no live edge is a no-op). Useful as the ground
    /// truth endpoint of a dynamic run.
    pub fn final_edges(&self) -> Vec<EdgeKey> {
        let mut live = std::collections::BTreeSet::new();
        for ev in &self.events {
            match ev.op {
                UpdateOp::Insert => {
                    live.insert(ev.edge.pack());
                }
                UpdateOp::Delete => {
                    live.remove(&ev.edge.pack());
                }
            }
        }
        live.into_iter().map(EdgeKey::unpack).collect()
    }

    /// Parse the one-event-per-line text format (see the module docs).
    /// Blank lines and lines starting with `#` are skipped.
    pub fn parse_text(text: &str) -> Result<UpdateStream, UpdateParseError> {
        let mut events = Vec::new();
        let mut prev_ts = 0u64;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let malformed = || UpdateParseError::Malformed {
                line,
                found: raw.to_string(),
            };
            let mut parts = trimmed.split_ascii_whitespace();
            let op = match parts.next() {
                Some("+") => UpdateOp::Insert,
                Some("-") => UpdateOp::Delete,
                _ => return Err(malformed()),
            };
            let mut num = || -> Result<u64, UpdateParseError> {
                parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(malformed)
            };
            let (src, dst, ts) = (num()?, num()?, num()?);
            if parts.next().is_some() || src > u64::from(u32::MAX) || dst > u64::from(u32::MAX) {
                return Err(malformed());
            }
            if src == dst {
                return Err(UpdateParseError::SelfLoop {
                    line,
                    vertex: src as u32,
                });
            }
            if !events.is_empty() && ts < prev_ts {
                return Err(UpdateParseError::TimestampRegression {
                    line,
                    previous: prev_ts,
                    found: ts,
                });
            }
            prev_ts = ts;
            events.push(UpdateEvent {
                op,
                edge: EdgeKey::new(VertexId(src as u32), VertexId(dst as u32)),
                ts,
            });
        }
        Ok(UpdateStream { events })
    }

    /// Write the text format this type parses.
    pub fn write_text(&self, w: &mut dyn Write) -> io::Result<()> {
        let mut w = io::BufWriter::new(w);
        for ev in &self.events {
            writeln!(
                w,
                "{} {} {} {}",
                ev.op,
                ev.edge.lo().0,
                ev.edge.hi().0,
                ev.ts
            )?;
        }
        w.flush()
    }
}

/// Configuration for the [`churn`] workload generator.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Churn events after the load phase.
    pub churn_events: usize,
    /// Fraction of churn events that are deletions (the rest re-insert
    /// previously deleted edges). Clamped to `[0, 1]`.
    pub delete_fraction: f64,
    /// Seed for the load order and the churn schedule.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            churn_events: 0,
            delete_fraction: 0.5,
            seed: 1,
        }
    }
}

/// Generate the standard dynamic workload over `graph`'s edge set: a load
/// phase inserting every edge in seeded random order (timestamps `0..m`),
/// then `churn_events` further events that delete a live edge or re-insert
/// a dead one. Deletions always target a live edge and insertions a dead
/// one, so the stream is valid and every prefix describes a subgraph of
/// `graph`.
pub fn churn(graph: &Graph, cfg: &ChurnConfig) -> UpdateStream {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut live = graph.edge_vec();
    live.shuffle(&mut rng);
    let mut events: Vec<UpdateEvent> = live
        .iter()
        .enumerate()
        .map(|(i, &edge)| UpdateEvent {
            op: UpdateOp::Insert,
            edge,
            ts: i as u64,
        })
        .collect();
    let delete_fraction = cfg.delete_fraction.clamp(0.0, 1.0);
    let mut dead: Vec<EdgeKey> = Vec::new();
    let load_len = events.len() as u64;
    for ts in load_len..load_len + cfg.churn_events as u64 {
        let delete = !live.is_empty() && (dead.is_empty() || rng.random::<f64>() < delete_fraction);
        if delete {
            let i = rng.random_range(0..live.len());
            let edge = live.swap_remove(i);
            dead.push(edge);
            events.push(UpdateEvent {
                op: UpdateOp::Delete,
                edge,
                ts,
            });
        } else if !dead.is_empty() {
            let i = rng.random_range(0..dead.len());
            let edge = dead.swap_remove(i);
            live.push(edge);
            events.push(UpdateEvent {
                op: UpdateOp::Insert,
                edge,
                ts,
            });
        }
    }
    UpdateStream { events }
}

/// An algorithm that maintains an estimate under edge insertions *and*
/// deletions — the fully-dynamic counterpart of
/// [`crate::arbitrary::EdgeStreamAlgorithm`]. Unlike the one-shot stream
/// traits, the output is queryable at any time: the batched driver reads
/// [`UpdateAlgorithm::estimate`] at every batch boundary.
pub trait UpdateAlgorithm: SpaceUsage {
    /// Process the insertion of `e` at time `ts`.
    fn insert(&mut self, e: EdgeKey, ts: u64);

    /// Process the deletion of `e` at time `ts`.
    fn delete(&mut self, e: EdgeKey, ts: u64);

    /// Current estimate of the tracked quantity on the live graph.
    fn estimate(&self) -> f64;

    /// Dispatch one event.
    #[inline]
    fn apply(&mut self, ev: &UpdateEvent) {
        match ev.op {
            UpdateOp::Insert => self.insert(ev.edge, ev.ts),
            UpdateOp::Delete => self.delete(ev.edge, ev.ts),
        }
    }
}

/// One batch boundary of a batched update drive ([`apply_update_batch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateBatchReport {
    /// 0-based batch index.
    pub batch: usize,
    /// Events in this batch.
    pub events: usize,
    /// Insertions in this batch.
    pub inserts: usize,
    /// Deletions in this batch.
    pub deletes: usize,
    /// Timestamp of the batch's last event.
    pub ts_end: u64,
    /// The algorithm's estimate after the batch was applied.
    pub estimate: f64,
    /// `estimate` minus the previous boundary's estimate (the first batch
    /// is measured against the algorithm's estimate before any event).
    pub delta: f64,
}

/// Summary of a whole batched update drive.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRunReport {
    /// One entry per batch, in order.
    pub batches: Vec<UpdateBatchReport>,
    /// Total events applied.
    pub events: usize,
    /// High-water mark of the algorithm's state, polled at batch
    /// boundaries (deltas within a batch are not observed — batches are
    /// the driver's atomic unit).
    pub peak_state_bytes: usize,
}

/// Apply `events` — batch number `batch` — to `algo` through `apply`,
/// then read the estimate and measure it against `previous`, the estimate
/// at the last boundary. This is the one batch step every batched driver
/// takes: [`run_update_batches`],
/// [`run_guarded_updates`](crate::update_guard::run_guarded_updates) and
/// the daemon's update job. An error from `apply` aborts the batch.
pub fn apply_update_batch<A: UpdateAlgorithm, E>(
    algo: &mut A,
    batch: usize,
    events: &[UpdateEvent],
    previous: f64,
    mut apply: impl FnMut(&mut A, &UpdateEvent) -> Result<(), E>,
) -> Result<UpdateBatchReport, E> {
    let mut inserts = 0usize;
    for ev in events {
        inserts += usize::from(ev.op == UpdateOp::Insert);
        apply(algo, ev)?;
    }
    let estimate = algo.estimate();
    Ok(UpdateBatchReport {
        batch,
        events: events.len(),
        inserts,
        deletes: events.len() - inserts,
        ts_end: events.last().map_or(0, |e| e.ts),
        estimate,
        delta: estimate - previous,
    })
}

/// Drive `algo` over `stream` in contiguous batches of `batch_size`
/// events, querying the estimate at every batch boundary. The algorithm is
/// taken by `&mut` so callers can keep interrogating (or cross-checking)
/// it after the drive.
pub fn run_update_batches<A: UpdateAlgorithm>(
    stream: &UpdateStream,
    batch_size: usize,
    algo: &mut A,
) -> UpdateRunReport {
    drive_update_batches(stream.events(), batch_size, algo, |a, ev| {
        a.apply(ev);
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {})
}

/// The batch loop behind [`run_update_batches`] and
/// [`run_guarded_updates`](crate::update_guard::run_guarded_updates):
/// [`apply_update_batch`] over contiguous batches of `events`, with the
/// state high-water mark polled at every boundary. An error from `apply`
/// aborts the drive.
pub(crate) fn drive_update_batches<A: UpdateAlgorithm, E>(
    events: &[UpdateEvent],
    batch_size: usize,
    algo: &mut A,
    mut apply: impl FnMut(&mut A, &UpdateEvent) -> Result<(), E>,
) -> Result<UpdateRunReport, E> {
    let mut peak = PeakTracker::new();
    peak.observe(algo.space_bytes());
    let mut previous = algo.estimate();
    let mut batches = Vec::new();
    for (batch, chunk) in events.chunks(batch_size.max(1)).enumerate() {
        let report = apply_update_batch(algo, batch, chunk, previous, &mut apply)?;
        peak.observe(algo.space_bytes());
        previous = report.estimate;
        batches.push(report);
    }
    Ok(UpdateRunReport {
        batches,
        events: events.len(),
        peak_state_bytes: peak.peak(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adjstream_graph::gen;

    /// Maintains the exact live-edge count — the simplest possible
    /// [`UpdateAlgorithm`], used to pin the driver's bookkeeping.
    #[derive(Default)]
    struct EdgeCounter {
        live: std::collections::HashSet<u64>,
    }

    impl SpaceUsage for EdgeCounter {
        fn space_bytes(&self) -> usize {
            self.live.len() * 8
        }
    }

    impl UpdateAlgorithm for EdgeCounter {
        fn insert(&mut self, e: EdgeKey, _ts: u64) {
            self.live.insert(e.pack());
        }
        fn delete(&mut self, e: EdgeKey, _ts: u64) {
            self.live.remove(&e.pack());
        }
        fn estimate(&self) -> f64 {
            self.live.len() as f64
        }
    }

    #[test]
    fn text_round_trip_and_rejection() {
        let s = UpdateStream::new(vec![
            UpdateEvent::insert(0, 1, 0),
            UpdateEvent::insert(1, 2, 1),
            UpdateEvent::delete(0, 1, 5),
        ]);
        let mut buf = Vec::new();
        s.write_text(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(UpdateStream::parse_text(&text).unwrap(), s);
        // Comments and blank lines are skipped.
        let commented = format!("# churn trace\n\n{text}");
        assert_eq!(UpdateStream::parse_text(&commented).unwrap(), s);
        // Malformed op, arity, self-loop, and time regression all reject.
        assert!(matches!(
            UpdateStream::parse_text("* 0 1 0"),
            Err(UpdateParseError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            UpdateStream::parse_text("+ 0 1"),
            Err(UpdateParseError::Malformed { .. })
        ));
        assert!(matches!(
            UpdateStream::parse_text("+ 0 1 0 9"),
            Err(UpdateParseError::Malformed { .. })
        ));
        assert!(matches!(
            UpdateStream::parse_text("+ 3 3 0"),
            Err(UpdateParseError::SelfLoop { vertex: 3, .. })
        ));
        assert!(matches!(
            UpdateStream::parse_text("+ 0 1 5\n+ 1 2 4"),
            Err(UpdateParseError::TimestampRegression {
                line: 2,
                previous: 5,
                found: 4
            })
        ));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn constructor_rejects_time_regression() {
        UpdateStream::new(vec![
            UpdateEvent::insert(0, 1, 5),
            UpdateEvent::insert(1, 2, 4),
        ]);
    }

    #[test]
    fn batches_and_ts_slices() {
        let s = UpdateStream::new(vec![
            UpdateEvent::insert(0, 1, 0),
            UpdateEvent::insert(1, 2, 1),
            UpdateEvent::insert(2, 3, 4),
            UpdateEvent::delete(1, 2, 4),
            UpdateEvent::insert(0, 2, 9),
        ]);
        let sizes: Vec<usize> = s.batches(2).map(<[UpdateEvent]>::len).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert_eq!(s.ts_range(), Some((0, 9)));
        assert_eq!(s.op_counts(), (4, 1));
        assert_eq!(s.slice_ts(0, 2).len(), 2);
        assert_eq!(s.slice_ts(4, 5).len(), 2);
        assert_eq!(s.slice_ts(5, 9).len(), 0);
        assert_eq!(s.slice_ts(9, 9).len(), 0);
        assert_eq!(s.slice_ts(0, 10).len(), 5);
        // Final live set: {0,1}, {2,3}, {0,2}.
        assert_eq!(s.final_edges().len(), 3);
    }

    #[test]
    fn churn_streams_are_valid_and_replayable() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let g = gen::gnm(40, 120, &mut rng);
        let cfg = ChurnConfig {
            churn_events: 500,
            delete_fraction: 0.6,
            seed: 3,
        };
        let s = churn(&g, &cfg);
        assert_eq!(s.len(), g.edge_count() + 500);
        // Deterministic for a fixed seed, different across seeds.
        assert_eq!(churn(&g, &cfg), s);
        assert_ne!(churn(&g, &ChurnConfig { seed: 4, ..cfg }), s);
        // Every delete targets a live edge; every insert targets a dead
        // one; every edge belongs to the base graph.
        let mut live = std::collections::HashSet::new();
        let all: std::collections::HashSet<u64> = g.edges().map(EdgeKey::pack).collect();
        for ev in s.events() {
            assert!(all.contains(&ev.edge.pack()), "edge from the base graph");
            match ev.op {
                UpdateOp::Insert => assert!(live.insert(ev.edge.pack()), "insert of dead edge"),
                UpdateOp::Delete => assert!(live.remove(&ev.edge.pack()), "delete of live edge"),
            }
        }
        assert_eq!(live.len(), s.final_edges().len());
    }

    #[test]
    fn driver_reports_batch_deltas_and_peak() {
        let s = UpdateStream::new(vec![
            UpdateEvent::insert(0, 1, 0),
            UpdateEvent::insert(1, 2, 1),
            UpdateEvent::insert(2, 3, 2),
            UpdateEvent::delete(1, 2, 3),
            UpdateEvent::delete(0, 1, 4),
        ]);
        let mut algo = EdgeCounter::default();
        let report = run_update_batches(&s, 2, &mut algo);
        assert_eq!(report.events, 5);
        assert_eq!(report.batches.len(), 3);
        let estimates: Vec<f64> = report.batches.iter().map(|b| b.estimate).collect();
        assert_eq!(estimates, vec![2.0, 2.0, 1.0]);
        let deltas: Vec<f64> = report.batches.iter().map(|b| b.delta).collect();
        assert_eq!(deltas, vec![2.0, 0.0, -1.0]);
        // Deltas telescope to the final estimate.
        assert_eq!(deltas.iter().sum::<f64>(), algo.estimate());
        assert_eq!(report.batches[2].ts_end, 4);
        assert_eq!(
            (report.batches[1].inserts, report.batches[1].deletes),
            (1, 1)
        );
        // Peak is polled at batch boundaries only, where at most two edges
        // were ever live (the 3-edge moment is mid-batch).
        assert_eq!(report.peak_state_bytes, 16);
    }
}
