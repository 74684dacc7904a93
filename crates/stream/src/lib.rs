//! The adjacency list streaming model (Section 1.2 of the paper).
//!
//! A stream is a sequence of ordered pairs `xy`; for each undirected edge
//! `{x, y}` **both** `xy` and `yx` appear, and all pairs sharing a first
//! vertex — that vertex's adjacency list — appear consecutively. The order of
//! the lists, and the order within each list, is adversarial.
//!
//! This crate supplies the machinery shared by every algorithm:
//!
//! * [`item::StreamItem`] and [`order::StreamOrder`] — what a stream is and
//!   how one is laid out (list permutation × within-list order),
//! * [`adjlist::AdjListStream`] — generate the stream of a
//!   [`adjstream_graph::Graph`] under a given order, replayable for
//!   multi-pass algorithms,
//! * [`validate`] — check the adjacency-list promise on arbitrary item
//!   sequences, offline ([`validate::validate_stream`]), in place over a
//!   resident slice ([`validate::validate_slice`]) or incrementally during
//!   ingestion ([`validate::OnlineValidator`]),
//! * [`fault`] — seeded, replayable injection of every promise violation,
//! * [`guard`] — wrap any algorithm with online validation and an explicit
//!   degradation policy (strict / repair / observe),
//! * [`runner`] — drive a [`runner::MultiPassAlgorithm`] over one or more
//!   passes through the one pass loop, [`runner::drive_pass_slice`],
//!   recording the peak state size; runs degrade to typed
//!   [`runner::RunError`]s instead of panicking,
//! * [`batch`] — batched repetitions: `R` algorithm instances each run
//!   the one pass loop over a pass's shared resident slice, split across
//!   worker threads, bitwise-reproducible against the sequential runner,
//!   with per-instance panic isolation, resource budgets, and
//!   pass-boundary checkpoint/resume,
//! * [`frame`] — the one framed container (magic, version, length,
//!   payload, checksum) behind `.adjb`, `.adjbu`, checkpoints and
//!   shard-worker payloads, with its one typed [`frame::FrameError`],
//! * [`checkpoint`] — the [`checkpoint::Checkpoint`] trait and the
//!   atomically-written checkpoint file behind
//!   [`batch::BatchJob::restore_from_file`],
//! * [`shard`] — graph-sharded scale-out: [`shard::ShardPlan`] partitions a
//!   trace by list-owner vertex and [`shard::run_sharded_hooked`] executes a
//!   [`shard::ShardAlgorithm`] per shard (threads or one checkpointed pass
//!   per process), merging per-pass partial states into results
//!   bit-identical to the sequential driver,
//! * [`mmapfile`] — [`mmapfile::MappedTrace`], zero-copy mmap-backed
//!   `.adjb` replay with windowed checksum verification,
//! * [`meter::SpaceUsage`] — how algorithms report their live state size,
//! * [`obs`] — structured run metrics: an enable-at-construction
//!   [`obs::Metrics`] sink the drivers and algorithms report per-pass
//!   timings, space time-series, and sampler/guard/checkpoint counters
//!   into, exported as versioned one-line JSON and guaranteed not to
//!   change what any run computes,
//! * [`hashing`] and [`sampling`] — seeded hash families and the edge/pair
//!   samplers (threshold, bottom-k, reservoir) that realize the paper's
//!   "sample a uniform size-m′ subset" steps,
//! * [`estimator`] — median / median-of-means amplification used to turn
//!   constant-probability estimators into `1 − δ` ones (Theorems 3.7, 4.6),
//! * [`update`] — timestamped insert/delete update streams, the seeded
//!   churn workload generator, and the batched update driver behind the
//!   fully-dynamic estimators,
//! * [`update_trace`] — the checksummed `.adjbu` binary container for
//!   update traces, with a format-sniffing reader accepting text too,
//! * [`update_fault`] and [`update_guard`] — the dynamic counterparts of
//!   [`fault`]/[`guard`]: the update-semantics fault kinds run by the one
//!   fault core, and the [`update_guard::GuardedUpdate`] adapter that vets
//!   every insert/delete under the one policy rule before it reaches a
//!   fully-dynamic estimator.

#![warn(missing_docs)]

/// Declare a `Copy` enum from one list of `Variant = "cli-name"` pairs: the
/// enum, `ALL` in declaration order, `name`, `parse` and `Display` all come
/// from that list (fault kinds and guard policies).
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $enum:ident {
            $($(#[$vmeta:meta])* $variant:ident = $spelling:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $enum {
            $($(#[$vmeta])* $variant,)+
        }

        impl $enum {
            /// Every variant, in declaration order.
            pub const ALL: [$enum; [$($spelling),+].len()] = [$($enum::$variant),+];

            /// The CLI spelling.
            pub fn name(self) -> &'static str {
                match self {
                    $($enum::$variant => $spelling,)+
                }
            }

            /// Parse the CLI spelling produced by [`Display`](std::fmt::Display).
            pub fn parse(s: &str) -> Option<$enum> {
                $enum::ALL.into_iter().find(|k| k.name() == s)
            }
        }

        impl std::fmt::Display for $enum {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

pub mod adjlist;
pub mod adversarial;
pub mod arbitrary;
pub mod batch;
pub mod checkpoint;
pub mod estimator;
pub mod fault;
pub mod frame;
pub mod guard;
pub mod hashing;
pub mod import;
pub mod item;
pub mod meter;
pub mod mmapfile;
pub mod obs;
pub mod order;
pub mod runner;
pub mod sampling;
pub mod shard;
pub mod trace;
pub mod update;
pub mod update_fault;
pub mod update_guard;
pub mod update_trace;
pub mod validate;

pub use adjlist::AdjListStream;
pub use arbitrary::ArbitraryOrderStream;
pub use batch::{
    BatchConfig, BatchJob, BatchOutcome, BatchReport, Budget, InstanceOutcome, InstanceReport,
};
pub use checkpoint::Checkpoint;
pub use fault::{CorruptedStream, FaultKind, FaultPlan, InjectedFault};
pub use frame::FrameError;
pub use guard::{guard_items, GuardPolicy, Guarded};
pub use hashing::{FastBuildHasher, FastMap, FastSet};
pub use item::StreamItem;
pub use meter::SpaceUsage;
pub use mmapfile::{MappedTrace, VerifyCursor};
pub use obs::{Metrics, MetricsSnapshot, ObsCounters, METRICS_SCHEMA_VERSION};
pub use order::{StreamOrder, WithinListOrder};
pub use runner::{
    drive_pass_slice, run_slice_passes, run_slice_passes_observed, run_with_verdict, GraphPasses,
    GuardStats, MultiPassAlgorithm, PassOrders, RunError, RunReport, RunResult, Runner,
};
pub use shard::{run_sharded_hooked, ShardAlgorithm, ShardError, ShardPlan, ShardRun};
pub use trace::{ItemTrace, TraceError, ADJB_MAGIC, ADJB_VERSION};
pub use update::{
    run_update_batches, ChurnConfig, UpdateAlgorithm, UpdateBatchReport, UpdateEvent,
    UpdateParseError, UpdateRunReport, UpdateStream,
};
pub use update_fault::{
    CorruptedUpdateStream, InjectedUpdateFault, UpdateFaultKind, UpdateFaultPlan,
};
pub use update_guard::{run_guarded_updates, GuardedUpdate, UpdateGuardStats, UpdateViolation};
pub use update_trace::{
    is_adjbu, parse_update_bytes, read_updates, write_adjbu, UpdateTraceError, ADJBU_MAGIC,
    ADJBU_VERSION,
};
pub use validate::{
    validate_online, validate_slice, validate_stream, OnlineValidator, StreamError,
};
