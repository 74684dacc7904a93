//! Corrupt checkpoints restore to a state or a typed error: never a panic,
//! and never an allocation larger than a capped reserve can ask for.
//!
//! A pass-boundary `TwoPassTriangle` checkpoint, the same boundary as an
//! earlier build saved it (its watcher also holds the records' edges,
//! which restore unwatches), its checkpoint after pass 2, whose records
//! watch their edges, `ShardedTriangle` checkpoints at its pass-1
//! and pass-2 boundaries, a shard-worker payload read through
//! `decode_shard_payload`, and a `PairWatcher` save are cut at every
//! offset and have each of their bits flipped in turn. Every
//! restore must return `Ok` or an `io::Error` of kind `InvalidData` or
//! `UnexpectedEof`, and a cut input must be refused. A flipped estimator
//! state that restores is run on through its remaining passes and
//! `finish`, which must not panic either: restore has to refuse what the
//! rest of the run cannot handle. Restores
//! preallocate from saved counts at most `seq_reserve`'s 1 MiB of
//! elements; a hash map reserved for that many allocates under 3 MiB
//! (power-of-two buckets at a 7/8 load, one control byte each), so no
//! single allocation made while restoring may exceed [`MAX_ALLOCATION`].
//! The file holds one test, so the allocations it records are its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use adjstream_core::common::{EdgeSampling, PairWatcher};
use adjstream_core::triangle::{
    ShardedTriangle, ShardedTriangleConfig, TwoPassTriangle, TwoPassTriangleConfig,
};
use adjstream_graph::{gen, VertexId};
use adjstream_stream::checkpoint::{write_u32, write_u64, write_usize, Checkpoint};
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::runner::{drive_pass_slice, MultiPassAlgorithm};
use adjstream_stream::shard::{
    decode_shard_payload, run_shard_pass_blob, ShardAlgorithm, ShardError, ShardPassStats,
    ShardPlan,
};
use adjstream_stream::{AdjListStream, StreamItem, StreamOrder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The largest allocation a restore may make.
const MAX_ALLOCATION: usize = 4 << 20;

/// Whether allocations are being recorded.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The largest allocation or reallocation recorded, in bytes.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, recording the largest request made while
/// [`ARMED`]. The counters are statistics, so `Relaxed` suffices.
struct Recording;

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, whose
// methods have the same contracts, so the caller's guarantees carry over;
// `record` only updates two atomics and allocates nothing.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// Decode `bytes` as a checkpoint of `T`.
fn restore_as<T: Checkpoint>(bytes: &[u8]) -> io::Result<T> {
    T::restore(&mut &bytes[..])
}

/// Decode `bytes` as a shard-worker payload: the shard's stats, then its
/// replica of the state.
fn worker_payload(bytes: &[u8]) -> io::Result<(ShardedTriangle, ShardPassStats)> {
    decode_shard_payload(bytes).map_err(|e| match e {
        ShardError::State(e) => e,
        other => panic!("decoding can only fail on its state: {other}"),
    })
}

/// Decode `bytes` with `decode`, allocations recorded, turning a panic
/// into a failure that names `what`.
fn restore<T>(bytes: &[u8], what: &str, decode: impl Fn(&[u8]) -> io::Result<T>) -> io::Result<T> {
    ARMED.store(true, Ordering::Relaxed);
    let result = catch_unwind(AssertUnwindSafe(|| decode(bytes)));
    ARMED.store(false, Ordering::Relaxed);
    let largest = LARGEST.swap(0, Ordering::Relaxed);
    assert!(
        largest <= MAX_ALLOCATION,
        "{what}: allocated {largest} bytes"
    );
    match result {
        Ok(Err(e)) => {
            assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{what}: {e:?}"
            );
            Err(e)
        }
        Ok(ok) => ok,
        Err(_) => panic!("{what}: restore panicked"),
    }
}

/// Cut `blob` at every offset and flip each of its bits, decoding each
/// result with `decode`. Every flipped blob that decodes is handed to
/// `resume`, which must not panic. Returns how many flipped blobs
/// decoded.
fn corrupt_every_way<T>(
    name: &str,
    blob: &[u8],
    decode: impl Fn(&[u8]) -> io::Result<T>,
    resume: impl Fn(T),
) -> usize {
    assert!(
        restore(blob, name, &decode).is_ok(),
        "{name}: the saved blob"
    );
    for len in 0..blob.len() {
        let what = format!("{name} cut to {len} bytes");
        assert!(restore(&blob[..len], &what, &decode).is_err(), "{what}");
    }
    let mut restored = 0;
    let mut flipped = blob.to_vec();
    for bit in 0..blob.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let what = format!("{name} with bit {bit} flipped");
        if let Ok(state) = restore(&flipped, &what, &decode) {
            restored += 1;
            let resumed = catch_unwind(AssertUnwindSafe(|| resume(state)));
            assert!(resumed.is_ok(), "{what}: resume panicked");
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    restored
}

/// The stream of the estimator checkpoints: a random graph and a book
/// whose spine vertices the watcher lists under many pairs.
fn items() -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(32);
    let g = gen::gnm(20, 70, &mut rng).disjoint_union(&gen::book(6));
    AdjListStream::new(&g, StreamOrder::shuffled(g.vertex_count(), 5)).collect_items()
}

/// The two-pass counter's checkpoints after each of its passes over
/// `items`: a full bottom-k sample that evicted and a saturated pair
/// subsample, and then records that watch their edges.
fn two_pass_blobs(items: &[StreamItem]) -> [Vec<u8>; 2] {
    let mut algo = TwoPassTriangle::new(TwoPassTriangleConfig {
        seed: 7,
        edge_sampling: EdgeSampling::BottomK { k: 24 },
        pair_capacity: 8,
    });
    std::array::from_fn(|pass| {
        drive_pass_slice(&mut algo, pass, items, &mut PeakTracker::new(), &mut 0).expect("pass");
        let mut blob = Vec::new();
        algo.save(&mut blob).expect("save");
        blob
    })
}

/// The first of [`two_pass_blobs`] as the build before records watched
/// from pass 2 on saved it: its watcher holds each record's three edges
/// beside `S`.
const OLDER_TWO_PASS_BLOB: &[u8] = include_bytes!("fixtures/two_pass_small_pass0.ckpt");

/// A smaller stream for the sharded counter, which runs up to two passes
/// after each restore.
fn sharded_items() -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(34);
    let g = gen::gnm(12, 30, &mut rng).disjoint_union(&gen::book(5));
    AdjListStream::new(&g, StreamOrder::shuffled(g.vertex_count(), 3)).collect_items()
}

/// A bottom-k configuration of the sharded counter whose sample evicts and
/// whose pair subsample saturates on [`sharded_items`].
const SHARDED: ShardedTriangleConfig = ShardedTriangleConfig {
    seed: 7,
    edge_sampling: EdgeSampling::BottomK { k: 16 },
    pair_capacity: 6,
};

/// The sharded counter's checkpoints at its pass-1 and pass-2 boundaries
/// over `items`.
fn sharded_blobs(items: &[StreamItem]) -> [Vec<u8>; 2] {
    let mut algo = ShardedTriangle::new(SHARDED);
    std::array::from_fn(|pass| {
        drive_pass_slice(&mut algo, pass, items, &mut PeakTracker::new(), &mut 0).expect("pass");
        if pass == 1 {
            let counters = algo.obs_counters().expect("published");
            assert!(counters.evictions > 0 && counters.pairs_replaced > 0);
        }
        let mut blob = Vec::new();
        algo.save(&mut blob).expect("save");
        blob
    })
}

/// Run the sharded counter's passes from `from` on over `items`, then
/// `finish`.
fn finish_sharded(mut algo: ShardedTriangle, from: usize, items: &[StreamItem]) {
    for pass in from..algo.passes() {
        drive_pass_slice(&mut algo, pass, items, &mut PeakTracker::new(), &mut 0).expect("pass");
    }
    algo.finish();
}

/// A watcher with a hub whose list spills past the pairs kept in place, a
/// pair watched twice, and released slots.
fn watcher_blob() -> Vec<u8> {
    let v = VertexId;
    let mut w = PairWatcher::new();
    for leaf in 1..8 {
        w.watch(v(0), v(leaf));
    }
    w.watch(v(3), v(4));
    w.watch(v(4), v(3));
    w.unwatch(v(0), v(2));
    w.unwatch(v(0), v(6));
    w.watch(v(9), v(9));
    let mut blob = Vec::new();
    w.save(&mut blob).expect("save");
    blob
}

#[test]
fn corrupt_checkpoints_restore_to_a_state_or_a_typed_error() {
    let items = items();
    let resume = |mut algo: TwoPassTriangle| {
        drive_pass_slice(&mut algo, 1, &items, &mut PeakTracker::new(), &mut 0).expect("pass 1");
        algo.finish();
    };
    let [blob, last] = two_pass_blobs(&items);
    let restored = corrupt_every_way("two-pass", &blob, restore_as, resume);
    assert!(
        restored > 0,
        "some flipped checkpoints must restore and resume"
    );
    let name = "two-pass after pass 2";
    let finish = |algo: TwoPassTriangle| {
        algo.finish();
    };
    let restored = corrupt_every_way(name, &last, restore_as, finish);
    assert!(restored > 0, "{name}: some flipped checkpoints must finish");
    // The earlier build's payload restores to a state that saves as many
    // bytes as this build's own: restore drops the record watches.
    let older: TwoPassTriangle = restore_as(OLDER_TWO_PASS_BLOB).expect("the older payload");
    let mut resaved = Vec::new();
    older.save(&mut resaved).expect("save");
    assert_eq!(resaved.len(), blob.len());
    assert!(resaved.len() < OLDER_TWO_PASS_BLOB.len());
    let name = "two-pass, earlier build";
    let restored = corrupt_every_way(name, OLDER_TWO_PASS_BLOB, restore_as, resume);
    assert!(restored > 0, "{name}: some flipped checkpoints must resume");

    let items = sharded_items();
    let boundaries = sharded_blobs(&items);
    for (pass, blob) in boundaries.iter().enumerate() {
        let name = format!("sharded after pass {pass}");
        let resume = |algo| finish_sharded(algo, pass + 1, &items);
        let restored = corrupt_every_way(&name, blob, restore_as, resume);
        assert!(restored > 0, "{name}: some flipped checkpoints must resume");
    }

    // A worker's pass-1 payload for the first of two shards. Its parent
    // merges the other shard's replica in, then runs pass 2.
    let plan = ShardPlan::build(&items, 2);
    let worker = |shard| {
        run_shard_pass_blob::<ShardedTriangle>(&boundaries[0], 1, &items, plan.runs_for(shard))
            .expect("shard pass")
    };
    let (payload, other) = (worker(0), worker(1));
    let resume = |(mut replica, _): (ShardedTriangle, ShardPassStats)| {
        let (other, _) = worker_payload(&other).expect("the other shard");
        if replica.merge_pass(other, 1).is_ok() {
            finish_sharded(replica, 2, &items);
        }
    };
    let restored = corrupt_every_way("shard worker", &payload, worker_payload, resume);
    assert!(restored > 0, "some flipped payloads must decode");

    corrupt_every_way("watcher", &watcher_blob(), restore_as::<PairWatcher>, drop);

    // A watcher payload that lists one pair twice, each time with one
    // watch, and the pair once under each endpoint.
    let key = (1u64 << 32) | 2;
    let mut twice = Vec::new();
    write_usize(&mut twice, 2).unwrap();
    for _ in 0..2 {
        write_u64(&mut twice, key).unwrap();
        write_u32(&mut twice, 1).unwrap();
    }
    write_usize(&mut twice, 2).unwrap();
    for vertex in [1, 2] {
        write_u32(&mut twice, vertex).unwrap();
        write_usize(&mut twice, 1).unwrap();
        write_u64(&mut twice, key).unwrap();
    }
    write_u64(&mut twice, 2).unwrap();
    write_u64(&mut twice, 0).unwrap();
    let what = "watcher with a repeated pair";
    let err = restore(&twice, what, restore_as::<PairWatcher>).expect_err(what);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
}
