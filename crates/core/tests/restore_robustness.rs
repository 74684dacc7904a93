//! Corrupt checkpoints restore to a state or a typed error: never a panic,
//! and never an allocation larger than a capped reserve can ask for.
//!
//! A pass-boundary `TwoPassTriangle` checkpoint and a `PairWatcher` save
//! are cut at every offset and have each of their bits flipped in turn.
//! Every restore must return `Ok` or an `io::Error` of kind `InvalidData`
//! or `UnexpectedEof`, and a cut checkpoint must be refused. A flipped
//! two-pass checkpoint that restores is run on through its second pass
//! and `finish`, which must not panic either: restore has to refuse what
//! the rest of the run cannot handle. Restores
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
use adjstream_core::triangle::{TwoPassTriangle, TwoPassTriangleConfig};
use adjstream_graph::{gen, VertexId};
use adjstream_stream::checkpoint::Checkpoint;
use adjstream_stream::meter::PeakTracker;
use adjstream_stream::runner::{drive_pass_slice, MultiPassAlgorithm};
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

/// Restore `bytes` with allocations recorded, turning a panic into a
/// failure that names `what`.
fn restore<T: Checkpoint>(bytes: &[u8], what: &str) -> io::Result<T> {
    ARMED.store(true, Ordering::Relaxed);
    let result = catch_unwind(AssertUnwindSafe(|| T::restore(&mut &bytes[..])));
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

/// Cut `blob` at every offset and flip each of its bits, restoring each
/// result as a `T`. Every flipped blob that restores is handed to
/// `resume`, which must not panic. Returns how many flipped blobs
/// restored.
fn corrupt_every_way<T: Checkpoint>(name: &str, blob: &[u8], resume: impl Fn(T)) -> usize {
    assert!(restore::<T>(blob, name).is_ok(), "{name}: the saved blob");
    for len in 0..blob.len() {
        let what = format!("{name} cut to {len} bytes");
        assert!(restore::<T>(&blob[..len], &what).is_err(), "{what}");
    }
    let mut restored = 0;
    let mut flipped = blob.to_vec();
    for bit in 0..blob.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let what = format!("{name} with bit {bit} flipped");
        if let Ok(state) = restore::<T>(&flipped, &what) {
            restored += 1;
            let resumed = catch_unwind(AssertUnwindSafe(|| resume(state)));
            assert!(resumed.is_ok(), "{what}: resume panicked");
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    restored
}

/// The stream of the two-pass checkpoint: a random graph and a book whose
/// spine vertices the watcher lists under many pairs.
fn two_pass_items() -> Vec<StreamItem> {
    let mut rng = StdRng::seed_from_u64(32);
    let g = gen::gnm(20, 70, &mut rng).disjoint_union(&gen::book(6));
    AdjListStream::new(&g, StreamOrder::shuffled(g.vertex_count(), 5)).collect_items()
}

/// A pass-0 boundary checkpoint of the two-pass counter over `items`: a
/// full bottom-k sample that evicted and a saturated pair subsample.
fn two_pass_blob(items: &[StreamItem]) -> Vec<u8> {
    let mut algo = TwoPassTriangle::new(TwoPassTriangleConfig {
        seed: 7,
        edge_sampling: EdgeSampling::BottomK { k: 24 },
        pair_capacity: 8,
    });
    drive_pass_slice(&mut algo, 0, items, &mut PeakTracker::new(), &mut 0).expect("pass 0");
    let mut blob = Vec::new();
    algo.save(&mut blob).expect("save");
    blob
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
    let items = two_pass_items();
    let resume = |mut algo: TwoPassTriangle| {
        drive_pass_slice(&mut algo, 1, &items, &mut PeakTracker::new(), &mut 0).expect("pass 1");
        algo.finish();
    };
    let restored = corrupt_every_way("two-pass", &two_pass_blob(&items), resume);
    assert!(
        restored > 0,
        "some flipped checkpoints must restore and resume"
    );
    corrupt_every_way::<PairWatcher>("watcher", &watcher_blob(), drop);
}
