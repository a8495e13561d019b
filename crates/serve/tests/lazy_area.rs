//! A session holds no cube, and a cube allocates its output blocks
//! only when a simulating run writes them, so opening a session or
//! replaying a run costs nothing of the shards' sizes.
//!
//! This binary installs a counting global allocator and measures the
//! bytes two replay-only paths allocate against one shard's output
//! area. It holds its own tests only: each takes `SERIAL` for its whole
//! body, so no other test's allocations land in a measured window.

use hipe::Arch;
use hipe_db::Query;
use hipe_serve::{run_service, Cluster, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The system allocator, adding up the bytes every allocation asks
/// for (a reallocation counts its new size).
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { Heap.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serializes this binary's tests, so a measured window sees only its
/// own test's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

const SEED: u64 = 2018;
const SHARDS: usize = 4;

/// Runs `f` and returns its result with the bytes allocated meanwhile.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

/// A 4-shard cluster and the bytes of one shard's output area: the
/// image above the mask base, which each cube owns.
fn cluster() -> (Cluster, usize) {
    let cluster = Cluster::new(1 << 18, SEED, SHARDS);
    let sys = cluster.shard(0);
    let area = (sys.layout().image_bytes() - sys.mask_base()) as usize;
    (cluster, area)
}

#[test]
fn a_warm_cluster_session_opens_without_an_output_area() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, area) = cluster();
    // Warm: plans lowered, and one cube per shard built for the
    // simulation, written and dropped.
    cluster.session().run(Arch::Hipe, &Query::q6());
    let before = cluster.materializations();
    let ((), bytes) = allocated_by(|| drop(cluster.session()));
    assert_eq!(cluster.materializations(), before + SHARDS as u64);
    assert!(
        bytes < area,
        "opening {SHARDS} sessions allocated {bytes} B, one output area is {area} B"
    );
}

#[test]
fn a_replay_only_service_run_allocates_no_output_area() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, area) = cluster();
    let cfg = ServiceConfig::closed(
        Arch::Hipe,
        64,
        vec![(Query::q6(), 1), (Query::quantity_below_permille(100), 1)],
        4,
    );
    let first = run_service(&cluster, &cfg);
    assert_eq!(first.profiled, 2);
    let (warm, bytes) = allocated_by(|| run_service(&cluster, &cfg));
    // Every profile hits, and the run still opens one session per
    // shard.
    assert_eq!(warm.profiled, 0);
    assert_eq!(warm.materializations, SHARDS as u64);
    assert_eq!(warm.answers, first.answers);
    assert!(
        bytes < area,
        "a replay-only run allocated {bytes} B, one output area is {area} B"
    );
}
