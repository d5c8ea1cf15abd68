//! A depth-first build allocates a handful of buffers, not a few per
//! node: its nodes go straight into the packed preorder output, and each
//! task recycles its working-set buffers. A counting global allocator
//! wraps the system allocator, and one build runs between two counter
//! snapshots; the `unsafe` of `GlobalAlloc` lives here in the test crate,
//! as in `alloc_free.rs`.

use kdtune_kdtree::{build, Algorithm, BuildParams};
use kdtune_scenes::{fairy_forest, SceneParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator with an allocation counter (a `realloc` counts as
/// one; frees are not counted).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One test function on purpose: the harness runs the functions of one
/// binary concurrently, and another test allocating mid-build would be
/// counted.
#[test]
fn node_level_build_allocates_per_task_not_per_node() {
    let mesh = fairy_forest(&SceneParams::tiny()).frame(0);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    // `C_base`, and the tuned corner anim_tune's eager episodes reach:
    // about 1 000 and 3 800 nodes.
    for params in [
        BuildParams::default(),
        BuildParams::from_config(72.0, 12.0, 6, 4096),
    ] {
        let (allocations, nodes) = pool.install(|| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let tree = build(Arc::clone(&mesh), Algorithm::NodeLevel, &params);
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            (after - before, tree.node_count() as u64)
        });
        assert!(nodes > 900, "{params:?}: only {nodes} nodes");
        // Writing each node into a boxed build tree and flattening that
        // cost about 1.8 allocations per node; the bound is a third of
        // one (about a quarter is what a build takes now).
        assert!(
            allocations * 3 <= nodes,
            "{params:?}: {allocations} heap allocations for {nodes} nodes"
        );
    }
}
