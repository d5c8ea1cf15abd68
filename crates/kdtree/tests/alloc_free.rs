//! Proof of the "zero heap allocations per ray" property: a counting
//! global allocator wraps the system allocator, and the hot queries run
//! between two counter snapshots. The library itself is
//! `#![forbid(unsafe_code)]`; the `unsafe` needed to implement
//! `GlobalAlloc` lives out here in the test crate.

use kdtune_geometry::{Ray, Triangle, TriangleMesh, Vec3};
use kdtune_kdtree::{build, Algorithm, BuildParams, FIXED_TRAVERSAL_STACK};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator with an allocation counter (frees are not counted —
/// an alloc-free region is also free-free).
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

/// A two-level grid of tilted triangles — enough structure for a few
/// thousand nodes and non-trivial traversals.
fn grid_mesh(n: usize) -> Arc<TriangleMesh> {
    let mut mesh = TriangleMesh::new();
    for i in 0..n {
        let x = (i % 32) as f32;
        let y = ((i / 32) % 32) as f32;
        let z = (i / 1024) as f32 * 2.0 + (i % 5) as f32 * 0.1;
        mesh.push_triangle(Triangle::new(
            Vec3::new(x, y, z),
            Vec3::new(x + 0.9, y + 0.1, z + 0.2),
            Vec3::new(x + 0.2, y + 0.8, z - 0.1),
        ));
    }
    Arc::new(mesh)
}

/// One test function on purpose: the test harness runs functions of one
/// binary concurrently, and a parallel test allocating mid-measurement
/// would produce a spurious count.
#[test]
fn intersect_and_intersect_any_do_not_allocate() {
    let mesh = grid_mesh(2048);
    let built = build(mesh, Algorithm::InPlace, &BuildParams::default());
    let tree = built.as_eager().expect("InPlace is eager");
    // The SAH depth bound keeps every built tree on the fixed-stack path.
    assert!(
        tree.traversal_depth_bound() as usize <= FIXED_TRAVERSAL_STACK,
        "depth bound {} exceeds the fixed stack",
        tree.traversal_depth_bound()
    );

    // Pre-generate rays and pre-allocate every sink before the snapshot.
    let rays: Vec<Ray> = (0..512)
        .map(|i| {
            let fx = (i % 24) as f32 * 1.4 - 1.0;
            let fy = (i / 24) as f32 * 1.5 - 1.0;
            Ray::new(
                Vec3::new(fx, fy, -6.0),
                Vec3::new(0.02 * (i % 7) as f32, 0.015 * (i % 5) as f32, 1.0),
            )
        })
        .collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut hits = 0u32;
    let mut occluded = 0u32;
    let mut t_sum = 0.0f32;
    for ray in &rays {
        if let Some(hit) = tree.intersect(ray, 0.0, f32::INFINITY) {
            hits += 1;
            t_sum += hit.t;
        }
        occluded += tree.intersect_any(ray, 0.0, 50.0) as u32;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(hits > 0, "rays must actually hit ({t_sum})");
    assert!(occluded > 0);
    assert_eq!(after - before, 0, "fast-path queries allocated on the heap");

    // Sanity: the counter itself works — it observes a heap allocation.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let probe: Vec<Ray> = std::hint::black_box(Vec::with_capacity(rays.len()));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(probe.capacity() >= rays.len());
    assert!(
        after > before,
        "counting allocator must observe a Vec allocation"
    );
}
