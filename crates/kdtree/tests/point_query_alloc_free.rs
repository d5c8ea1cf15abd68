//! Pins the zero-allocation property of the point-query kernels: with a
//! reused, pre-reserved result buffer and a reused visit-stamp scratch,
//! `knn_into` and `radius_gather_into` on an SAH-built tree perform no
//! heap allocations per query (fixed array stack + caller-owned heap
//! buffer and stamps).
//!
//! Lives in its own test binary (like `alloc_free.rs` for rays) so no
//! concurrently running test can pollute the global allocation counter.

use kdtune_geometry::{Triangle, TriangleMesh, Vec3};
use kdtune_kdtree::{build, Algorithm, BuildParams, Neighbor, PrimStamps};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn grid_mesh(n: usize) -> Arc<TriangleMesh> {
    let mut mesh = TriangleMesh::new();
    for i in 0..n {
        let x = (i % 16) as f32;
        let y = (i / 16) as f32;
        let z = (i % 7) as f32 * 0.4;
        mesh.push_triangle(Triangle::new(
            Vec3::new(x, y, z),
            Vec3::new(x + 0.9, y, z),
            Vec3::new(x, y + 0.9, z),
        ));
    }
    Arc::new(mesh)
}

#[test]
fn point_queries_do_not_allocate() {
    let mesh = grid_mesh(256);
    let built = build(mesh.clone(), Algorithm::InPlace, &BuildParams::default());
    let tree = built.as_eager().expect("in-place builds eagerly");

    const K: usize = 8;
    let mut knn_buf: Vec<Neighbor> = Vec::with_capacity(K);
    // Radius results are bounded by the mesh size; reserve for the worst
    // case so growth never reallocates.
    let mut radius_buf: Vec<Neighbor> = Vec::with_capacity(mesh.len());
    // One scratch for every query; it sizes itself to the mesh on the
    // first (warm-up) query.
    let mut stamps = PrimStamps::new();

    // Warm up outside the counted window (first calls may lazily touch
    // allocator-backed state elsewhere in the process).
    tree.knn_into(Vec3::new(4.2, 3.1, 0.5), K, &mut knn_buf, &mut stamps);
    tree.radius_gather_into(Vec3::new(4.2, 3.1, 0.5), 2.5, &mut radius_buf, &mut stamps);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..200 {
        let q = Vec3::new(
            (i % 17) as f32 * 0.9,
            (i % 13) as f32 * 1.1,
            (i % 5) as f32 - 1.0,
        );
        tree.knn_into(q, K, &mut knn_buf, &mut stamps);
        assert!(!knn_buf.is_empty());
        tree.radius_gather_into(q, 2.0, &mut radius_buf, &mut stamps);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "point queries allocated {} times in 200 query pairs",
        after - before
    );

    // Sanity: the counter itself works — the allocating convenience
    // wrappers must trip it.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let v = tree.knn(Vec3::new(1.0, 1.0, 1.0), K);
    assert_eq!(v.len(), K);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "counting allocator failed to count");
}
