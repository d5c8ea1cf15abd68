//! Point queries over the packed kd-tree: k-nearest-neighbor and
//! radius gather.
//!
//! RTNN (Zhu et al.) recasts neighbor search as ray-tracing traversal on
//! RT cores; this module is the inverse move — the same packed 8-byte
//! nodes, flatten-time leaf-triangle array, and fixed-size machine-stack
//! discipline that serve the ray kernels answer *point* queries, so the
//! online tuner can optimize tree parameters for a second workload with
//! different optimal trees than rays (the per-workload extension of the
//! paper's non-portability thesis).
//!
//! The descent visits the query point's own side of each split first and
//! defers the far side with a squared split-plane distance bound
//! (monotone along the path: a child's bound is the max of its parent's
//! and its own plane offset — the max of two lower bounds on the region
//! distance is itself a lower bound). Deferred subtrees are skipped when
//! their bound cannot beat the current k-th-best (knn) or the search
//! radius (gather). Like ray traversal, the todo-stack lives in a fixed
//! array whenever the depth bound allows — always, for SAH-built trees —
//! and the candidate heap lives in a caller-provided buffer, so a query
//! with a reused buffer performs **zero heap allocations** (pinned by a
//! counting-allocator test).
//!
//! Leaves duplicate primitives that straddle split planes (the price
//! RTNN names for running neighbor search on a ray-tracing structure).
//! Both kernels therefore stamp each primitive they measure in a
//! caller-owned [`PrimStamps`] and skip a primitive already stamped by
//! the same query, so each exact point–triangle distance is computed at
//! most once per query and no result holds a primitive twice.

use crate::traverse::{ArrayStack, TraversalStack, VecStack};
use crate::tree::KdTree;
use kdtune_geometry::{TriangleMesh, Vec3};

/// One neighbor-query result: a primitive and its squared distance to
/// the query point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index of the primitive in the source mesh.
    pub prim: u32,
    /// Squared Euclidean distance from the query point to the closest
    /// point on the primitive.
    pub d2: f32,
}

/// A deferred far-subtree: `(node index, squared lower bound on the
/// distance from the query point to the subtree's region)`. One entry is
/// pushed per inner node on the current root-to-leaf path, so the
/// ray-traversal depth bound and stacks apply unchanged.
type PqEntry = (u32, f32);

/// Query-point coordinates splatted 4-wide so the descent indexes them
/// with a node's raw 2-bit axis tag — same trick as `RayAxes`: no bounds
/// check, no 3-way match. The 4th lane is never selected.
struct PointAxes([f32; 4]);

impl PointAxes {
    #[inline(always)]
    fn new(p: Vec3) -> PointAxes {
        PointAxes([p.x, p.y, p.z, 0.0])
    }
}

/// Per-query visit stamps, one `u32` per mesh primitive: a primitive is
/// measured by the current query iff its stamp equals the current
/// generation. Starting a query bumps the generation instead of clearing
/// the stamps, so one scratch serves a whole batch of queries (over any
/// trees) and only a generation wrap pays for a clear. Grows to the
/// largest mesh it has seen, on first use with it; with that capacity in
/// place, queries do not allocate.
#[derive(Clone, Debug, Default)]
pub struct PrimStamps {
    stamps: Vec<u32>,
    generation: u32,
}

impl PrimStamps {
    /// An empty scratch; sized on first use.
    pub fn new() -> PrimStamps {
        PrimStamps::default()
    }

    /// Starts a query over a mesh of `prims` primitives: no primitive is
    /// stamped afterwards.
    fn begin(&mut self, prims: usize) {
        if self.stamps.len() < prims {
            self.stamps.resize(prims, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Every stamp may equal some old generation: start over.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Stamps `prim`; false if the current query already stamped it.
    #[inline(always)]
    fn first_visit(&mut self, prim: u32) -> bool {
        let stamp = &mut self.stamps[prim as usize];
        let first = *stamp != self.generation;
        *stamp = self.generation;
        first
    }
}

/// Bounded max-heap of the k best candidates so far, living in the
/// caller's buffer. The root (index 0) is the current worst, so a full
/// heap answers "can this candidate or subtree still matter?" in O(1).
struct BoundedHeap<'a> {
    items: &'a mut Vec<Neighbor>,
    k: usize,
}

impl<'a> BoundedHeap<'a> {
    fn new(items: &'a mut Vec<Neighbor>, k: usize) -> BoundedHeap<'a> {
        items.clear();
        items.reserve(k);
        BoundedHeap { items, k }
    }

    /// Current pruning bound: the k-th-best squared distance, or infinity
    /// while fewer than k candidates are held.
    #[inline(always)]
    fn worst(&self) -> f32 {
        if self.items.len() < self.k {
            f32::INFINITY
        } else {
            self.items[0].d2
        }
    }

    /// Offers a candidate; rejects it if it cannot beat the current
    /// worst. Callers offer each primitive at most once per query.
    fn offer(&mut self, cand: Neighbor) {
        if cand.d2 >= self.worst() {
            return;
        }
        if self.items.len() < self.k {
            self.items.push(cand);
            // Sift up.
            let mut i = self.items.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.items[parent].d2 >= self.items[i].d2 {
                    break;
                }
                self.items.swap(parent, i);
                i = parent;
            }
        } else {
            // Replace the root and sift down.
            self.items[0] = cand;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut largest = i;
                if l < self.items.len() && self.items[l].d2 > self.items[largest].d2 {
                    largest = l;
                }
                if r < self.items.len() && self.items[r].d2 > self.items[largest].d2 {
                    largest = r;
                }
                if largest == i {
                    break;
                }
                self.items.swap(i, largest);
                i = largest;
            }
        }
    }
}

/// The knn descent, generic over the stack implementation.
fn knn_impl<S: TraversalStack<PqEntry>>(
    tree: &KdTree,
    p: Vec3,
    k: usize,
    out: &mut Vec<Neighbor>,
    stamps: &mut PrimStamps,
    stack: &mut S,
) {
    let mut heap = BoundedHeap::new(out, k);
    if k == 0 || tree.nodes().is_empty() {
        return;
    }
    stamps.begin(tree.mesh().len());
    let axes = PointAxes::new(p);
    let nodes = tree.nodes();
    let tris = tree.leaf_tris();
    let mut node_idx = 0u32;
    let mut bound = tree.bounds().distance_squared_to_point(p);
    loop {
        if bound < heap.worst() {
            let node = nodes[node_idx as usize];
            if !node.is_leaf() {
                let axis = node.axis_index();
                let off = axes.0[axis] - node.split_pos();
                let plane_d2 = off * off;
                let (near, far) = if off <= 0.0 {
                    (node_idx + 1, node.right_child())
                } else {
                    (node.right_child(), node_idx + 1)
                };
                // The far child's region lies across the plane, so the
                // plane offset is a second lower bound; max keeps the
                // bound monotone down the path.
                stack.push((far, bound.max(plane_d2)));
                node_idx = near;
                continue;
            }
            let first = node.prim_first() as usize;
            let count = node.prim_count() as usize;
            for lt in &tris[first..first + count] {
                if stamps.first_visit(lt.prim) {
                    let d2 = lt.tri.distance_squared(p);
                    heap.offer(Neighbor { prim: lt.prim, d2 });
                }
            }
        }
        match stack.pop() {
            Some((n, b)) => {
                node_idx = n;
                bound = b;
            }
            None => break,
        }
    }
    heap.items.sort_unstable_by(cmp_neighbors);
}

/// The radius-gather descent, generic over the stack implementation.
fn radius_impl<S: TraversalStack<PqEntry>>(
    tree: &KdTree,
    p: Vec3,
    r: f32,
    out: &mut Vec<Neighbor>,
    stamps: &mut PrimStamps,
    stack: &mut S,
) {
    out.clear();
    if r < 0.0 || tree.nodes().is_empty() {
        return;
    }
    let r2 = r * r;
    if tree.bounds().distance_squared_to_point(p) > r2 {
        return;
    }
    stamps.begin(tree.mesh().len());
    let axes = PointAxes::new(p);
    let nodes = tree.nodes();
    let tris = tree.leaf_tris();
    let mut node_idx = 0u32;
    loop {
        let node = nodes[node_idx as usize];
        if !node.is_leaf() {
            let axis = node.axis_index();
            let off = axes.0[axis] - node.split_pos();
            let (near, far) = if off <= 0.0 {
                (node_idx + 1, node.right_child())
            } else {
                (node.right_child(), node_idx + 1)
            };
            // The far side can only contain in-range prims if the plane
            // itself is within the radius.
            if off * off <= r2 {
                stack.push((far, 0.0));
            }
            node_idx = near;
            continue;
        }
        let first = node.prim_first() as usize;
        let count = node.prim_count() as usize;
        for lt in &tris[first..first + count] {
            if stamps.first_visit(lt.prim) {
                let d2 = lt.tri.distance_squared(p);
                if d2 <= r2 {
                    out.push(Neighbor { prim: lt.prim, d2 });
                }
            }
        }
        match stack.pop() {
            Some((n, _)) => node_idx = n,
            None => break,
        }
    }
    // In place: no allocation with enough capacity.
    out.sort_unstable_by_key(|n| n.prim);
}

/// Ascending by distance, primitive id as the deterministic tiebreak.
/// Distances are finite and non-negative (squared lengths of finite
/// points), so `total_cmp` only serves as the strict weak order `sort`
/// demands.
fn cmp_neighbors(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.d2.total_cmp(&b.d2).then(a.prim.cmp(&b.prim))
}

impl KdTree {
    /// The `k` distinct primitives nearest to `p`, ascending by distance
    /// (fewer when the mesh has fewer than `k` primitives). Convenience
    /// wrapper that allocates its result and scratch; hot callers use
    /// [`KdTree::knn_into`] with reused ones.
    pub fn knn(&self, p: Vec3, k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.knn_into(p, k, &mut out, &mut PrimStamps::new());
        out
    }

    /// [`KdTree::knn`] writing into a caller-provided buffer (cleared
    /// first), with a caller-owned scratch that can serve any number of
    /// queries. With `out.capacity() >= k` and a scratch that has seen a
    /// mesh this large, performs zero heap allocations on any tree whose
    /// depth bound fits the fixed stack (all SAH-built trees).
    pub fn knn_into(&self, p: Vec3, k: usize, out: &mut Vec<Neighbor>, stamps: &mut PrimStamps) {
        if self.fits_fixed_stack() {
            knn_impl(self, p, k, out, stamps, &mut ArrayStack::new());
        } else {
            knn_impl(self, p, k, out, stamps, &mut VecStack::new());
        }
    }

    /// All primitives within Euclidean distance `r` of `p` (closed ball:
    /// `distance <= r`, so `r = 0` returns primitives containing `p`),
    /// ascending by primitive id. Convenience wrapper; hot callers use
    /// [`KdTree::radius_gather_into`].
    pub fn radius_gather(&self, p: Vec3, r: f32) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.radius_gather_into(p, r, &mut out, &mut PrimStamps::new());
        out
    }

    /// [`KdTree::radius_gather`] writing into a caller-provided buffer
    /// (cleared first), with a caller-owned scratch as in
    /// [`KdTree::knn_into`]. With enough capacity for the result set,
    /// performs zero heap allocations under the same conditions.
    pub fn radius_gather_into(
        &self,
        p: Vec3,
        r: f32,
        out: &mut Vec<Neighbor>,
        stamps: &mut PrimStamps,
    ) {
        if self.fits_fixed_stack() {
            radius_impl(self, p, r, out, stamps, &mut ArrayStack::new());
        } else {
            radius_impl(self, p, r, out, stamps, &mut VecStack::new());
        }
    }
}

/// O(n·k) reference k-NN: tests every triangle. Ground truth for the
/// equivalence tests and the no-acceleration baseline in `query_bench`.
pub fn brute_force_knn(mesh: &TriangleMesh, p: Vec3, k: usize) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = (0..mesh.len())
        .map(|i| Neighbor {
            prim: i as u32,
            d2: mesh.triangle(i).distance_squared(p),
        })
        .collect();
    all.sort_unstable_by(cmp_neighbors);
    all.truncate(k);
    all
}

/// O(n) reference radius gather: tests every triangle, ascending by
/// primitive id.
pub fn brute_force_radius(mesh: &TriangleMesh, p: Vec3, r: f32) -> Vec<Neighbor> {
    if r < 0.0 {
        return Vec::new();
    }
    let r2 = r * r;
    (0..mesh.len())
        .filter_map(|i| {
            let d2 = mesh.triangle(i).distance_squared(p);
            (d2 <= r2).then_some(Neighbor { prim: i as u32, d2 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, Algorithm, BuildParams};
    use kdtune_geometry::Triangle;
    use std::sync::Arc;

    fn grid_mesh(n: usize) -> Arc<TriangleMesh> {
        let mut mesh = TriangleMesh::new();
        for i in 0..n {
            let x = (i % 8) as f32;
            let y = (i / 8) as f32;
            let z = (i % 5) as f32 * 0.7;
            mesh.push_triangle(Triangle::new(
                Vec3::new(x, y, z),
                Vec3::new(x + 0.8, y, z),
                Vec3::new(x, y + 0.8, z),
            ));
        }
        Arc::new(mesh)
    }

    fn eager(mesh: &Arc<TriangleMesh>) -> KdTree {
        build(mesh.clone(), Algorithm::Nested, &BuildParams::default())
            .as_eager()
            .unwrap()
            .clone()
    }

    #[test]
    fn knn_matches_brute_force_on_grid() {
        let mesh = grid_mesh(64);
        let tree = eager(&mesh);
        for (qi, q) in [
            Vec3::new(3.5, 3.5, 1.0),
            Vec3::new(-2.0, 0.0, 0.0),
            Vec3::new(10.0, 10.0, 5.0),
            Vec3::new(0.1, 0.1, 0.0),
        ]
        .iter()
        .enumerate()
        {
            for k in [1, 3, 7, 64, 100] {
                let got = tree.knn(*q, k);
                let expect = brute_force_knn(&mesh, *q, k);
                assert_eq!(got.len(), expect.len(), "query {qi} k {k}");
                for (g, e) in got.iter().zip(&expect) {
                    assert!(
                        (g.d2 - e.d2).abs() <= 1e-4 * (1.0 + e.d2),
                        "query {qi} k {k}: {g:?} vs {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn knn_results_are_distinct_and_sorted() {
        let mesh = grid_mesh(64);
        let tree = eager(&mesh);
        let got = tree.knn(Vec3::new(3.0, 3.0, 0.5), 16);
        assert_eq!(got.len(), 16);
        for w in got.windows(2) {
            assert!(w[0].d2 <= w[1].d2);
        }
        let mut prims: Vec<u32> = got.iter().map(|n| n.prim).collect();
        prims.sort_unstable();
        prims.dedup();
        assert_eq!(prims.len(), 16, "duplicate prims in knn result");
    }

    #[test]
    fn radius_gather_matches_brute_force_on_grid() {
        let mesh = grid_mesh(64);
        let tree = eager(&mesh);
        for q in [Vec3::new(3.5, 3.5, 1.0), Vec3::new(-1.0, -1.0, 0.0)] {
            for r in [0.0, 0.5, 2.0, 100.0] {
                let got = tree.radius_gather(q, r);
                let expect = brute_force_radius(&mesh, q, r);
                assert_eq!(
                    got.iter().map(|n| n.prim).collect::<Vec<_>>(),
                    expect.iter().map(|n| n.prim).collect::<Vec<_>>(),
                    "query {q:?} r {r}"
                );
            }
        }
    }

    #[test]
    fn radius_zero_on_surface_point_finds_containing_prim() {
        let mesh = grid_mesh(8);
        let tree = eager(&mesh);
        // (0.1, 0.1, 0) lies on triangle 0's surface.
        let got = tree.radius_gather(Vec3::new(0.1, 0.1, 0.0), 0.0);
        assert!(got.iter().any(|n| n.prim == 0 && n.d2 == 0.0));
        // A point off every triangle finds nothing at r = 0.
        assert!(tree
            .radius_gather(Vec3::new(0.5, 0.5, 10.0), 0.0)
            .is_empty());
        // Negative radius is empty, not NaN-poisoned.
        assert!(tree.radius_gather(Vec3::ZERO, -1.0).is_empty());
    }

    #[test]
    fn k_zero_and_empty_reuse_buffer() {
        let mesh = grid_mesh(16);
        let tree = eager(&mesh);
        let mut buf = vec![Neighbor { prim: 99, d2: 0.0 }; 4];
        let mut stamps = PrimStamps::new();
        tree.knn_into(Vec3::ZERO, 0, &mut buf, &mut stamps);
        assert!(buf.is_empty());
        tree.knn_into(Vec3::ZERO, 2, &mut buf, &mut stamps);
        assert_eq!(buf.len(), 2);
    }

    /// A scratch whose generation wraps must not mistake a stamp from
    /// before the wrap for one of the current query. A first query near
    /// `a` stamps its prims with generation 1; the generation is then
    /// moved to `u32::MAX - 1`, a query near `b` (far from `a`) runs at
    /// `u32::MAX`, and the queries near `a` after it run at 1 and 2 again.
    /// Each must match a fresh scratch to the bit.
    #[test]
    fn stamp_generation_wraps_without_stale_stamps() {
        let mesh = grid_mesh(64);
        let tree = eager(&mesh);
        let (a, b) = (Vec3::new(0.5, 0.5, 0.0), Vec3::new(7.0, 7.0, 2.0));
        let mut stamps = PrimStamps::new();
        let mut out = Vec::new();
        tree.knn_into(a, 5, &mut out, &mut stamps);
        assert_eq!(stamps.generation, 1);
        assert_eq!(out, tree.knn(a, 5));
        stamps.generation = u32::MAX - 1;
        tree.knn_into(b, 5, &mut out, &mut stamps);
        assert_eq!(stamps.generation, u32::MAX);
        assert_eq!(out, tree.knn(b, 5));
        tree.knn_into(a, 5, &mut out, &mut stamps);
        assert_eq!(stamps.generation, 1);
        assert_eq!(out, tree.knn(a, 5), "knn across the wrap");
        tree.radius_gather_into(a, 1.5, &mut out, &mut stamps);
        assert_eq!(stamps.generation, 2);
        assert_eq!(out, tree.radius_gather(a, 1.5), "gather after the wrap");
    }

    /// Force the Vec-stack fallback with a manually over-deepened tree
    /// and check both kernels still agree with brute force.
    #[test]
    fn deep_tree_falls_back_and_agrees() {
        let mut mesh = TriangleMesh::new();
        for i in 0..32 {
            let x = i as f32;
            mesh.push_triangle(Triangle::new(
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 0.8, 0.0, 0.0),
                Vec3::new(x, 1.0, 0.0),
            ));
        }
        let mesh = Arc::new(mesh);
        // A 100-deep spine of tiny slabs below the mesh, all of it in
        // the bottom leaf.
        let slab = |d: u32| -1.0 - (99 - d) as f32 * 1e-3;
        let all: Vec<u32> = (0..32).collect();
        let tree =
            crate::tree::right_spine(mesh.clone(), 100, kdtune_geometry::Axis::Y, slab, &all);
        assert!(tree.traversal_depth_bound() as usize > crate::FIXED_TRAVERSAL_STACK);
        let q = Vec3::new(7.3, 0.4, 2.0);
        let got = tree.knn(q, 5);
        let expect = brute_force_knn(&mesh, q, 5);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.d2 - e.d2).abs() <= 1e-4 * (1.0 + e.d2));
        }
        assert_eq!(
            tree.radius_gather(q, 3.0)
                .iter()
                .map(|n| n.prim)
                .collect::<Vec<_>>(),
            brute_force_radius(&mesh, q, 3.0)
                .iter()
                .map(|n| n.prim)
                .collect::<Vec<_>>()
        );
    }
}
