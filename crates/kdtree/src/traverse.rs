//! Ray traversal of the flattened tree (stack-based near-to-far, after
//! Ericson, *Real-Time Collision Detection*, pp. 319–321).
//!
//! The hot loop reads [`PackedNode`]s — one two-bit branch per step, no
//! enum discriminant — and keeps its todo-stack in a fixed array on the
//! machine stack whenever the tree's depth bound allows (always, for
//! SAH-built trees: the builder caps depth at `8 + 1.3·log2(n)` ≈ 47 for
//! a billion primitives). Trees deeper than [`FIXED_TRAVERSAL_STACK`]
//! (only constructible with a manual `max_depth` override) fall back to a
//! heap-allocated stack; `*_alloc` variants force that fallback and serve
//! as the reference implementation in equivalence tests and benches.

use crate::tree::KdTree;
use kdtune_geometry::{Hit, Ray, TriangleMesh};

/// Tolerance added when deciding whether a hit found in a leaf terminates
/// the traversal: hits exactly on a leaf boundary must not be discarded.
pub(crate) const T_EPS: f32 = 1e-4;

/// Capacity of the fixed traversal stack. One entry is pushed per inner
/// node on the current root-to-leaf path, so any tree with
/// `traversal_depth_bound() <= FIXED_TRAVERSAL_STACK` traverses without
/// touching the heap.
pub const FIXED_TRAVERSAL_STACK: usize = 64;

/// A deferred-subtree entry: `(node index, t_enter, t_exit)`.
pub(crate) type StackEntry = (u32, f32, f32);

/// The todo-stack abstraction the traversal loops are generic over; lets
/// the same loop body run allocation-free (fixed array) or unbounded
/// (`Vec` fallback) without duplicating the traversal logic.
pub(crate) trait TraversalStack {
    fn push(&mut self, entry: StackEntry);
    fn pop(&mut self) -> Option<StackEntry>;
}

/// Fixed-capacity stack living on the machine stack — zero heap traffic.
/// Pushing past capacity panics via the slice bounds check, which the
/// depth-bound dispatch in the public wrappers makes unreachable.
pub(crate) struct ArrayStack {
    entries: [StackEntry; FIXED_TRAVERSAL_STACK],
    len: usize,
}

impl ArrayStack {
    #[inline(always)]
    pub(crate) fn new() -> ArrayStack {
        ArrayStack {
            entries: [(0, 0.0, 0.0); FIXED_TRAVERSAL_STACK],
            len: 0,
        }
    }

    /// Empties the stack so it can be reused without re-zeroing the
    /// whole entry array (construction memsets ~768 bytes; resume paths
    /// run many short traversals back to back).
    #[inline(always)]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }
}

impl TraversalStack for ArrayStack {
    #[inline(always)]
    fn push(&mut self, entry: StackEntry) {
        self.entries[self.len] = entry;
        self.len += 1;
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<StackEntry> {
        if self.len == 0 {
            None
        } else {
            self.len -= 1;
            Some(self.entries[self.len])
        }
    }
}

/// Growable fallback stack for trees deeper than the fixed capacity.
pub(crate) struct VecStack(Vec<StackEntry>);

impl VecStack {
    #[inline]
    pub(crate) fn new() -> VecStack {
        VecStack(Vec::with_capacity(FIXED_TRAVERSAL_STACK))
    }
}

impl TraversalStack for VecStack {
    #[inline]
    fn push(&mut self, entry: StackEntry) {
        self.0.push(entry);
    }

    #[inline]
    fn pop(&mut self) -> Option<StackEntry> {
        self.0.pop()
    }
}

/// Per-axis ray components splatted into 4-wide arrays so the inner loop
/// can index them with a node's raw 2-bit axis tag. `tag & 3 < 4` is
/// statically true, so these reads compile to a single indexed load —
/// no bounds check and, unlike `Vec3: Index<Axis>`, no data-dependent
/// 3-way match per component. The 4th lane is never selected (axis tag
/// 3 is the leaf tag) and stays zero.
struct RayAxes {
    origin: [f32; 4],
    dir: [f32; 4],
    inv_dir: [f32; 4],
}

impl RayAxes {
    #[inline(always)]
    fn new(ray: &Ray) -> RayAxes {
        RayAxes {
            origin: [ray.origin.x, ray.origin.y, ray.origin.z, 0.0],
            dir: [ray.dir.x, ray.dir.y, ray.dir.z, 0.0],
            inv_dir: [ray.inv_dir.x, ray.inv_dir.y, ray.inv_dir.z, 0.0],
        }
    }
}

/// Nearest-hit traversal, generic over the stack implementation.
fn intersect_impl<S: TraversalStack>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    stack: &mut S,
) -> Option<Hit> {
    let (t0, t1) = tree.bounds().intersect_ray(ray, t_min, t_max)?;
    intersect_core(tree, ray, t_min, 0, t0, t1, stack, None, t_max).0
}

/// Resumable nearest-hit traversal loop: starts at `node_idx` with the
/// parametric interval `(t0, t1)` and a prior `best`/`t_best`, exactly as
/// if a running scalar traversal were continued from that state. The
/// second return value is `true` when the loop left via the
/// found-hit-in-range early exit (the scalar `return best`) — callers
/// resuming a suspended traversal must then *not* process any deferred
/// subtrees — and `false` when the stack ran dry.
///
/// The packet traversal uses this to hand incoherent lanes back to the
/// scalar path mid-flight with bit-identical results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn intersect_core<S: TraversalStack>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    node_idx: u32,
    t0: f32,
    t1: f32,
    stack: &mut S,
    best: Option<Hit>,
    t_best: f32,
) -> (Option<Hit>, bool) {
    let axes = RayAxes::new(ray);
    let mut node_idx = node_idx;
    let (mut t0, mut t1) = (t0, t1);
    let mut best = best;
    let mut t_best = t_best;
    let nodes = tree.nodes();
    let tris = tree.leaf_tris();
    loop {
        let node = nodes[node_idx as usize];
        if !node.is_leaf() {
            let axis = node.axis_index();
            let pos = node.split_pos();
            let o = axes.origin[axis];
            let d = axes.dir[axis];
            let t_plane = (pos - o) * axes.inv_dir[axis];
            // Which child contains the ray origin side of the plane?
            let below_first = o < pos || (o == pos && d <= 0.0);
            let (first, second) = if below_first {
                (node_idx + 1, node.right_child())
            } else {
                (node.right_child(), node_idx + 1)
            };
            // NaN t_plane (origin on plane, parallel ray) fails both
            // comparisons and conservatively visits both children.
            if t_plane > t1 || t_plane <= 0.0 {
                node_idx = first;
            } else if t_plane < t0 {
                node_idx = second;
            } else {
                stack.push((second, t_plane, t1));
                node_idx = first;
                t1 = t_plane;
            }
        } else {
            let first = node.prim_first() as usize;
            let count = node.prim_count() as usize;
            for lt in &tris[first..first + count] {
                if let Some(mut hit) = lt.tri.intersect(ray, t_min, t_best) {
                    hit.prim = lt.prim as usize;
                    t_best = hit.t;
                    best = Some(hit);
                }
            }
            // Early exit: a hit inside this leaf's parametric range
            // cannot be beaten by farther leaves.
            if best.is_some_and(|h| h.t <= t1 + T_EPS) {
                return (best, true);
            }
            loop {
                match stack.pop() {
                    Some((n, s0, s1)) => {
                        if s0 > t_best {
                            // All remaining nodes start beyond the best
                            // hit (stack is near-to-far per path but not
                            // globally sorted; keep popping).
                            continue;
                        }
                        node_idx = n;
                        t0 = s0;
                        t1 = s1;
                    }
                    None => return (best, false),
                }
                break;
            }
        }
    }
}

/// Any-hit traversal, generic over the stack implementation.
fn intersect_any_impl<S: TraversalStack>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    stack: &mut S,
) -> bool {
    let Some((t0, t1)) = tree.bounds().intersect_ray(ray, t_min, t_max) else {
        return false;
    };
    intersect_any_core(tree, ray, t_min, t_max, 0, t0, t1, stack)
}

/// Resumable any-hit traversal loop — the any-hit analogue of
/// [`intersect_core`]: starts at `node_idx` with interval `(t0, t1)` and
/// returns whether anything in that subtree (plus whatever it defers onto
/// `stack`) occludes the ray. `t_max` is the leaf-test upper bound, which
/// any-hit does not shrink.
#[allow(clippy::too_many_arguments)]
pub(crate) fn intersect_any_core<S: TraversalStack>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    node_idx: u32,
    t0: f32,
    t1: f32,
    stack: &mut S,
) -> bool {
    let axes = RayAxes::new(ray);
    let mut node_idx = node_idx;
    let (mut t0, mut t1) = (t0, t1);
    let nodes = tree.nodes();
    let tris = tree.leaf_tris();
    loop {
        let node = nodes[node_idx as usize];
        if !node.is_leaf() {
            let axis = node.axis_index();
            let pos = node.split_pos();
            let o = axes.origin[axis];
            let d = axes.dir[axis];
            let t_plane = (pos - o) * axes.inv_dir[axis];
            let below_first = o < pos || (o == pos && d <= 0.0);
            let (first, second) = if below_first {
                (node_idx + 1, node.right_child())
            } else {
                (node.right_child(), node_idx + 1)
            };
            if t_plane > t1 || t_plane <= 0.0 {
                node_idx = first;
            } else if t_plane < t0 {
                node_idx = second;
            } else {
                stack.push((second, t_plane, t1));
                node_idx = first;
                t1 = t_plane;
            }
        } else {
            let first = node.prim_first() as usize;
            let count = node.prim_count() as usize;
            for lt in &tris[first..first + count] {
                if lt.tri.intersect(ray, t_min, t_max).is_some() {
                    return true;
                }
            }
            match stack.pop() {
                Some((n, s0, s1)) => {
                    node_idx = n;
                    t0 = s0;
                    t1 = s1;
                }
                None => return false,
            }
        }
    }
}

/// Counted nearest-hit traversal, generic over the stack implementation.
fn intersect_counted_impl<S: TraversalStack>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    stack: &mut S,
) -> (Option<Hit>, TraversalCounters) {
    let mut counters = TraversalCounters::default();
    let Some((mut t0, mut t1)) = tree.bounds().intersect_ray(ray, t_min, t_max) else {
        return (None, counters);
    };
    let axes = RayAxes::new(ray);
    let mut node_idx = 0u32;
    let mut best: Option<Hit> = None;
    let mut t_best = t_max;
    let nodes = tree.nodes();
    let tris = tree.leaf_tris();
    loop {
        let node = nodes[node_idx as usize];
        if !node.is_leaf() {
            counters.inner_visited += 1;
            let axis = node.axis_index();
            let pos = node.split_pos();
            let o = axes.origin[axis];
            let d = axes.dir[axis];
            let t_plane = (pos - o) * axes.inv_dir[axis];
            let below_first = o < pos || (o == pos && d <= 0.0);
            let (first, second) = if below_first {
                (node_idx + 1, node.right_child())
            } else {
                (node.right_child(), node_idx + 1)
            };
            if t_plane > t1 || t_plane <= 0.0 {
                node_idx = first;
            } else if t_plane < t0 {
                node_idx = second;
            } else {
                stack.push((second, t_plane, t1));
                node_idx = first;
                t1 = t_plane;
            }
        } else {
            counters.leaves_visited += 1;
            let first = node.prim_first() as usize;
            let count = node.prim_count() as usize;
            for lt in &tris[first..first + count] {
                counters.tris_tested += 1;
                if let Some(mut hit) = lt.tri.intersect(ray, t_min, t_best) {
                    hit.prim = lt.prim as usize;
                    t_best = hit.t;
                    best = Some(hit);
                }
            }
            if best.is_some_and(|h| h.t <= t1 + T_EPS) {
                return (best, counters);
            }
            loop {
                match stack.pop() {
                    Some((n, s0, s1)) => {
                        if s0 > t_best {
                            continue;
                        }
                        node_idx = n;
                        t0 = s0;
                        t1 = s1;
                    }
                    None => return (best, counters),
                }
                break;
            }
        }
    }
}

impl KdTree {
    /// True if this tree's depth bound fits the fixed traversal stack, so
    /// queries run without heap allocation.
    #[inline(always)]
    pub(crate) fn fits_fixed_stack(&self) -> bool {
        self.traversal_depth_bound() as usize <= FIXED_TRAVERSAL_STACK
    }

    /// Nearest intersection of `ray` with the mesh in `(t_min, t_max)`.
    ///
    /// With the `traversal-counters` feature enabled, every call also
    /// accumulates its work counters into [`global_counters`] (two relaxed
    /// atomic adds per ray); without it the untimed fast path below runs.
    #[cfg(feature = "traversal-counters")]
    pub fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        let (hit, counters) = self.intersect_counted(ray, t_min, t_max);
        global_counters::accumulate(counters);
        hit
    }

    /// Nearest intersection of `ray` with the mesh in `(t_min, t_max)`.
    ///
    /// Allocation-free on any tree whose depth bound fits the fixed stack
    /// (all SAH-built trees); deeper trees use a heap-stack fallback.
    #[cfg(not(feature = "traversal-counters"))]
    pub fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        if self.fits_fixed_stack() {
            intersect_impl(self, ray, t_min, t_max, &mut ArrayStack::new())
        } else {
            intersect_impl(self, ray, t_min, t_max, &mut VecStack::new())
        }
    }

    /// True if anything blocks the ray in `(t_min, t_max)` — the shadow-ray
    /// query. Stops at the first hit found, in any order. Allocation-free
    /// under the same depth bound as [`KdTree::intersect`].
    pub fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        if self.fits_fixed_stack() {
            intersect_any_impl(self, ray, t_min, t_max, &mut ArrayStack::new())
        } else {
            intersect_any_impl(self, ray, t_min, t_max, &mut VecStack::new())
        }
    }

    /// [`KdTree::intersect`] with work counters — used by the analysis
    /// tooling to correlate predicted SAH cost with actual traversal work.
    pub fn intersect_counted(
        &self,
        ray: &Ray,
        t_min: f32,
        t_max: f32,
    ) -> (Option<Hit>, TraversalCounters) {
        if self.fits_fixed_stack() {
            intersect_counted_impl(self, ray, t_min, t_max, &mut ArrayStack::new())
        } else {
            intersect_counted_impl(self, ray, t_min, t_max, &mut VecStack::new())
        }
    }
}

/// Work counters collected by [`KdTree::intersect_counted`] — the
/// quantities the SAH cost model estimates (`CT`-weighted node visits and
/// `CI`-weighted triangle tests), measurable per ray.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalCounters {
    /// Inner nodes visited.
    pub inner_visited: u64,
    /// Leaves visited.
    pub leaves_visited: u64,
    /// Ray/triangle tests executed.
    pub tris_tested: u64,
}

impl TraversalCounters {
    /// Element-wise sum.
    pub fn merge(self, o: TraversalCounters) -> TraversalCounters {
        TraversalCounters {
            inner_visited: self.inner_visited + o.inner_visited,
            leaves_visited: self.leaves_visited + o.leaves_visited,
            tris_tested: self.tris_tested + o.tris_tested,
        }
    }

    /// The measured analogue of the SAH cost for this traversal:
    /// `CT · nodes + CI · triangle tests`.
    pub fn weighted_cost(&self, ct: f32, ci: f32) -> f64 {
        ct as f64 * (self.inner_visited + self.leaves_visited) as f64
            + ci as f64 * self.tris_tested as f64
    }
}

/// Process-global traversal work totals, compiled in by the
/// `traversal-counters` feature.
///
/// Accumulation uses relaxed atomics — totals are exact because each add
/// is atomic, but there is no ordering relation to any other memory; read
/// them only at quiescent points (between frames, after a render).
#[cfg(feature = "traversal-counters")]
pub mod global_counters {
    use super::TraversalCounters;
    use std::sync::atomic::{AtomicU64, Ordering};

    static INNER: AtomicU64 = AtomicU64::new(0);
    static LEAVES: AtomicU64 = AtomicU64::new(0);
    static TRIS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn accumulate(c: TraversalCounters) {
        INNER.fetch_add(c.inner_visited, Ordering::Relaxed);
        LEAVES.fetch_add(c.leaves_visited, Ordering::Relaxed);
        TRIS.fetch_add(c.tris_tested, Ordering::Relaxed);
    }

    /// Totals accumulated since process start (or the last [`take`]).
    pub fn snapshot() -> TraversalCounters {
        TraversalCounters {
            inner_visited: INNER.load(Ordering::Relaxed),
            leaves_visited: LEAVES.load(Ordering::Relaxed),
            tris_tested: TRIS.load(Ordering::Relaxed),
        }
    }

    /// Resets the totals to zero and returns what they were.
    pub fn take() -> TraversalCounters {
        TraversalCounters {
            inner_visited: INNER.swap(0, Ordering::Relaxed),
            leaves_visited: LEAVES.swap(0, Ordering::Relaxed),
            tris_tested: TRIS.swap(0, Ordering::Relaxed),
        }
    }
}

/// O(n) reference intersection: tests every triangle. The ground truth for
/// traversal tests; also used by benches as the "no acceleration" baseline.
pub fn brute_force_intersect(
    mesh: &TriangleMesh,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
) -> Option<Hit> {
    let mut best: Option<Hit> = None;
    let mut t_best = t_max;
    for i in 0..mesh.len() {
        if let Some(mut hit) = mesh.triangle(i).intersect(ray, t_min, t_best) {
            hit.prim = i;
            t_best = hit.t;
            best = Some(hit);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_geometry::{Triangle, Vec3};
    use std::sync::Arc;

    /// A grid of triangles plus a deep max_depth override cannot exceed
    /// the fixed stack here, so force the fallback with a manual deep
    /// build and check it agrees with brute force.
    #[test]
    fn deep_tree_falls_back_and_agrees_with_brute_force() {
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
        // A 100-deep spine via the build-node API: alternate tiny slabs.
        let mut node = crate::tree::BuildNode::Leaf((0..32).collect());
        for d in 0..100 {
            node = crate::tree::BuildNode::Inner {
                axis: kdtune_geometry::Axis::Y,
                pos: -1.0 - d as f32 * 1e-3,
                left: Box::new(crate::tree::BuildNode::Leaf(Vec::new())),
                right: Box::new(node),
            };
        }
        let bounds = mesh.bounds();
        let tree = KdTree::from_build(mesh.clone(), bounds, node);
        assert!(tree.traversal_depth_bound() as usize > FIXED_TRAVERSAL_STACK);
        for i in 0..32 {
            let ray = Ray::new(
                Vec3::new(i as f32 + 0.2, 0.25, -5.0),
                Vec3::new(0.0, 0.0, 1.0),
            );
            let expect = brute_force_intersect(&mesh, &ray, 0.0, f32::INFINITY);
            let got = tree.intersect(&ray, 0.0, f32::INFINITY);
            assert_eq!(got.map(|h| h.prim), expect.map(|h| h.prim));
            assert_eq!(
                tree.intersect_any(&ray, 0.0, f32::INFINITY),
                expect.is_some()
            );
        }
    }
}
