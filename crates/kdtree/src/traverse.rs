//! Ray traversal of the flattened tree (stack-based near-to-far, after
//! Ericson, *Real-Time Collision Detection*, pp. 319–321).
//!
//! The two loops here — nearest hit and any hit — are the only scalar
//! traversal in the crate. They read [`PackedNode`]s (one two-bit branch
//! per step, no enum discriminant) and leave the leaves to a [`LeafTest`]:
//! eager queries test the gathered triangles ([`Gathered`]), counted
//! queries count around that ([`TraversalCounters`]), and the lazy tree
//! expands deferred leaves (`crate::lazy_tree`). The todo-stack lives in
//! a fixed array on the machine stack whenever the tree's depth bound
//! allows (always, for SAH-built trees: the builder caps depth at
//! `8 + 1.3·log2(n)` ≈ 47 for a billion primitives). Trees deeper than
//! [`FIXED_TRAVERSAL_STACK`] (only constructible with a manual
//! `max_depth` override) fall back to a heap-allocated stack.

use crate::tree::{KdTree, PackedNode};
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

/// The todo-stack abstraction the descent loops are generic over; lets
/// the same loop body run allocation-free (fixed array) or unbounded
/// (`Vec` fallback) without duplicating the traversal logic. Ray
/// traversal stacks [`StackEntry`]s, the point queries `(node, bound)`.
pub(crate) trait TraversalStack<E> {
    fn push(&mut self, entry: E);
    fn pop(&mut self) -> Option<E>;
}

/// Fixed-capacity stack living on the machine stack — zero heap traffic.
/// Pushing past capacity panics via the slice bounds check, which the
/// depth-bound dispatch in the public wrappers makes unreachable.
pub(crate) struct ArrayStack<E> {
    entries: [E; FIXED_TRAVERSAL_STACK],
    len: usize,
}

impl<E: Copy + Default> ArrayStack<E> {
    #[inline(always)]
    pub(crate) fn new() -> ArrayStack<E> {
        ArrayStack {
            entries: [E::default(); FIXED_TRAVERSAL_STACK],
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

impl<E: Copy> TraversalStack<E> for ArrayStack<E> {
    #[inline(always)]
    fn push(&mut self, entry: E) {
        self.entries[self.len] = entry;
        self.len += 1;
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<E> {
        if self.len == 0 {
            None
        } else {
            self.len -= 1;
            Some(self.entries[self.len])
        }
    }
}

/// Growable fallback stack for trees deeper than the fixed capacity.
pub(crate) struct VecStack<E>(Vec<E>);

impl<E> VecStack<E> {
    #[inline]
    pub(crate) fn new() -> VecStack<E> {
        VecStack(Vec::with_capacity(FIXED_TRAVERSAL_STACK))
    }
}

impl<E> TraversalStack<E> for VecStack<E> {
    #[inline]
    fn push(&mut self, entry: E) {
        self.0.push(entry);
    }

    #[inline]
    fn pop(&mut self) -> Option<E> {
        self.0.pop()
    }
}

/// What a traversal loop does at the leaves it reaches, and at the inner
/// nodes it steps through (a no-op unless work is being counted).
pub(crate) trait LeafTest {
    /// Called once per inner node the loop steps through.
    #[inline(always)]
    fn inner(&mut self) {}

    /// The nearest hit among `leaf`'s primitives in `(t_min, t_best)`.
    fn nearest(
        &mut self,
        tree: &KdTree,
        leaf: PackedNode,
        ray: &Ray,
        t_min: f32,
        t_best: f32,
    ) -> Option<Hit>;

    /// Whether any of `leaf`'s primitives blocks the ray in
    /// `(t_min, t_max)`.
    fn any(&mut self, tree: &KdTree, leaf: PackedNode, ray: &Ray, t_min: f32, t_max: f32) -> bool;
}

/// The plain leaf test: the leaf's gathered triangles, in leaf order (the
/// order decides equal-`t` hits).
pub(crate) struct Gathered;

impl LeafTest for Gathered {
    #[inline(always)]
    fn nearest(
        &mut self,
        tree: &KdTree,
        leaf: PackedNode,
        ray: &Ray,
        t_min: f32,
        mut t_best: f32,
    ) -> Option<Hit> {
        let first = leaf.prim_first() as usize;
        let mut best = None;
        for lt in &tree.leaf_tris()[first..first + leaf.prim_count() as usize] {
            if let Some(mut hit) = lt.tri.intersect(ray, t_min, t_best) {
                hit.prim = lt.prim as usize;
                t_best = hit.t;
                best = Some(hit);
            }
        }
        best
    }

    #[inline(always)]
    fn any(&mut self, tree: &KdTree, leaf: PackedNode, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        let first = leaf.prim_first() as usize;
        tree.leaf_tris()[first..first + leaf.prim_count() as usize]
            .iter()
            .any(|lt| lt.tri.intersect(ray, t_min, t_max).is_some())
    }
}

/// Counted traversal: the plain leaf test, with every node visit and
/// triangle test tallied.
impl LeafTest for &mut TraversalCounters {
    #[inline(always)]
    fn inner(&mut self) {
        self.inner_visited += 1;
    }

    #[inline(always)]
    fn nearest(
        &mut self,
        tree: &KdTree,
        leaf: PackedNode,
        ray: &Ray,
        t_min: f32,
        t_best: f32,
    ) -> Option<Hit> {
        self.leaves_visited += 1;
        self.tris_tested += u64::from(leaf.prim_count());
        Gathered.nearest(tree, leaf, ray, t_min, t_best)
    }

    #[inline(always)]
    fn any(&mut self, tree: &KdTree, leaf: PackedNode, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        self.leaves_visited += 1;
        let first = leaf.prim_first() as usize;
        for lt in &tree.leaf_tris()[first..first + leaf.prim_count() as usize] {
            self.tris_tested += 1;
            if lt.tri.intersect(ray, t_min, t_max).is_some() {
                return true;
            }
        }
        false
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

/// Nearest intersection of `ray` with `tree` in `(t_min, t_max)`, leaves
/// tested by `leaves`; allocation-free whenever the tree's depth bound
/// fits the fixed stack.
pub(crate) fn nearest(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    mut leaves: impl LeafTest,
) -> Option<Hit> {
    if tree.fits_fixed_stack() {
        nearest_on(tree, ray, t_min, t_max, &mut ArrayStack::new(), &mut leaves)
    } else {
        nearest_on(tree, ray, t_min, t_max, &mut VecStack::new(), &mut leaves)
    }
}

/// [`nearest`] on a given stack. One function per stack, as for [`any`]:
/// with both stacks' loops inlined into one, scalar renders ran ~4% slower.
fn nearest_on<S: TraversalStack<StackEntry>, L: LeafTest>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    stack: &mut S,
    leaves: &mut L,
) -> Option<Hit> {
    let (t0, t1) = tree.bounds().intersect_ray(ray, t_min, t_max)?;
    intersect_core(tree, ray, t_min, 0, t0, t1, stack, None, t_max, leaves).0
}

/// Whether anything blocks `ray` in `(t_min, t_max)`, leaves tested by
/// `leaves`; allocation-free under the same depth bound as [`nearest`].
pub(crate) fn any(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    mut leaves: impl LeafTest,
) -> bool {
    if tree.fits_fixed_stack() {
        any_on(tree, ray, t_min, t_max, &mut ArrayStack::new(), &mut leaves)
    } else {
        any_on(tree, ray, t_min, t_max, &mut VecStack::new(), &mut leaves)
    }
}

/// [`any`] on a given stack.
fn any_on<S: TraversalStack<StackEntry>, L: LeafTest>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    stack: &mut S,
    leaves: &mut L,
) -> bool {
    let Some((t0, t1)) = tree.bounds().intersect_ray(ray, t_min, t_max) else {
        return false;
    };
    intersect_any_core(tree, ray, t_min, t_max, 0, t0, t1, stack, leaves)
}

/// The nearest-hit loop, resumable: starts at `node_idx` with the
/// parametric interval `(t0, t1)` and a prior `best`/`t_best`, exactly as
/// if a running traversal were continued from that state. The second
/// return value is `true` when the loop left via the found-hit-in-range
/// early exit — callers resuming a suspended traversal must then *not*
/// process any deferred subtrees — and `false` when the stack ran dry.
///
/// The packet traversal uses this to hand incoherent lanes back to the
/// scalar path mid-flight with bit-identical results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn intersect_core<S: TraversalStack<StackEntry>, L: LeafTest>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    node_idx: u32,
    t0: f32,
    t1: f32,
    stack: &mut S,
    best: Option<Hit>,
    t_best: f32,
    leaves: &mut L,
) -> (Option<Hit>, bool) {
    let axes = RayAxes::new(ray);
    let mut node_idx = node_idx;
    let (mut t0, mut t1) = (t0, t1);
    let mut best = best;
    let mut t_best = t_best;
    let nodes = tree.nodes();
    loop {
        let node = nodes[node_idx as usize];
        if !node.is_leaf() {
            leaves.inner();
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
            if let Some(hit) = leaves.nearest(tree, node, ray, t_min, t_best) {
                t_best = hit.t;
                best = Some(hit);
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

/// The any-hit loop, resumable — the any-hit analogue of
/// [`intersect_core`]: starts at `node_idx` with interval `(t0, t1)` and
/// returns whether anything in that subtree (plus whatever it defers onto
/// `stack`) occludes the ray. `t_max` is the leaf-test upper bound, which
/// any-hit does not shrink.
#[allow(clippy::too_many_arguments)]
pub(crate) fn intersect_any_core<S: TraversalStack<StackEntry>, L: LeafTest>(
    tree: &KdTree,
    ray: &Ray,
    t_min: f32,
    t_max: f32,
    node_idx: u32,
    t0: f32,
    t1: f32,
    stack: &mut S,
    leaves: &mut L,
) -> bool {
    let axes = RayAxes::new(ray);
    let mut node_idx = node_idx;
    let (mut t0, mut t1) = (t0, t1);
    let nodes = tree.nodes();
    loop {
        let node = nodes[node_idx as usize];
        if !node.is_leaf() {
            leaves.inner();
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
            if leaves.any(tree, node, ray, t_min, t_max) {
                return true;
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

impl KdTree {
    /// True if this tree's depth bound fits the fixed traversal stack, so
    /// queries run without heap allocation.
    #[inline(always)]
    pub(crate) fn fits_fixed_stack(&self) -> bool {
        self.traversal_depth_bound() as usize <= FIXED_TRAVERSAL_STACK
    }

    /// Nearest intersection of `ray` with the mesh in `(t_min, t_max)`.
    ///
    /// Allocation-free on any tree whose depth bound fits the fixed stack
    /// (all SAH-built trees); deeper trees use a heap-stack fallback.
    pub fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        nearest(self, ray, t_min, t_max, Gathered)
    }

    /// True if anything blocks the ray in `(t_min, t_max)` — the shadow-ray
    /// query. Stops at the first hit found, in any order. Allocation-free
    /// under the same depth bound as [`KdTree::intersect`].
    pub fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        any(self, ray, t_min, t_max, Gathered)
    }

    /// [`KdTree::intersect`] with work counters — used by the analysis
    /// tooling to correlate predicted SAH cost with actual traversal work.
    pub fn intersect_counted(
        &self,
        ray: &Ray,
        t_min: f32,
        t_max: f32,
    ) -> (Option<Hit>, TraversalCounters) {
        let mut counters = TraversalCounters::default();
        let hit = nearest(self, ray, t_min, t_max, &mut counters);
        (hit, counters)
    }

    /// [`KdTree::intersect_any`] with work counters (triangle tests stop
    /// at the first occluder, as the query does).
    pub fn intersect_any_counted(
        &self,
        ray: &Ray,
        t_min: f32,
        t_max: f32,
    ) -> (bool, TraversalCounters) {
        let mut counters = TraversalCounters::default();
        let blocked = any(self, ray, t_min, t_max, &mut counters);
        (blocked, counters)
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
        // A 100-deep spine of tiny slabs below the mesh, all of it in
        // the bottom leaf.
        let slab = |d: u32| -1.0 - (99 - d) as f32 * 1e-3;
        let all: Vec<u32> = (0..32).collect();
        let tree =
            crate::tree::right_spine(mesh.clone(), 100, kdtune_geometry::Axis::Y, slab, &all);
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
