//! The lazily-expanded kD-tree (paper §IV-D).
//!
//! Built eagerly down to the resolution `R`; below that, nodes hold their
//! primitive lists unexpanded. A deferred node is first expanded when a ray
//! reaches it during traversal. Expansion is guarded per node (the paper
//! uses an OpenMP critical section; we use a `parking_lot::RwLock` so
//! already-expanded nodes are read-shared across rendering threads).

use crate::build::{build_recursive, BuildCtx, BuildParams, NodePrims, TempNode};
use crate::traverse::{ArrayStack, TraversalStack, VecStack, FIXED_TRAVERSAL_STACK};
use crate::tree::{BuildNode, KdTree, NodeKind};
use kdtune_geometry::{Aabb, Axis, Hit, Ray, TriangleMesh};
use parking_lot::RwLock;
use std::sync::Arc;

/// Tolerance for the leaf early-exit, matching the eager traversal.
const T_EPS: f32 = 1e-4;

enum LazyNode {
    Inner {
        axis: Axis,
        pos: f32,
        left: u32,
        right: u32,
    },
    Leaf(Box<[u32]>),
    Deferred(DeferredNode),
}

struct DeferredNode {
    prims: Box<[u32]>,
    bounds: Aabb,
    expanded: RwLock<Option<Arc<KdTree>>>,
}

/// A kD-tree whose lower levels materialize on first ray contact.
pub struct LazyKdTree {
    mesh: Arc<TriangleMesh>,
    bounds: Aabb,
    nodes: Vec<LazyNode>,
    params: BuildParams,
    /// Depth of the deepest node in the eager top part (root = 0); bounds
    /// the top-part traversal stack. Expanded subtrees carry their own.
    max_depth: u32,
}

impl LazyKdTree {
    /// Adopts the arena produced by the breadth-first builder.
    pub(crate) fn from_arena(
        mesh: Arc<TriangleMesh>,
        arena: Vec<TempNode>,
        params: BuildParams,
    ) -> LazyKdTree {
        let nodes: Vec<LazyNode> = arena
            .into_iter()
            .map(|n| match n {
                TempNode::Leaf(prims) => LazyNode::Leaf(prims.into_boxed_slice()),
                TempNode::Inner {
                    axis,
                    pos,
                    left,
                    right,
                } => LazyNode::Inner {
                    axis,
                    pos,
                    left,
                    right,
                },
                TempNode::Deferred { prims, bounds } => LazyNode::Deferred(DeferredNode {
                    prims: prims.into_boxed_slice(),
                    bounds,
                    expanded: RwLock::new(None),
                }),
                TempNode::Pending => unreachable!("pending node survived construction"),
            })
            .collect();
        let bounds = mesh.bounds();
        let max_depth = top_part_depth(&nodes);
        LazyKdTree {
            mesh,
            bounds,
            nodes,
            params,
            max_depth,
        }
    }

    /// Depth of the deepest node in the eager top part (root = 0).
    pub fn traversal_depth_bound(&self) -> u32 {
        self.max_depth
    }

    /// The mesh the tree indexes.
    pub fn mesh(&self) -> &Arc<TriangleMesh> {
        &self.mesh
    }

    /// Root bounding box.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Number of nodes in the eager (top) part of the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of deferred nodes (expanded or not).
    pub fn deferred_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, LazyNode::Deferred(_)))
            .count()
    }

    /// Number of deferred nodes whose subtree has been materialized.
    pub fn expanded_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| match n {
                LazyNode::Deferred(d) => d.expanded.read().is_some(),
                _ => false,
            })
            .count()
    }

    /// Total nodes in the materialized tree: eager top nodes plus every
    /// expanded subtree's nodes (a still-deferred node counts as the one
    /// placeholder slot it occupies). After [`LazyKdTree::expand_all`]
    /// this is comparable node-for-node with an eager build.
    pub fn total_node_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                LazyNode::Deferred(d) => d.expanded.read().as_ref().map_or(1, |t| t.node_count()),
                _ => 1,
            })
            .sum()
    }

    /// Total primitive references held by deferred nodes.
    pub fn deferred_prim_references(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                LazyNode::Deferred(d) => d.prims.len(),
                _ => 0,
            })
            .sum()
    }

    /// Forces expansion of every deferred node (tests, ablations).
    pub fn expand_all(&self) {
        for node in &self.nodes {
            if let LazyNode::Deferred(d) = node {
                self.expand(d);
            }
        }
    }

    /// Expands a deferred node (or returns the already-built subtree).
    fn expand(&self, d: &DeferredNode) -> Arc<KdTree> {
        if let Some(t) = d.expanded.read().as_ref() {
            return Arc::clone(t);
        }
        let mut guard = d.expanded.write();
        if let Some(t) = guard.as_ref() {
            // Another thread expanded while we waited for the write lock.
            return Arc::clone(t);
        }
        let local_bounds: Vec<Aabb> = d
            .prims
            .iter()
            .map(|&p| self.mesh.triangle(p as usize).bounds())
            .collect();
        let ctx = BuildCtx {
            bounds: &local_bounds,
            sah: self.params.sah,
            max_depth: self.params.effective_max_depth(d.prims.len()),
            task_depth: 0,
            // Large deferred subtrees (R can reach 8192, or the whole tree
            // for a degenerate R) still classify in parallel; the output
            // is identical to the sequential path.
            nested: true,
            split: self.params.split,
            level_tasks: 1,
        };
        let root = NodePrims::root(&ctx, true);
        let local_root = build_recursive(&ctx, root, d.bounds, 0, &mut ctx.marks());
        let root = remap_leaves(local_root, &d.prims);
        let tree = Arc::new(KdTree::from_build(Arc::clone(&self.mesh), d.bounds, root));
        *guard = Some(Arc::clone(&tree));
        tree
    }

    /// Materializes the whole tree as an eager [`KdTree`], expanding every
    /// deferred node first. Deferred subtrees are built with the same
    /// parameters and split code the eager builders use, so intersection
    /// results are identical; the packed result can feed the KDT2
    /// serializer ([`crate::io`]), which lazy trees themselves cannot.
    pub fn to_eager(&self) -> KdTree {
        self.expand_all();
        let root = self.subtree(0);
        KdTree::from_build(Arc::clone(&self.mesh), self.bounds, root)
    }

    /// The top-part node at `idx` as a build-tree node; expanded deferred
    /// subtrees are converted back from their packed form.
    fn subtree(&self, idx: u32) -> BuildNode {
        match &self.nodes[idx as usize] {
            LazyNode::Inner {
                axis,
                pos,
                left,
                right,
            } => BuildNode::Inner {
                axis: *axis,
                pos: *pos,
                left: Box::new(self.subtree(*left)),
                right: Box::new(self.subtree(*right)),
            },
            LazyNode::Leaf(prims) => BuildNode::Leaf(prims.to_vec()),
            LazyNode::Deferred(d) => packed_to_build(&self.expand(d), 0),
        }
    }

    /// Nearest intersection in `(t_min, t_max)`, expanding deferred nodes
    /// as the ray reaches them. The top-part stack is allocation-free
    /// whenever the eager depth bound fits the fixed stack (expansion and
    /// the sub-tree queries it triggers may still allocate).
    pub fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        if self.max_depth as usize <= FIXED_TRAVERSAL_STACK {
            self.intersect_with(ray, t_min, t_max, &mut ArrayStack::new())
        } else {
            self.intersect_with(ray, t_min, t_max, &mut VecStack::new())
        }
    }

    fn intersect_with<S: TraversalStack>(
        &self,
        ray: &Ray,
        t_min: f32,
        t_max: f32,
        stack: &mut S,
    ) -> Option<Hit> {
        let (t0, t1) = self.bounds.intersect_ray(ray, t_min, t_max)?;
        let mut node_idx = 0u32;
        let (mut t0, mut t1) = (t0, t1);
        let mut best: Option<Hit> = None;
        let mut t_best = t_max;
        loop {
            match &self.nodes[node_idx as usize] {
                LazyNode::Inner {
                    axis,
                    pos,
                    left,
                    right,
                } => {
                    let o = ray.origin[*axis];
                    let dirc = ray.dir[*axis];
                    let t_plane = (pos - o) * ray.inv_dir[*axis];
                    let below_first = o < *pos || (o == *pos && dirc <= 0.0);
                    let (first, second) = if below_first {
                        (*left, *right)
                    } else {
                        (*right, *left)
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
                }
                tail => {
                    match tail {
                        LazyNode::Leaf(prims) => {
                            for &prim in prims.iter() {
                                let tri = self.mesh.triangle(prim as usize);
                                if let Some(mut hit) = tri.intersect(ray, t_min, t_best) {
                                    hit.prim = prim as usize;
                                    t_best = hit.t;
                                    best = Some(hit);
                                }
                            }
                        }
                        LazyNode::Deferred(d) => {
                            let sub = self.expand(d);
                            if let Some(hit) = sub.intersect(ray, t_min, t_best) {
                                t_best = hit.t;
                                best = Some(hit);
                            }
                        }
                        LazyNode::Inner { .. } => unreachable!(),
                    }
                    if best.is_some_and(|h| h.t <= t1 + T_EPS) {
                        return best;
                    }
                    loop {
                        match stack.pop() {
                            Some((n, s0, s1)) => {
                                if s0 > t_best {
                                    // Subtree starts beyond the best hit
                                    // already found; keep popping.
                                    continue;
                                }
                                node_idx = n;
                                t0 = s0;
                                t1 = s1;
                            }
                            None => return best,
                        }
                        break;
                    }
                }
            }
        }
    }

    /// Occlusion query; expands deferred nodes the shadow ray reaches.
    pub fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        if self.max_depth as usize <= FIXED_TRAVERSAL_STACK {
            self.intersect_any_with(ray, t_min, t_max, &mut ArrayStack::new())
        } else {
            self.intersect_any_with(ray, t_min, t_max, &mut VecStack::new())
        }
    }

    fn intersect_any_with<S: TraversalStack>(
        &self,
        ray: &Ray,
        t_min: f32,
        t_max: f32,
        stack: &mut S,
    ) -> bool {
        let Some((t0, t1)) = self.bounds.intersect_ray(ray, t_min, t_max) else {
            return false;
        };
        let mut node_idx = 0u32;
        let (mut t0, mut t1) = (t0, t1);
        loop {
            match &self.nodes[node_idx as usize] {
                LazyNode::Inner {
                    axis,
                    pos,
                    left,
                    right,
                } => {
                    let o = ray.origin[*axis];
                    let dirc = ray.dir[*axis];
                    let t_plane = (pos - o) * ray.inv_dir[*axis];
                    let below_first = o < *pos || (o == *pos && dirc <= 0.0);
                    let (first, second) = if below_first {
                        (*left, *right)
                    } else {
                        (*right, *left)
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
                }
                tail => {
                    let blocked = match tail {
                        LazyNode::Leaf(prims) => prims.iter().any(|&prim| {
                            self.mesh
                                .triangle(prim as usize)
                                .intersect(ray, t_min, t_max)
                                .is_some()
                        }),
                        LazyNode::Deferred(d) => self.expand(d).intersect_any(ray, t_min, t_max),
                        LazyNode::Inner { .. } => unreachable!(),
                    };
                    if blocked {
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
    }
}

impl std::fmt::Debug for LazyKdTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyKdTree")
            .field("nodes", &self.node_count())
            .field("deferred", &self.deferred_count())
            .field("expanded", &self.expanded_count())
            .finish()
    }
}

/// Depth of the deepest node in the eager top part (root = 0), by walking
/// the explicit child links of the arena layout.
fn top_part_depth(nodes: &[LazyNode]) -> u32 {
    let mut max = 0u32;
    let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
    while let Some((idx, depth)) = stack.pop() {
        max = max.max(depth);
        if let Some(LazyNode::Inner { left, right, .. }) = nodes.get(idx as usize) {
            stack.push((*left, depth + 1));
            stack.push((*right, depth + 1));
        }
    }
    max
}

/// Rewrites leaf indices of an expansion subtree from local (position in
/// the deferred primitive list) back to global mesh primitive ids.
/// Converts a packed subtree back into build-tree form (for
/// [`LazyKdTree::to_eager`]'s re-flatten of the whole tree).
fn packed_to_build(tree: &KdTree, idx: u32) -> BuildNode {
    match tree.node_kind(idx) {
        NodeKind::Leaf { first, count } => {
            BuildNode::Leaf(tree.prim_indices()[first as usize..(first + count) as usize].to_vec())
        }
        NodeKind::Inner {
            axis,
            pos,
            left,
            right,
        } => BuildNode::Inner {
            axis,
            pos,
            left: Box::new(packed_to_build(tree, left)),
            right: Box::new(packed_to_build(tree, right)),
        },
    }
}

fn remap_leaves(node: BuildNode, prims: &[u32]) -> BuildNode {
    match node {
        BuildNode::Leaf(local) => {
            BuildNode::Leaf(local.into_iter().map(|i| prims[i as usize]).collect())
        }
        BuildNode::Inner {
            axis,
            pos,
            left,
            right,
        } => BuildNode::Inner {
            axis,
            pos,
            left: Box::new(remap_leaves(*left, prims)),
            right: Box::new(remap_leaves(*right, prims)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, Algorithm};
    use crate::query::RayQuery;
    use kdtune_geometry::Vec3;
    use kdtune_scenes::{sibenik, SceneParams};

    fn lazy_tree(r: u32) -> LazyKdTree {
        let mesh = sibenik(&SceneParams::tiny()).frame(0);
        let params = BuildParams {
            r,
            ..BuildParams::default()
        };
        match build(mesh, Algorithm::Lazy, &params) {
            crate::BuiltTree::Lazy(t) => t,
            _ => unreachable!(),
        }
    }

    #[test]
    fn rays_expand_only_touched_nodes() {
        let tree = lazy_tree(64);
        assert_eq!(tree.expanded_count(), 0);
        let ray = Ray::new(Vec3::new(-15.0, 4.0, 0.0), Vec3::X);
        let hit = tree.intersect(&ray, 0.0, f32::INFINITY);
        assert!(hit.is_some(), "ray through the nave must hit something");
        let expanded = tree.expanded_count();
        assert!(expanded > 0, "the ray must have expanded nodes");
        assert!(
            expanded < tree.deferred_count(),
            "a single ray should not expand the whole tree ({expanded}/{})",
            tree.deferred_count()
        );
    }

    #[test]
    fn lazy_matches_eager_results() {
        let mesh = sibenik(&SceneParams::tiny()).frame(0);
        let eager = build(
            Arc::clone(&mesh),
            Algorithm::InPlace,
            &BuildParams::default(),
        );
        let lazy = lazy_tree(128);
        for i in 0..50 {
            let a = i as f32 * 0.13;
            let dir = Vec3::new(a.cos(), 0.3 * (a * 1.7).sin(), a.sin()).normalized();
            let ray = Ray::new(Vec3::new(-15.0, 4.0, 0.0), dir);
            let he = eager.intersect(&ray, 0.0, f32::INFINITY);
            let hl = lazy.intersect(&ray, 0.0, f32::INFINITY);
            match (he, hl) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!((a.t - b.t).abs() < 1e-3, "ray {i}: {} vs {}", a.t, b.t)
                }
                (a, b) => panic!("ray {i}: eager {a:?} vs lazy {b:?}"),
            }
        }
    }

    #[test]
    fn expand_all_expands_everything() {
        let tree = lazy_tree(64);
        tree.expand_all();
        assert_eq!(tree.expanded_count(), tree.deferred_count());
    }

    #[test]
    fn to_eager_preserves_intersections_bit_for_bit() {
        let lazy = lazy_tree(64);
        let eager = lazy.to_eager();
        assert_eq!(eager.node_count(), lazy.total_node_count());
        for i in 0..60 {
            let a = i as f32 * 0.11;
            let dir = Vec3::new(a.cos(), 0.4 * (a * 2.3).sin(), a.sin()).normalized();
            let ray = Ray::new(Vec3::new(-15.0, 4.0, 0.0), dir);
            let hl = lazy.intersect(&ray, 0.0, f32::INFINITY);
            let he = eager.intersect(&ray, 0.0, f32::INFINITY);
            match (hl, he) {
                (None, None) => {}
                (Some(l), Some(e)) => {
                    assert_eq!(l.t.to_bits(), e.t.to_bits(), "ray {i}");
                    assert_eq!(l.prim, e.prim, "ray {i}");
                }
                (l, e) => panic!("ray {i}: lazy {l:?} vs eager {e:?}"),
            }
            assert_eq!(
                lazy.intersect_any(&ray, 0.0, f32::INFINITY),
                eager.intersect_any(&ray, 0.0, f32::INFINITY),
                "ray {i}"
            );
        }
    }

    #[test]
    fn empty_lazy_tree_answers_queries() {
        let mesh = Arc::new(kdtune_geometry::TriangleMesh::new());
        let tree = build(mesh, Algorithm::Lazy, &BuildParams::default());
        let lazy = tree.as_lazy().unwrap();
        assert_eq!(lazy.node_count(), 1);
        assert_eq!(lazy.deferred_count(), 0);
        let ray = Ray::new(Vec3::new(-1.0, 0.0, 0.0), Vec3::X);
        assert!(lazy.intersect(&ray, 0.0, f32::INFINITY).is_none());
        assert!(!lazy.intersect_any(&ray, 0.0, f32::INFINITY));
        lazy.expand_all(); // nothing to do, must not panic
        assert_eq!(lazy.expanded_count(), 0);
    }

    #[test]
    fn whole_tree_deferral_expands_on_traversal() {
        // R = u32::MAX defers the entire scene into one root node; the
        // first ray must expand it and agree with the eager build.
        let mesh = sibenik(&SceneParams::tiny()).frame(0);
        let eager = build(
            Arc::clone(&mesh),
            Algorithm::InPlace,
            &BuildParams::default(),
        );
        let params = BuildParams {
            r: u32::MAX,
            ..BuildParams::default()
        };
        let tree = build(mesh, Algorithm::Lazy, &params);
        let lazy = tree.as_lazy().unwrap();
        assert_eq!(lazy.node_count(), 1);
        assert_eq!(lazy.deferred_count(), 1);
        assert_eq!(lazy.expanded_count(), 0);
        for i in 0..20 {
            let a = i as f32 * 0.17;
            let dir = Vec3::new(a.cos(), 0.25 * (a * 1.3).sin(), a.sin()).normalized();
            let ray = Ray::new(Vec3::new(-15.0, 4.0, 0.0), dir);
            let he = eager.intersect(&ray, 0.0, f32::INFINITY);
            let hl = lazy.intersect(&ray, 0.0, f32::INFINITY);
            match (he, hl) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!((a.t - b.t).abs() < 1e-3, "ray {i}: {} vs {}", a.t, b.t)
                }
                (a, b) => panic!("ray {i}: eager {a:?} vs lazy {b:?}"),
            }
            assert_eq!(
                eager.intersect_any(&ray, 1e-3, 25.0),
                lazy.intersect_any(&ray, 1e-3, 25.0),
                "shadow ray {i}"
            );
        }
        assert_eq!(lazy.expanded_count(), 1, "one root expansion serves all");
    }

    #[test]
    fn shadow_rays_agree_with_eager() {
        let mesh = sibenik(&SceneParams::tiny()).frame(0);
        let eager = build(
            Arc::clone(&mesh),
            Algorithm::InPlace,
            &BuildParams::default(),
        );
        let lazy = lazy_tree(64);
        for i in 0..30 {
            let a = i as f32 * 0.21;
            let dir = Vec3::new(a.cos(), 0.2, a.sin()).normalized();
            let ray = Ray::new(Vec3::new(0.0, 4.0, 0.0), dir);
            assert_eq!(
                eager.intersect_any(&ray, 1e-3, 20.0),
                lazy.intersect_any(&ray, 1e-3, 20.0),
                "shadow ray {i}"
            );
        }
    }
}
