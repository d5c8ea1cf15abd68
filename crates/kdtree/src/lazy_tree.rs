//! The lazily-expanded kD-tree (paper §IV-D).
//!
//! Built eagerly down to the resolution `R`; below that, nodes hold their
//! primitive lists unexpanded. The eager top part is a packed tree like
//! any other, except that each deferred node is a deferred leaf naming
//! its slot in the tree's deferred table. Rays walk the top part with the
//! eager traversal loops ([`crate::traverse`]); the first ray to reach a
//! deferred leaf expands it.
//!
//! The paper guards each expansion with an OpenMP critical section. Here
//! the first thread to reach a deferred node claims it and builds its
//! subtree with the NodeLevel fan-out over the whole pool; the subtree is
//! then published once, so every later visit costs one acquire load. A
//! thread that reaches a node another thread is expanding does not sleep:
//! it runs pending jobs of its pool ([`rayon::yield_now`]), which are
//! mostly that expansion's own subtree tasks, until the node is published.
//! This cannot deadlock: an expansion never reaches a deferred node and
//! holds no lock across a `join`, so the claimant and every pool thread
//! it waits for keep making progress (see DESIGN.md §1).

use crate::build::{build_depth_first, BuildCtx, BuildParams, DeferredPrims};
use crate::traverse::{any, nearest, Gathered, LeafTest};
use crate::tree::{flatten, KdTree, NodeKind, Open, PackedNode};
use kdtune_geometry::{Aabb, Hit, Ray, TriangleMesh};
use kdtune_telemetry as telemetry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One slot of the deferred table: a deferred node's primitives and
/// bounds, and its subtree once a ray has expanded it.
struct DeferredNode {
    prims: Vec<u32>,
    bounds: Aabb,
    /// The subtree, set once by the thread holding the claim.
    subtree: OnceLock<KdTree>,
    /// Held by the one thread building `subtree`; released if that build
    /// panics, so a waiter claims the node and retries. Taken with Acquire
    /// and given up with Release, like a lock; the subtree itself is
    /// published through `subtree`.
    claimed: AtomicBool,
    /// Pool jobs that threads waiting for `subtree` ran meanwhile.
    helped: AtomicU64,
}

/// A kD-tree whose lower levels materialize on first ray contact.
pub struct LazyKdTree {
    /// The eager top part. Its deferred leaves name slots of `deferred`,
    /// so it is never handed out as an eager tree.
    top: KdTree,
    deferred: Vec<DeferredNode>,
    params: BuildParams,
}

impl LazyKdTree {
    /// Adopts the breadth-first builder's packed top part and the
    /// primitives and bounds of each deferred node.
    pub(crate) fn new(
        top: KdTree,
        deferred: Vec<DeferredPrims>,
        params: BuildParams,
    ) -> LazyKdTree {
        let deferred = deferred
            .into_iter()
            .map(|(prims, bounds)| DeferredNode {
                prims,
                bounds,
                subtree: OnceLock::new(),
                claimed: AtomicBool::new(false),
                helped: AtomicU64::new(0),
            })
            .collect();
        LazyKdTree {
            top,
            deferred,
            params,
        }
    }

    /// The mesh the tree indexes.
    pub fn mesh(&self) -> &Arc<TriangleMesh> {
        self.top.mesh()
    }

    /// Root bounding box.
    pub fn bounds(&self) -> Aabb {
        self.top.bounds()
    }

    /// Number of nodes in the eager (top) part of the tree.
    pub fn node_count(&self) -> usize {
        self.top.node_count()
    }

    /// Number of deferred nodes (expanded or not).
    pub fn deferred_count(&self) -> usize {
        self.deferred.len()
    }

    /// Number of deferred nodes whose subtree has been materialized.
    pub fn expanded_count(&self) -> usize {
        self.deferred
            .iter()
            .filter(|d| d.subtree.get().is_some())
            .count()
    }

    /// Total nodes in the materialized tree: eager top nodes plus every
    /// expanded subtree's nodes (a still-deferred node counts as the one
    /// placeholder slot it occupies). After [`LazyKdTree::expand_all`]
    /// this is comparable node-for-node with an eager build.
    pub fn total_node_count(&self) -> usize {
        let expansions: usize = self
            .deferred
            .iter()
            .map(|d| d.subtree.get().map_or(1, |t| t.node_count()))
            .sum();
        self.top.node_count() - self.deferred.len() + expansions
    }

    /// Total primitive references held by deferred nodes.
    pub fn deferred_prim_references(&self) -> usize {
        self.deferred.iter().map(|d| d.prims.len()).sum()
    }

    /// Forces expansion of every deferred node (tests, ablations).
    pub fn expand_all(&self) {
        for d in &self.deferred {
            self.expand(d);
        }
    }

    /// A deferred node's subtree, expanding it on first contact.
    fn expand<'a>(&self, d: &'a DeferredNode) -> &'a KdTree {
        match d.subtree.get() {
            Some(tree) => tree,
            None => self.expand_or_help(d),
        }
    }

    /// Claims and builds `d`'s subtree, or, while another thread builds
    /// it, runs pending pool jobs until it is published.
    #[cold]
    fn expand_or_help<'a>(&self, d: &'a DeferredNode) -> &'a KdTree {
        /// Releases the claim if the build unwinds.
        struct Claim<'a>(&'a AtomicBool);
        impl Drop for Claim<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }

        loop {
            if let Some(tree) = d.subtree.get() {
                return tree;
            }
            if !d.claimed.load(Ordering::Relaxed)
                && d.claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                let claim = Claim(&d.claimed);
                let mut span = telemetry::span("kdtree.lazy.expand").field("prims", d.prims.len());
                let tree = self.build_subtree(d);
                if span.is_active() {
                    span.add_field("nodes", tree.node_count());
                    span.add_field("helped_jobs", d.helped.load(Ordering::Relaxed));
                }
                telemetry::counter("kdtree.lazy.expansions").incr();
                // Published for good: the claim is never released.
                std::mem::forget(claim);
                return d.subtree.get_or_init(|| tree);
            }
            match rayon::yield_now() {
                Some(rayon::Yield::Executed) => {
                    d.helped.fetch_add(1, Ordering::Relaxed);
                }
                _ => std::thread::yield_now(),
            }
        }
    }

    /// Builds a deferred node's subtree with the NodeLevel recursion,
    /// fanned out to `threads · S` tasks as [`crate::build()`] does.
    fn build_subtree(&self, d: &DeferredNode) -> KdTree {
        let mesh = self.mesh();
        let local_bounds: Vec<Aabb> = d
            .prims
            .iter()
            .map(|&p| mesh.triangle(p as usize).bounds())
            .collect();
        let ctx = BuildCtx {
            bounds: &local_bounds,
            sah: self.params.sah,
            max_depth: self.params.effective_max_depth(d.prims.len()),
            task_depth: self.params.task_depth(),
            // Large deferred subtrees (R can reach 8192, or the whole tree
            // for a degenerate R) still classify in parallel; the output
            // is identical to the sequential path.
            nested: true,
            level_tasks: 1,
        };
        let mut out = build_depth_first(&ctx, d.bounds);
        // The subtree was built over positions in the deferred list; its
        // leaves name mesh primitives.
        for p in &mut out.prims {
            *p = d.prims[*p as usize];
        }
        KdTree::from_raw_parts(Arc::clone(mesh), d.bounds, out.nodes, out.prims)
    }

    /// Materializes the whole tree as an eager [`KdTree`], expanding every
    /// deferred node. Deferred subtrees are built with the same parameters
    /// and split code the eager builders use, so intersection results are
    /// identical; the packed result can feed the KDT2 serializer
    /// ([`crate::io`]), which lazy trees themselves cannot.
    pub fn to_eager(&self) -> KdTree {
        let subtrees: Vec<&KdTree> = self.deferred.iter().map(|d| self.expand(d)).collect();
        let capacity = self.total_node_count();
        // Walk the top part, entering each deferred leaf's subtree instead.
        let out = flatten((&self.top, 0), capacity, &mut |(tree, idx)| {
            let (tree, idx) = match tree.nodes()[idx as usize].deferred_slot() {
                Some(slot) => (subtrees[slot as usize], 0),
                None => (tree, idx),
            };
            let node = tree.nodes()[idx as usize];
            match node.kind(idx) {
                NodeKind::Leaf { .. } => Open::Leaf(tree.leaf_prims(node)),
                NodeKind::Inner {
                    axis,
                    pos,
                    left,
                    right,
                } => Open::Split(axis, pos, (tree, left), (tree, right)),
            }
        });
        KdTree::from_raw_parts(Arc::clone(self.mesh()), self.bounds(), out.nodes, out.prims)
    }

    /// Nearest intersection in `(t_min, t_max)`, expanding deferred nodes
    /// as the ray reaches them. The top-part stack is allocation-free
    /// whenever the eager depth bound fits the fixed stack (expansion and
    /// the sub-tree queries it triggers may still allocate).
    pub fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        nearest(&self.top, ray, t_min, t_max, self)
    }

    /// Occlusion query; expands deferred nodes the shadow ray reaches.
    pub fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        any(&self.top, ray, t_min, t_max, self)
    }
}

/// The top part's leaf test: a deferred leaf's expanded subtree answers
/// for it; every other leaf tests its gathered triangles.
impl LeafTest for &LazyKdTree {
    fn nearest(
        &mut self,
        top: &KdTree,
        leaf: PackedNode,
        ray: &Ray,
        t_min: f32,
        t_best: f32,
    ) -> Option<Hit> {
        match leaf.deferred_slot() {
            Some(slot) => self
                .expand(&self.deferred[slot as usize])
                .intersect(ray, t_min, t_best),
            None => Gathered.nearest(top, leaf, ray, t_min, t_best),
        }
    }

    fn any(&mut self, top: &KdTree, leaf: PackedNode, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        match leaf.deferred_slot() {
            Some(slot) => self
                .expand(&self.deferred[slot as usize])
                .intersect_any(ray, t_min, t_max),
            None => Gathered.any(top, leaf, ray, t_min, t_max),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, Algorithm};
    use crate::query::RayQuery;
    use kdtune_geometry::Vec3;
    use kdtune_scenes::{all_scenes, sibenik, SceneParams, ViewSpec};

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

    /// A 64×64 pinhole grid of primary rays over the scene's view.
    fn view_rays(view: &ViewSpec) -> impl Iterator<Item = Ray> + '_ {
        let fwd = (view.target - view.eye).normalized();
        let right = fwd.cross(view.up).normalized();
        let up = right.cross(fwd);
        let h = (view.fov_deg.to_radians() * 0.5).tan();
        (0..64 * 64).map(move |i| {
            let u = ((i % 64) as f32 + 0.5) / 32.0 - 1.0;
            let v = ((i / 64) as f32 + 0.5) / 32.0 - 1.0;
            Ray::new(
                view.eye,
                (fwd + right * (u * h) + up * (v * h)).normalized(),
            )
        })
    }

    /// Nearest hits as `(t bits, prim)`, which must match exactly.
    fn key(hit: Option<Hit>) -> Option<(u32, usize)> {
        hit.map(|h| (h.t.to_bits(), h.prim))
    }

    #[test]
    fn lazy_matches_eager_results() {
        // Every tiny scene's frame 0, at three resolutions: the lazy tree
        // answers every primary ray and its shadow ray exactly as the
        // eager InPlace tree does.
        for scene in all_scenes(&SceneParams::tiny()) {
            let mesh = scene.frame(0);
            let eager = build(
                Arc::clone(&mesh),
                Algorithm::InPlace,
                &BuildParams::default(),
            );
            for r in [16, 64, 256] {
                let params = BuildParams {
                    r,
                    ..BuildParams::default()
                };
                let lazy = build(Arc::clone(&mesh), Algorithm::Lazy, &params);
                let mut hits = 0;
                for (i, ray) in view_rays(&scene.view).enumerate() {
                    let he = eager.intersect(&ray, 0.0, f32::INFINITY);
                    let hl = lazy.intersect(&ray, 0.0, f32::INFINITY);
                    let what = format!("{} R={r} ray {i}", scene.name);
                    assert_eq!(key(he), key(hl), "{what}");
                    assert_eq!(
                        eager.intersect_any(&ray, 1e-3, f32::INFINITY),
                        lazy.intersect_any(&ray, 1e-3, f32::INFINITY),
                        "{what}"
                    );
                    let Some(h) = he else { continue };
                    hits += 1;
                    let p = ray.at(h.t);
                    let shadow = Ray::new(p, (scene.view.light - p).normalized());
                    let dist = (scene.view.light - p).length();
                    assert_eq!(
                        eager.intersect_any(&shadow, 1e-3, dist),
                        lazy.intersect_any(&shadow, 1e-3, dist),
                        "shadow {what}"
                    );
                }
                assert!(hits > 0, "{} R={r}: no ray hit", scene.name);
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
            assert_eq!(key(he), key(hl), "ray {i}");
            assert_eq!(
                eager.intersect_any(&ray, 1e-3, 25.0),
                lazy.intersect_any(&ray, 1e-3, 25.0),
                "shadow ray {i}"
            );
        }
        assert_eq!(lazy.expanded_count(), 1, "one root expansion serves all");
    }

    /// A whole-deferral tree of the tiny Sibenik whose one deferred node
    /// names a primitive past the mesh's end, so expanding it panics.
    fn poisoned_tree() -> (LazyKdTree, Ray) {
        let mut lazy = lazy_tree(u32::MAX);
        let past_end = lazy.mesh().len() as u32;
        lazy.deferred[0].prims.push(past_end);
        (lazy, Ray::new(Vec3::new(-15.0, 4.0, 0.0), Vec3::X))
    }

    #[test]
    fn panicking_expansion_releases_its_claim() {
        let (lazy, ray) = poisoned_tree();
        for attempt in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lazy.intersect(&ray, 0.0, f32::INFINITY)
            }));
            assert!(
                caught.is_err(),
                "attempt {attempt}: the panic must reach the caller"
            );
            assert!(!lazy.deferred[0].claimed.load(Ordering::Acquire));
            assert_eq!(lazy.expanded_count(), 0);
        }
    }

    #[test]
    fn waiter_takes_over_a_released_claim_and_its_panic_reaches_the_installer() {
        // The node is claimed before the waiter arrives. The claimant
        // gives up, as a panicking build does when its claim is released
        // on unwind; here that release is the join's queued right side,
        // which the waiting left side can run itself while it helps. The
        // waiter then claims the node, its own build panics, and the join
        // hands the panic to the installer.
        let (lazy, ray) = poisoned_tree();
        let claimed = &lazy.deferred[0].claimed;
        claimed.store(true, Ordering::Release);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                rayon::join(
                    || lazy.intersect(&ray, 0.0, f32::INFINITY),
                    || claimed.store(false, Ordering::Release),
                )
            })
        }));
        assert!(caught.is_err());
        assert!(!claimed.load(Ordering::Acquire));
        assert_eq!(lazy.expanded_count(), 0);
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
