//! Uniform query interface over eager and lazy trees.

use crate::{KdTree, LazyKdTree, PacketCounters};
use kdtune_geometry::{Aabb, Hit, Ray, RayPacket, TriangleMesh};
use std::sync::Arc;

/// Ray queries shared by every acceleration structure in this crate.
///
/// Implementations must be callable concurrently from many threads (`&self`
/// queries) — the ray caster parallelizes over pixels.
///
/// The packet method is const-generic over the packet width and has a
/// default implementation that traces each active lane through the
/// scalar query — correct (and by definition bit-identical to scalar)
/// for any implementor; structures with a real packet traversal override
/// it. It is `where Self: Sized` so the scalar half of the trait stays
/// object-safe (`&dyn RayQuery` callers only ever need scalar queries).
/// Occlusion has no packet form: the renderer traces its shadow rays
/// scalar at every width.
pub trait RayQuery: Send + Sync {
    /// Nearest intersection with ray parameter in `(t_min, t_max)`.
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit>;
    /// True if any intersection exists in `(t_min, t_max)`.
    fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool;

    /// Nearest intersection for every active lane of a `W`-wide packet,
    /// in `(t_min, lane t_max)`; inactive lanes return `None`. Must be
    /// bit-identical per lane to [`RayQuery::intersect`]. `min_active`
    /// is the divergence threshold and `use_frustum` enables the O(1)
    /// interval-frustum split classification, for implementations with
    /// a shared packet loop; the scalar default ignores both.
    fn intersect_packet<const W: usize>(
        &self,
        p: &RayPacket<W>,
        t_min: f32,
        _min_active: u32,
        _use_frustum: bool,
        counters: &mut PacketCounters,
    ) -> [Option<Hit>; W]
    where
        Self: Sized,
    {
        per_lane_nearest(self, p, t_min, counters)
    }
}

/// Traces every active lane of `p` through `query`'s scalar nearest-hit
/// query: the packet default, and the fallback of a tree too deep for the
/// packet loop.
pub(crate) fn per_lane_nearest<const W: usize>(
    query: &impl RayQuery,
    p: &RayPacket<W>,
    t_min: f32,
    counters: &mut PacketCounters,
) -> [Option<Hit>; W] {
    let t_maxes = p.t_maxes();
    let mut out = [None; W];
    counters.packets += 1;
    counters.scalar_fallback_lanes += p.active().count_ones() as u64;
    for (l, slot) in out.iter_mut().enumerate() {
        if p.active() & (1 << l) != 0 {
            *slot = query.intersect(p.ray(l), t_min, t_maxes[l]);
        }
    }
    out
}

impl RayQuery for KdTree {
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        KdTree::intersect(self, ray, t_min, t_max)
    }
    fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        KdTree::intersect_any(self, ray, t_min, t_max)
    }
    fn intersect_packet<const W: usize>(
        &self,
        p: &RayPacket<W>,
        t_min: f32,
        min_active: u32,
        use_frustum: bool,
        counters: &mut PacketCounters,
    ) -> [Option<Hit>; W] {
        KdTree::intersect_packet(self, p, t_min, min_active, use_frustum, counters)
    }
}

impl RayQuery for LazyKdTree {
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        LazyKdTree::intersect(self, ray, t_min, t_max)
    }
    fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        LazyKdTree::intersect_any(self, ray, t_min, t_max)
    }
}

/// The result of [`crate::build`]: eager algorithms yield a [`KdTree`],
/// the lazy algorithm a [`LazyKdTree`].
#[derive(Debug)]
pub enum BuiltTree {
    /// Fully constructed tree.
    Eager(KdTree),
    /// Tree with on-demand lower levels.
    Lazy(LazyKdTree),
}

impl BuiltTree {
    /// The mesh the tree indexes.
    pub fn mesh(&self) -> &Arc<TriangleMesh> {
        match self {
            BuiltTree::Eager(t) => t.mesh(),
            BuiltTree::Lazy(t) => t.mesh(),
        }
    }

    /// Root bounding box.
    pub fn bounds(&self) -> Aabb {
        match self {
            BuiltTree::Eager(t) => t.bounds(),
            BuiltTree::Lazy(t) => t.bounds(),
        }
    }

    /// Number of nodes: the whole eager tree, or a lazy tree's top part
    /// (deferred leaves included, expanded subtrees not — see
    /// [`LazyKdTree::total_node_count`]).
    pub fn node_count(&self) -> usize {
        match self {
            BuiltTree::Eager(t) => t.node_count(),
            BuiltTree::Lazy(t) => t.node_count(),
        }
    }

    /// Bytes of packed node storage. Exact for eager trees; for lazy
    /// trees this is the size of the eager tree they materialize so far,
    /// `total_node_count × 8` (their own storage also keeps one deferred
    /// leaf per expanded subtree).
    pub fn node_bytes(&self) -> usize {
        match self {
            BuiltTree::Eager(t) => t.node_bytes(),
            BuiltTree::Lazy(t) => t.total_node_count() * std::mem::size_of::<crate::PackedNode>(),
        }
    }

    /// Borrows the eager tree, if this is one.
    pub fn as_eager(&self) -> Option<&KdTree> {
        match self {
            BuiltTree::Eager(t) => Some(t),
            BuiltTree::Lazy(_) => None,
        }
    }

    /// Borrows the lazy tree, if this is one.
    pub fn as_lazy(&self) -> Option<&LazyKdTree> {
        match self {
            BuiltTree::Eager(_) => None,
            BuiltTree::Lazy(t) => Some(t),
        }
    }
}

impl RayQuery for BuiltTree {
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        match self {
            BuiltTree::Eager(t) => t.intersect(ray, t_min, t_max),
            BuiltTree::Lazy(t) => t.intersect(ray, t_min, t_max),
        }
    }
    fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        match self {
            BuiltTree::Eager(t) => t.intersect_any(ray, t_min, t_max),
            BuiltTree::Lazy(t) => t.intersect_any(ray, t_min, t_max),
        }
    }
    fn intersect_packet<const W: usize>(
        &self,
        p: &RayPacket<W>,
        t_min: f32,
        min_active: u32,
        use_frustum: bool,
        counters: &mut PacketCounters,
    ) -> [Option<Hit>; W] {
        match self {
            BuiltTree::Eager(t) => t.intersect_packet(p, t_min, min_active, use_frustum, counters),
            // Lazy trees expand nodes on first scalar-ray contact; the
            // per-lane default keeps that machinery untouched.
            BuiltTree::Lazy(t) => {
                RayQuery::intersect_packet(t, p, t_min, min_active, use_frustum, counters)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, Algorithm, BuildParams};
    use kdtune_geometry::{Triangle, Vec3};

    fn mesh() -> Arc<TriangleMesh> {
        let mut m = TriangleMesh::new();
        m.push_triangle(Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y));
        Arc::new(m)
    }

    #[test]
    fn variant_accessors() {
        let eager = build(mesh(), Algorithm::InPlace, &BuildParams::default());
        assert!(eager.as_eager().is_some());
        assert!(eager.as_lazy().is_none());
        let lazy = build(mesh(), Algorithm::Lazy, &BuildParams::default());
        assert!(lazy.as_lazy().is_some());
        assert!(lazy.as_eager().is_none());
    }

    #[test]
    fn trait_object_dispatch() {
        let tree = build(mesh(), Algorithm::NodeLevel, &BuildParams::default());
        let q: &dyn RayQuery = &tree;
        let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
        assert!(q.intersect(&ray, 0.0, f32::INFINITY).is_some());
        assert!(q.intersect_any(&ray, 0.0, f32::INFINITY));
        assert!(!q.intersect_any(&ray, 0.0, 0.5));
    }
}
