//! Structural statistics of built trees.

use crate::tree::{KdTree, NodeKind};
use kdtune_geometry::Aabb;

/// Summary statistics of an eager kD-tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeStats {
    /// Total nodes.
    pub node_count: usize,
    /// Leaf nodes.
    pub leaf_count: usize,
    /// Leaves with zero primitives.
    pub empty_leaf_count: usize,
    /// Maximum leaf depth (root = 0).
    pub max_depth: u32,
    /// Primitive references summed over leaves (duplicates counted).
    pub prim_references: usize,
    /// `prim_references / mesh.len()` — how much the straddling
    /// duplication inflated the tree. `1.0` means no duplication.
    pub duplication_factor: f32,
    /// Mean primitives per non-empty leaf.
    pub avg_leaf_prims: f32,
    /// Expected SAH traversal cost of the tree under its build parameters
    /// (surface-area-weighted sum of node costs), using `CT = 10`,
    /// `CI = 17` reference constants so costs are comparable across trees
    /// built with different tuned parameters.
    pub sah_cost: f32,
    /// Bytes spent on the packed node array (8 per node).
    pub node_bytes: usize,
    /// Total bytes of the acceleration structure: packed nodes, the
    /// primitive index buffer and the gathered leaf-triangle copies (the
    /// mesh itself is not counted).
    pub memory_bytes: usize,
}

/// Reference costs used for the comparable `sah_cost` metric.
const REF_CT: f32 = 10.0;
const REF_CI: f32 = 17.0;

impl TreeStats {
    /// Computes statistics for a tree.
    pub fn compute(tree: &KdTree) -> TreeStats {
        let mut stats = TreeStats {
            node_count: tree.node_count(),
            leaf_count: 0,
            empty_leaf_count: 0,
            max_depth: 0,
            prim_references: tree.prim_references(),
            duplication_factor: if tree.mesh().is_empty() {
                1.0
            } else {
                tree.prim_references() as f32 / tree.mesh().len() as f32
            },
            avg_leaf_prims: 0.0,
            sah_cost: 0.0,
            node_bytes: tree.node_bytes(),
            memory_bytes: tree.memory_bytes(),
        };
        let root_area = tree.bounds().surface_area();
        walk(tree, 0, tree.bounds(), 0, root_area, &mut stats);
        let filled = stats.leaf_count - stats.empty_leaf_count;
        if filled > 0 {
            stats.avg_leaf_prims = stats.prim_references as f32 / filled as f32;
        }
        stats
    }
}

fn walk(
    tree: &KdTree,
    node_idx: u32,
    bounds: Aabb,
    depth: u32,
    root_area: f32,
    stats: &mut TreeStats,
) {
    let p = if root_area > 0.0 {
        bounds.surface_area() / root_area
    } else {
        0.0
    };
    match tree.node_kind(node_idx) {
        NodeKind::Leaf { count, .. } => {
            stats.leaf_count += 1;
            if count == 0 {
                stats.empty_leaf_count += 1;
            }
            stats.max_depth = stats.max_depth.max(depth);
            stats.sah_cost += p * count as f32 * REF_CI;
        }
        NodeKind::Inner {
            axis,
            pos,
            left,
            right,
        } => {
            stats.sah_cost += p * REF_CT;
            let (lb, rb) = bounds.split(axis, pos);
            walk(tree, left, lb, depth + 1, root_area, stats);
            walk(tree, right, rb, depth + 1, root_area, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, Algorithm, BuildParams};
    use kdtune_geometry::{Triangle, TriangleMesh, Vec3};
    use std::sync::Arc;

    fn grid_mesh(n: usize) -> Arc<TriangleMesh> {
        let mut m = TriangleMesh::new();
        for i in 0..n {
            let x = i as f32;
            m.push_triangle(Triangle::new(
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 0.5, 0.0, 0.0),
                Vec3::new(x, 1.0, 0.0),
            ));
        }
        Arc::new(m)
    }

    #[test]
    fn stats_of_single_leaf() {
        let tree = build(grid_mesh(1), Algorithm::NodeLevel, &BuildParams::default());
        let stats = TreeStats::compute(tree.as_eager().unwrap());
        assert_eq!(stats.node_count, 1);
        assert_eq!(stats.leaf_count, 1);
        assert_eq!(stats.max_depth, 0);
        assert_eq!(stats.prim_references, 1);
        assert_eq!(stats.duplication_factor, 1.0);
        assert_eq!(stats.node_bytes, 8);
        // 8 node + 4 prim index + 40 gathered leaf triangle.
        assert_eq!(stats.memory_bytes, 8 + 4 + 40);
    }

    #[test]
    fn counts_are_consistent() {
        let tree = build(grid_mesh(64), Algorithm::InPlace, &BuildParams::default());
        let stats = TreeStats::compute(tree.as_eager().unwrap());
        // Binary tree: inner = leaves - 1.
        assert_eq!(stats.node_count, 2 * stats.leaf_count - 1);
        assert!(stats.max_depth >= 1);
        assert!(stats.duplication_factor >= 1.0);
        assert!(stats.sah_cost > 0.0);
        assert_eq!(stats.node_bytes, 8 * stats.node_count);
        assert_eq!(
            stats.memory_bytes,
            8 * stats.node_count + (4 + 40) * stats.prim_references
        );
    }

    #[test]
    fn deeper_trees_have_lower_sah_cost_on_spread_geometry() {
        let mesh = grid_mesh(256);
        let shallow = build(
            mesh.clone(),
            Algorithm::NodeLevel,
            &BuildParams {
                max_depth: Some(1),
                ..BuildParams::default()
            },
        );
        let deep = build(mesh, Algorithm::NodeLevel, &BuildParams::default());
        let s = TreeStats::compute(shallow.as_eager().unwrap());
        let d = TreeStats::compute(deep.as_eager().unwrap());
        assert!(
            d.sah_cost < s.sah_cost,
            "deep {} should beat shallow {}",
            d.sah_cost,
            s.sah_cost
        );
    }

    #[test]
    fn stats_max_depth_matches_traversal_bound() {
        let tree = build(grid_mesh(200), Algorithm::Nested, &BuildParams::default());
        let tree = tree.as_eager().unwrap();
        let stats = TreeStats::compute(tree);
        // Leaves are the deepest nodes, so the two notions coincide.
        assert_eq!(stats.max_depth, tree.traversal_depth_bound());
    }
}
