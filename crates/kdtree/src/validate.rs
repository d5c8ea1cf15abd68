//! Structural validation of built trees (used by tests and debug tooling).

use crate::tree::{KdTree, NodeKind};
use kdtune_geometry::Aabb;

/// A violated tree invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A leaf references a primitive index outside the mesh.
    PrimOutOfRange {
        /// The offending primitive index.
        prim: u32,
        /// Mesh size.
        mesh_len: usize,
    },
    /// A mesh primitive appears in no leaf.
    PrimUnreachable {
        /// The missing primitive index.
        prim: usize,
    },
    /// A leaf holds a primitive whose bounds do not overlap the leaf's
    /// spatial region.
    PrimOutsideLeaf {
        /// The misplaced primitive index.
        prim: u32,
    },
    /// An inner node's split plane lies outside its bounds.
    PlaneOutsideNode {
        /// Index of the offending node.
        node: u32,
    },
    /// A child index violates the packed preorder layout: the left child
    /// must sit at `node + 1` and the right child strictly after the left
    /// subtree, inside the node array.
    BadChildIndex {
        /// Index of the offending node.
        node: u32,
    },
    /// A leaf is a lazy tree's deferred leaf, which no eager tree holds.
    DeferredLeaf {
        /// Index of the offending node.
        node: u32,
    },
    /// Not every node is reachable from the root exactly once.
    NodeCountMismatch {
        /// Number of reachable nodes.
        reachable: usize,
        /// Number of stored nodes.
        stored: usize,
    },
    /// A node sits deeper than the tree's recorded traversal depth bound —
    /// the bound the allocation-free fast path sizes its stack by.
    DepthBoundExceeded {
        /// Depth of the offending node (root = 0).
        depth: u32,
        /// The tree's recorded bound.
        bound: u32,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ValidationError {}

/// Checks all structural invariants of an eager tree:
///
/// 1. every leaf primitive index is in range;
/// 2. every mesh primitive is reachable through at least one leaf;
/// 3. leaf primitives' bounds overlap the leaf's spatial region;
/// 4. split planes lie within their node's bounds;
/// 5. child indices obey the packed preorder layout (left child adjacent
///    at `node + 1`, right child forward and in range);
/// 6. every node is reachable from the root exactly once;
/// 7. no node lies deeper than [`KdTree::traversal_depth_bound`];
/// 8. no leaf is a lazy tree's deferred leaf.
pub fn validate(tree: &KdTree) -> Result<(), ValidationError> {
    let mesh_len = tree.mesh().len();
    let mut seen = vec![false; mesh_len];
    let mut reachable = 0usize;
    validate_node(tree, 0, tree.bounds(), 0, &mut seen, &mut reachable)?;
    if reachable != tree.node_count() {
        return Err(ValidationError::NodeCountMismatch {
            reachable,
            stored: tree.node_count(),
        });
    }
    if let Some(prim) = seen.iter().position(|s| !s) {
        return Err(ValidationError::PrimUnreachable { prim });
    }
    Ok(())
}

fn validate_node(
    tree: &KdTree,
    node_idx: u32,
    bounds: Aabb,
    depth: u32,
    seen: &mut [bool],
    reachable: &mut usize,
) -> Result<(), ValidationError> {
    *reachable += 1;
    if depth > tree.traversal_depth_bound() {
        return Err(ValidationError::DepthBoundExceeded {
            depth,
            bound: tree.traversal_depth_bound(),
        });
    }
    let node = tree.nodes()[node_idx as usize];
    if node.deferred_slot().is_some() {
        return Err(ValidationError::DeferredLeaf { node: node_idx });
    }
    match node.kind(node_idx) {
        NodeKind::Leaf { .. } => {
            for &prim in tree.leaf_prims(node) {
                if prim as usize >= seen.len() {
                    return Err(ValidationError::PrimOutOfRange {
                        prim,
                        mesh_len: seen.len(),
                    });
                }
                seen[prim as usize] = true;
                let pb = tree.mesh().triangle(prim as usize).bounds();
                // Closed-interval overlap with a little float slack.
                if !pb.overlaps(&bounds.expanded(1e-4)) {
                    return Err(ValidationError::PrimOutsideLeaf { prim });
                }
            }
            Ok(())
        }
        NodeKind::Inner {
            axis,
            pos,
            left,
            right,
        } => {
            if pos < bounds.min[axis] || pos > bounds.max[axis] {
                return Err(ValidationError::PlaneOutsideNode { node: node_idx });
            }
            let n = tree.node_count() as u32;
            // Left-child adjacency is definitional in the packed layout
            // (left = node + 1); the right child must leave room for at
            // least the one-node left subtree and stay in range.
            if left != node_idx + 1 || right < node_idx + 2 || right >= n {
                return Err(ValidationError::BadChildIndex { node: node_idx });
            }
            let (lb, rb) = bounds.split(axis, pos);
            validate_node(tree, left, lb, depth + 1, seen, reachable)?;
            validate_node(tree, right, rb, depth + 1, seen, reachable)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, Algorithm, BuildParams};
    use kdtune_geometry::{Triangle, TriangleMesh, Vec3};
    use std::sync::Arc;

    fn mesh(n: usize) -> Arc<TriangleMesh> {
        let mut m = TriangleMesh::new();
        for i in 0..n {
            let x = i as f32 * 0.7;
            m.push_triangle(Triangle::new(
                Vec3::new(x, 0.0, (i % 3) as f32),
                Vec3::new(x + 0.6, 0.2, (i % 5) as f32 * 0.3),
                Vec3::new(x + 0.1, 1.0, (i % 7) as f32 * 0.2),
            ));
        }
        Arc::new(m)
    }

    #[test]
    fn all_algorithms_produce_valid_trees() {
        for algo in [Algorithm::NodeLevel, Algorithm::Nested, Algorithm::InPlace] {
            let tree = build(mesh(200), algo, &BuildParams::default());
            validate(tree.as_eager().unwrap()).unwrap_or_else(|e| panic!("{algo}: {e}"));
        }
    }

    #[test]
    fn validation_accepts_single_leaf() {
        let tree = build(mesh(1), Algorithm::NodeLevel, &BuildParams::default());
        validate(tree.as_eager().unwrap()).unwrap();
    }

    #[test]
    fn extreme_parameters_still_valid() {
        for (ci, cb) in [(3.0, 0.0), (101.0, 60.0), (3.0, 60.0), (101.0, 0.0)] {
            let params = BuildParams {
                sah: crate::SahParams::new(ci, cb),
                ..BuildParams::default()
            };
            let tree = build(mesh(150), Algorithm::InPlace, &params);
            validate(tree.as_eager().unwrap()).unwrap_or_else(|e| panic!("ci={ci} cb={cb}: {e}"));
        }
    }

    #[test]
    fn tampered_right_child_is_rejected() {
        let tree = build(mesh(64), Algorithm::InPlace, &BuildParams::default());
        let tree = tree.as_eager().unwrap();
        let inner = tree
            .nodes()
            .iter()
            .position(|n| !n.is_leaf())
            .expect("a 64-triangle tree has inner nodes") as u32;
        let NodeKind::Inner { axis, pos, .. } = tree.node_kind(inner) else {
            unreachable!()
        };
        // Rebuild the node array with the right child pointing backwards.
        let mut nodes = tree.nodes().to_vec();
        nodes[inner as usize] = crate::PackedNode::inner(axis, pos, inner);
        let bad = KdTree::from_raw_parts(
            Arc::clone(tree.mesh()),
            tree.bounds(),
            nodes,
            tree.prim_indices().to_vec(),
        );
        assert!(matches!(
            validate(&bad),
            Err(ValidationError::BadChildIndex { .. } | ValidationError::NodeCountMismatch { .. })
        ));
    }

    #[test]
    fn deferred_leaf_is_rejected() {
        let m = mesh(4);
        let bounds = m.bounds();
        let lazy_top =
            KdTree::from_raw_parts(m, bounds, vec![crate::PackedNode::deferred(0)], vec![]);
        assert_eq!(
            validate(&lazy_top),
            Err(ValidationError::DeferredLeaf { node: 0 })
        );
    }
}
