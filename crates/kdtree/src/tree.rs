//! The flattened kD-tree structure.
//!
//! Nodes are packed into 8 bytes each (PBRT/Wald style) so the traversal
//! hot loop touches half the cache lines a tagged-enum layout would:
//!
//! ```text
//! word  bits 1..0   tag: 0/1/2 = inner split axis (x/y/z), 3 = leaf
//!       bits 31..2  inner: index of the right child
//!                   leaf:  offset of the first primitive index
//! data  32 bits     inner: split position (f32 bits)
//!                   leaf:  primitive count (u32)
//! ```
//!
//! A lazy tree's top part uses one more kind of node: a *deferred leaf*
//! carries the count `u32::MAX` and a slot of the lazy tree's deferred
//! table as its payload. No eager tree may hold one — [`crate::io`]
//! decoding and [`crate::validate`] reject it.
//!
//! The **left child is implicit**: nodes are flattened in depth-first
//! preorder, so an inner node at index `i` has its left child at `i + 1`
//! and only the right child index needs storing. Both 30-bit payloads cap
//! trees at `2^30` nodes / primitive references — [`PackedNode::leaf`] and
//! [`PackedNode::inner`] panic past that, far beyond any in-memory mesh
//! this workspace handles.

use kdtune_geometry::{Aabb, Axis, Triangle, TriangleMesh};
use std::sync::Arc;

/// Tag value marking a leaf in the low two bits of [`PackedNode::word`].
const LEAF_TAG: u32 = 3;

/// Maximum value of a 30-bit payload (right-child index / prim offset).
pub const MAX_NODE_PAYLOAD: u32 = (1 << 30) - 1;

/// Leaf count marking a deferred leaf. No eager leaf holds this many
/// primitives: a mesh has at most [`MAX_NODE_PAYLOAD`].
const DEFERRED_LEAF: u32 = u32::MAX;

/// An 8-byte packed node of the flattened tree. See the module docs for
/// the bit layout; use [`PackedNode::kind`] (or [`KdTree::node_kind`]) for
/// a decoded view outside hot loops.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PackedNode {
    word: u32,
    data: u32,
}

impl PackedNode {
    /// Packs a leaf holding `count` primitive indices starting at `first`
    /// in the tree's primitive index buffer.
    ///
    /// # Panics
    /// Panics if `first` exceeds the 30-bit payload range.
    pub fn leaf(first: u32, count: u32) -> PackedNode {
        assert!(
            first <= MAX_NODE_PAYLOAD,
            "leaf prim offset overflows 30 bits"
        );
        PackedNode {
            word: LEAF_TAG | (first << 2),
            data: count,
        }
    }

    /// Packs a lazy tree's deferred leaf naming `slot` of its deferred
    /// table.
    pub(crate) fn deferred(slot: u32) -> PackedNode {
        assert!(slot <= MAX_NODE_PAYLOAD, "deferred slot overflows 30 bits");
        PackedNode {
            word: LEAF_TAG | (slot << 2),
            data: DEFERRED_LEAF,
        }
    }

    /// The deferred-table slot of a deferred leaf; `None` for every other
    /// node.
    #[inline(always)]
    pub(crate) fn deferred_slot(self) -> Option<u32> {
        (self.is_leaf() && self.data == DEFERRED_LEAF).then_some(self.word >> 2)
    }

    /// Packs an inner node splitting at `axis = pos` whose right child
    /// lives at index `right` (the left child is implicitly adjacent).
    ///
    /// # Panics
    /// Panics if `right` exceeds the 30-bit payload range.
    pub fn inner(axis: Axis, pos: f32, right: u32) -> PackedNode {
        assert!(
            right <= MAX_NODE_PAYLOAD,
            "right child index overflows 30 bits"
        );
        PackedNode {
            word: axis.index() as u32 | (right << 2),
            data: pos.to_bits(),
        }
    }

    /// True if this node is a leaf.
    #[inline(always)]
    pub fn is_leaf(self) -> bool {
        self.word & 3 == LEAF_TAG
    }

    /// Split axis of an inner node (the low two bits).
    #[inline(always)]
    pub fn axis(self) -> Axis {
        debug_assert!(!self.is_leaf());
        Axis::from_index((self.word & 3) as usize)
    }

    /// Split axis of an inner node as a raw index, always `< 3`. The hot
    /// traversal loop indexes pre-splatted `[f32; 4]` ray arrays with
    /// this (the `& 3` makes the bounds check statically dead), instead
    /// of matching on [`Axis`] three times per node.
    #[inline(always)]
    pub fn axis_index(self) -> usize {
        debug_assert!(!self.is_leaf());
        (self.word & 3) as usize
    }

    /// Split position of an inner node.
    #[inline(always)]
    pub fn split_pos(self) -> f32 {
        debug_assert!(!self.is_leaf());
        f32::from_bits(self.data)
    }

    /// Right-child index of an inner node; the left child is the node's
    /// own index plus one.
    #[inline(always)]
    pub fn right_child(self) -> u32 {
        debug_assert!(!self.is_leaf());
        self.word >> 2
    }

    /// Offset of a leaf's first primitive index.
    #[inline(always)]
    pub fn prim_first(self) -> u32 {
        debug_assert!(self.is_leaf());
        self.word >> 2
    }

    /// Primitive count of a leaf.
    #[inline(always)]
    pub fn prim_count(self) -> u32 {
        debug_assert!(self.is_leaf());
        self.data
    }

    /// Decoded view; `own_index` is this node's index in the node array
    /// (needed to materialize the implicit left child).
    pub fn kind(self, own_index: u32) -> NodeKind {
        if self.is_leaf() {
            NodeKind::Leaf {
                first: self.prim_first(),
                count: self.prim_count(),
            }
        } else {
            NodeKind::Inner {
                axis: self.axis(),
                pos: self.split_pos(),
                left: own_index + 1,
                right: self.right_child(),
            }
        }
    }

    /// Raw `(word, data)` pair — the on-disk representation.
    pub fn to_raw(self) -> (u32, u32) {
        (self.word, self.data)
    }

    /// Reassembles a node from its raw pair. Structural validity (tag,
    /// index ranges) is the caller's responsibility — the io decoder and
    /// [`crate::validate`] re-check.
    pub fn from_raw(word: u32, data: u32) -> PackedNode {
        PackedNode { word, data }
    }
}

impl std::fmt::Debug for PackedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_leaf() {
            write!(
                f,
                "Leaf {{ first: {}, count: {} }}",
                self.prim_first(),
                self.prim_count()
            )
        } else {
            write!(
                f,
                "Inner {{ axis: {:?}, pos: {}, right: {} }}",
                self.axis(),
                self.split_pos(),
                self.right_child()
            )
        }
    }
}

/// Decoded view of a [`PackedNode`], for consumers outside the traversal
/// hot path (validation, statistics, serialization, debugging).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeKind {
    /// A leaf holding `count` primitive indices starting at `first` in the
    /// tree's primitive index buffer.
    Leaf {
        /// Offset of the first primitive index.
        first: u32,
        /// Number of primitives in the leaf.
        count: u32,
    },
    /// An inner node splitting its bounds by the plane `axis = pos`.
    Inner {
        /// Axis the split plane is perpendicular to.
        axis: Axis,
        /// Split plane position.
        pos: f32,
        /// Index of the left child (always the node's own index + 1).
        left: u32,
        /// Index of the right child (the `> pos` side).
        right: u32,
    },
}

/// A leaf-resident copy of one primitive: the triangle's vertices plus
/// the mesh index it came from. Leaves reference runs of these instead
/// of going `prim index → vertex-index triple → three scattered vertex
/// loads` per test — the gather happens once at flatten time, and the
/// traversal's triangle tests become a sequential read of one array.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LeafTri {
    /// Vertex positions, copied out of the mesh.
    pub(crate) tri: Triangle,
    /// Index of the source primitive (for hit reporting).
    pub(crate) prim: u32,
}

/// An immutable SAH kD-tree over a triangle mesh.
///
/// The tree owns an `Arc` of its mesh so queries need no extra arguments
/// and trees can outlive the scene structures that produced them.
#[derive(Clone, Debug)]
pub struct KdTree {
    mesh: Arc<TriangleMesh>,
    bounds: Aabb,
    nodes: Vec<PackedNode>,
    prim_indices: Vec<u32>,
    /// `prim_indices` with the triangles gathered in: `leaf_tris[i]` is
    /// the vertices of primitive `prim_indices[i]`, so a leaf's
    /// `[first, first+count)` range indexes both buffers.
    leaf_tris: Vec<LeafTri>,
    /// Depth of the deepest node (root = 0); bounds the traversal stack.
    max_depth: u32,
}

/// Gathers the per-leaf triangle copies for `prim_indices` (every index
/// must be in range — builders and the decoder both guarantee it).
fn gather_leaf_tris(mesh: &TriangleMesh, prim_indices: &[u32]) -> Vec<LeafTri> {
    prim_indices
        .iter()
        .map(|&p| LeafTri {
            tri: mesh.triangle(p as usize),
            prim: p,
        })
        .collect()
}

impl KdTree {
    /// Assembles a tree from packed preorder nodes and the leaves'
    /// primitive lists: gathers the leaf triangles and measures the
    /// traversal depth bound. Structural invariants are the caller's
    /// responsibility — [`crate::validate`] can re-check.
    pub(crate) fn from_raw_parts(
        mesh: Arc<TriangleMesh>,
        bounds: Aabb,
        nodes: Vec<PackedNode>,
        prim_indices: Vec<u32>,
    ) -> KdTree {
        let max_depth = measure_depth(&nodes);
        let leaf_tris = gather_leaf_tris(&mesh, &prim_indices);
        KdTree {
            mesh,
            bounds,
            nodes,
            prim_indices,
            leaf_tris,
            max_depth,
        }
    }

    /// The mesh the tree indexes.
    pub fn mesh(&self) -> &Arc<TriangleMesh> {
        &self.mesh
    }

    /// Root bounding box.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// All nodes, in depth-first preorder (root first, every inner node's
    /// left child immediately behind it).
    pub fn nodes(&self) -> &[PackedNode] {
        &self.nodes
    }

    /// Decoded view of the node at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn node_kind(&self, idx: u32) -> NodeKind {
        self.nodes[idx as usize].kind(idx)
    }

    /// The primitive index buffer leaves point into.
    pub fn prim_indices(&self) -> &[u32] {
        &self.prim_indices
    }

    /// The gathered leaf-triangle buffer, parallel to
    /// [`KdTree::prim_indices`] (the traversal's read target).
    #[inline(always)]
    pub(crate) fn leaf_tris(&self) -> &[LeafTri] {
        &self.leaf_tris
    }

    /// The primitive indices of a leaf node.
    ///
    /// # Panics
    /// Panics if `node` is not a leaf of this tree.
    pub fn leaf_prims(&self, node: PackedNode) -> &[u32] {
        assert!(node.is_leaf(), "leaf_prims called on an inner node");
        let first = node.prim_first() as usize;
        &self.prim_indices[first..first + node.prim_count() as usize]
    }

    /// Total primitive references across all leaves (counts duplicates).
    pub fn prim_references(&self) -> usize {
        self.prim_indices.len()
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest node (root = 0) — the exact bound on the
    /// traversal stack, used to select the allocation-free fast path.
    pub fn traversal_depth_bound(&self) -> u32 {
        self.max_depth
    }

    /// Bytes spent on the node array (8 per node).
    pub fn node_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PackedNode>()
    }

    /// Total bytes of the acceleration structure: packed nodes, the
    /// primitive index buffer and the gathered leaf-triangle copies (the
    /// mesh itself is not counted).
    pub fn memory_bytes(&self) -> usize {
        self.node_bytes()
            + self.prim_indices.len() * std::mem::size_of::<u32>()
            + self.leaf_tris.len() * std::mem::size_of::<LeafTri>()
    }
}

/// One node of a source tree, as [`flatten`] opens it.
pub(crate) enum Open<'a, N> {
    /// A leaf holding these primitives.
    Leaf(&'a [u32]),
    /// A lazy tree's deferred leaf naming this slot of its deferred table.
    Deferred(u32),
    /// A split at `axis = pos`, with its left and right child.
    Split(Axis, f32, N, N),
}

/// A tree written in depth-first preorder — each node, then its whole
/// left subtree (putting the left child at `node + 1`), then its right
/// subtree — with the leaves' primitive lists back to back: the arrays a
/// [`KdTree`] holds. The depth-first builders write their nodes straight
/// in here as they decide them.
#[derive(Default)]
pub(crate) struct Preorder {
    /// Packed nodes, root first.
    pub(crate) nodes: Vec<PackedNode>,
    /// The leaves' primitive lists, in node order.
    pub(crate) prims: Vec<u32>,
}

impl Preorder {
    /// Writes a leaf holding `ids`.
    pub(crate) fn leaf(&mut self, ids: &[u32]) {
        let first = self.prims.len() as u32;
        self.nodes.push(PackedNode::leaf(first, ids.len() as u32));
        self.prims.extend_from_slice(ids);
    }

    /// Reserves an inner node's slot; its left subtree is written next.
    pub(crate) fn open_split(&mut self) -> usize {
        self.nodes.push(PackedNode::leaf(0, 0));
        self.nodes.len() - 1
    }

    /// Fills slot `at` with a split at `axis = pos` once its left subtree
    /// is written: the right child is the next node.
    pub(crate) fn close_split(&mut self, at: usize, axis: Axis, pos: f32) {
        self.nodes[at] = PackedNode::inner(axis, pos, self.nodes.len() as u32);
    }

    /// Appends a subtree written into buffers of its own, shifting its
    /// right-child indices and leaf offsets to where it lands. A subtree
    /// holds no deferred leaf.
    pub(crate) fn append(&mut self, sub: &Preorder) {
        let (node_base, prim_base) = (self.nodes.len() as u32, self.prims.len() as u32);
        self.nodes.extend(sub.nodes.iter().map(|&n| {
            if n.is_leaf() {
                debug_assert!(n.deferred_slot().is_none());
                PackedNode::leaf(n.prim_first() + prim_base, n.prim_count())
            } else {
                PackedNode::inner(n.axis(), n.split_pos(), n.right_child() + node_base)
            }
        }));
        self.prims.extend_from_slice(&sub.prims);
    }
}

/// Packs a tree in preorder, reading the source tree one node at a time
/// through `open`; `capacity` nodes are expected.
pub(crate) fn flatten<'a, N>(
    root: N,
    capacity: usize,
    open: &mut impl FnMut(N) -> Open<'a, N>,
) -> Preorder {
    fn emit<'a, N>(node: N, open: &mut impl FnMut(N) -> Open<'a, N>, out: &mut Preorder) {
        match open(node) {
            Open::Leaf(ids) => out.leaf(ids),
            Open::Deferred(slot) => out.nodes.push(PackedNode::deferred(slot)),
            Open::Split(axis, pos, left, right) => {
                let at = out.open_split();
                emit(left, open, out);
                out.close_split(at, axis, pos);
                emit(right, open, out);
            }
        }
    }
    let mut out = Preorder {
        nodes: Vec::with_capacity(capacity),
        prims: Vec::new(),
    };
    emit(root, open, &mut out);
    out
}

/// Depth of the deepest node in a packed array (root = 0). A visit budget of
/// one per stored node keeps corrupt (cyclic) inputs from hanging — such
/// arrays are rejected by [`crate::validate`] anyway, and an inflated
/// bound only costs the traversal its fixed-stack fast path.
fn measure_depth(nodes: &[PackedNode]) -> u32 {
    let mut max = 0u32;
    let mut budget = nodes.len();
    let mut stack: Vec<(u32, u32)> = vec![(0, 0)];
    while let Some((idx, depth)) = stack.pop() {
        if budget == 0 {
            return u32::MAX;
        }
        budget -= 1;
        max = max.max(depth);
        if let Some(n) = nodes.get(idx as usize) {
            if !n.is_leaf() {
                stack.push((idx + 1, depth + 1));
                stack.push((n.right_child(), depth + 1));
            }
        }
    }
    max
}

/// A tree whose root-to-leaf spine runs `depth` splits down the right
/// side, `axis = pos(d)` at depth `d`; every left child is an empty
/// leaf and the bottom leaf holds `prims`.
#[cfg(test)]
pub(crate) fn right_spine(
    mesh: Arc<TriangleMesh>,
    depth: u32,
    axis: Axis,
    pos: impl Fn(u32) -> f32,
    prims: &[u32],
) -> KdTree {
    let mut out = Preorder::default();
    for d in 0..depth {
        let at = out.open_split();
        out.leaf(&[]);
        out.close_split(at, axis, pos(d));
    }
    out.leaf(prims);
    let bounds = mesh.bounds();
    KdTree::from_raw_parts(mesh, bounds, out.nodes, out.prims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_geometry::{Triangle, Vec3};

    fn mesh2() -> Arc<TriangleMesh> {
        let mut m = TriangleMesh::new();
        m.push_triangle(Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y));
        m.push_triangle(Triangle::new(Vec3::Z, Vec3::X + Vec3::Z, Vec3::Y + Vec3::Z));
        Arc::new(m)
    }

    #[test]
    fn packed_node_is_8_bytes() {
        assert_eq!(std::mem::size_of::<PackedNode>(), 8);
    }

    #[test]
    fn packed_round_trips_fields() {
        let leaf = PackedNode::leaf(123, 45);
        assert!(leaf.is_leaf());
        assert_eq!(leaf.prim_first(), 123);
        assert_eq!(leaf.prim_count(), 45);
        let inner = PackedNode::inner(Axis::Z, -1.25, 999);
        assert!(!inner.is_leaf());
        assert_eq!(inner.axis(), Axis::Z);
        assert_eq!(inner.split_pos(), -1.25);
        assert_eq!(inner.right_child(), 999);
        let (w, d) = inner.to_raw();
        assert_eq!(PackedNode::from_raw(w, d), inner);
    }

    /// Two leaves under a split at `axis = 0.5`, written in preorder.
    fn two_leaves(mesh: Arc<TriangleMesh>, axis: Axis) -> KdTree {
        let mut out = Preorder::default();
        let at = out.open_split();
        out.leaf(&[0]);
        out.close_split(at, axis, 0.5);
        out.leaf(&[1]);
        let bounds = mesh.bounds();
        KdTree::from_raw_parts(mesh, bounds, out.nodes, out.prims)
    }

    #[test]
    fn flatten_single_leaf() {
        let mesh = mesh2();
        let bounds = mesh.bounds();
        let mut out = Preorder::default();
        out.leaf(&[0, 1]);
        let tree = KdTree::from_raw_parts(mesh, bounds, out.nodes, out.prims);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.leaf_prims(tree.nodes()[0]), &[0, 1]);
        assert_eq!(tree.prim_references(), 2);
        assert_eq!(tree.traversal_depth_bound(), 0);
        assert_eq!(tree.node_bytes(), 8);
    }

    #[test]
    fn flatten_inner_preserves_structure() {
        let tree = two_leaves(mesh2(), Axis::Z);
        assert_eq!(tree.node_count(), 3);
        match tree.node_kind(0) {
            NodeKind::Inner {
                axis,
                pos,
                left,
                right,
            } => {
                assert_eq!(axis, Axis::Z);
                assert_eq!(pos, 0.5);
                assert_eq!(left, 1, "left child must be adjacent");
                assert_eq!(tree.leaf_prims(tree.nodes()[left as usize]), &[0]);
                assert_eq!(tree.leaf_prims(tree.nodes()[right as usize]), &[1]);
            }
            _ => panic!("root should be inner"),
        }
        assert_eq!(tree.traversal_depth_bound(), 1);
    }

    #[test]
    #[should_panic(expected = "leaf_prims called on an inner node")]
    fn leaf_prims_rejects_inner() {
        let tree = two_leaves(mesh2(), Axis::X);
        let inner = tree.nodes()[0];
        let _ = tree.leaf_prims(inner);
    }

    #[test]
    fn deep_unbalanced_tree_flattens() {
        // A spine of 100 inner nodes, written through `flatten` from a
        // source tree whose node `d` splits off leaf [1] to the right and
        // continues left; the bottom leaf is [0].
        let out = flatten(0u32, 201, &mut |d| match d {
            100 => Open::Leaf(&[0]),
            101 => Open::Leaf(&[1]),
            d => Open::Split(Axis::X, (99 - d) as f32, d + 1, 101),
        });
        let mesh = mesh2();
        let bounds = mesh.bounds();
        let tree = KdTree::from_raw_parts(mesh, bounds, out.nodes, out.prims);
        assert_eq!(tree.node_count(), 201);
        assert_eq!(tree.traversal_depth_bound(), 100);
        // Every leaf must be reachable: count leaves.
        let leaves = tree.nodes().iter().filter(|n| n.is_leaf()).count();
        assert_eq!(leaves, 101);
        // Left-child adjacency holds everywhere.
        for (i, n) in tree.nodes().iter().enumerate() {
            if let NodeKind::Inner { left, right, .. } = n.kind(i as u32) {
                assert_eq!(left, i as u32 + 1);
                assert!(right > left);
            }
        }
    }

    #[test]
    fn appended_subtree_lands_where_writing_it_in_place_would() {
        let write = |out: &mut Preorder, base: u32| {
            let at = out.open_split();
            out.leaf(&[base, base + 1]);
            out.close_split(at, Axis::Y, base as f32);
            out.leaf(&[base + 2]);
        };
        let mut whole = Preorder::default();
        let root = whole.open_split();
        write(&mut whole, 0);
        whole.close_split(root, Axis::X, 0.5);
        write(&mut whole, 10);
        let mut joined = Preorder::default();
        let root = joined.open_split();
        write(&mut joined, 0);
        joined.close_split(root, Axis::X, 0.5);
        let mut right = Preorder::default();
        write(&mut right, 10);
        joined.append(&right);
        assert_eq!(joined.nodes, whole.nodes);
        assert_eq!(joined.prims, whole.prims);
    }

    #[test]
    fn raw_parts_recompute_depth_bound() {
        let mesh = mesh2();
        let bounds = mesh.bounds();
        let tree = two_leaves(mesh.clone(), Axis::X);
        let rebuilt = KdTree::from_raw_parts(
            mesh,
            bounds,
            tree.nodes().to_vec(),
            tree.prim_indices().to_vec(),
        );
        assert_eq!(
            rebuilt.traversal_depth_bound(),
            tree.traversal_depth_bound()
        );
    }
}
