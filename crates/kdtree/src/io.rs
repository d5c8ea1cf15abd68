//! Binary serialization of built trees (and their meshes).
//!
//! A small, versioned, little-endian format so applications can build a
//! tree offline (or on another machine) and memory-load it at startup —
//! the usual complement to fast *online* construction. Hand-rolled: the
//! data is all plain `f32`/`u32` arrays, no serde needed.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "KDT2"                        4 bytes
//! nv      vertex count                  u64
//! nt      triangle count                u64
//! nn      node count                    u64
//! np      prim-index count              u64
//! bounds  min.xyz, max.xyz              6 × f32
//! verts   nv × 3 × f32
//! tris    nt × 3 × u32
//! nodes   nn × (word u32, data u32)
//! prims   np × u32
//! ```
//!
//! Node records are the in-memory [`PackedNode`] pair verbatim: the low
//! two bits of `word` are the tag (0–2 = inner split axis, 3 = leaf), the
//! high 30 bits the right-child index (inner) or first-prim offset
//! (leaf); `data` is the split position's `f32` bits (inner) or the prim
//! count (leaf). Left children are implicit at `index + 1` — decoded
//! inner nodes are checked for that preorder shape, and a lazy tree's
//! deferred leaf (count `u32::MAX`) is rejected. Each header count is
//! checked against the bytes left before anything is allocated for it.

use crate::tree::{KdTree, PackedNode};
use kdtune_geometry::{Aabb, TriangleMesh, Vec3};
use std::io;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"KDT2";

/// Deserialization failure.
#[derive(Debug)]
pub enum DecodeError {
    /// Wrong magic bytes.
    BadMagic,
    /// Input ended early, or a header count needs more bytes than are
    /// left.
    Truncated,
    /// A structural field holds an invalid value.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a KDT2 tree file"),
            DecodeError::Truncated => write!(f, "truncated tree file"),
            DecodeError::Corrupt(what) => write!(f, "corrupt tree file: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn vec3(&mut self, v: Vec3) {
        self.f32(v.x);
        self.f32(v.y);
        self.f32(v.z);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn vec3(&mut self) -> Result<Vec3, DecodeError> {
        Ok(Vec3::new(self.f32()?, self.f32()?, self.f32()?))
    }
    /// Reads a `u64` count of `size`-byte records and checks that they
    /// fit in the input left, so a forged header cannot make the decoder
    /// allocate more than the input backs.
    fn count(&mut self, size: usize) -> Result<usize, DecodeError> {
        let n = usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)?;
        match n.checked_mul(size) {
            Some(bytes) if bytes <= self.buf.len() - self.at => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }
}

/// Serializes a tree (mesh included) to bytes, in the current `KDT2`
/// packed format.
pub fn encode(tree: &KdTree) -> Vec<u8> {
    let mesh = tree.mesh();
    let mut w = Writer {
        buf: Vec::with_capacity(
            64 + mesh.vertices.len() * 12 + mesh.indices.len() * 12 + tree.node_count() * 8,
        ),
    };
    w.buf.extend_from_slice(MAGIC);
    w.u64(mesh.vertices.len() as u64);
    w.u64(mesh.indices.len() as u64);
    w.u64(tree.node_count() as u64);
    w.u64(tree.prim_references() as u64);
    w.vec3(tree.bounds().min);
    w.vec3(tree.bounds().max);
    for v in &mesh.vertices {
        w.vec3(*v);
    }
    for [a, b, c] in &mesh.indices {
        w.u32(*a);
        w.u32(*b);
        w.u32(*c);
    }
    for node in tree.nodes() {
        let (word, data) = node.to_raw();
        w.u32(word);
        w.u32(data);
    }
    for p in tree.prim_indices() {
        w.u32(*p);
    }
    w.buf
}

/// Deserializes a `KDT2` tree (with its mesh) from bytes.
pub fn decode(bytes: &[u8]) -> Result<KdTree, DecodeError> {
    let mut r = Reader { buf: bytes, at: 0 };
    if r.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let nv = r.count(12)?;
    let nt = r.count(12)?;
    let nn = r.count(8)?;
    let np = r.count(4)?;
    let bounds = Aabb::new(r.vec3()?, r.vec3()?);
    let mut vertices = Vec::with_capacity(nv);
    for _ in 0..nv {
        vertices.push(r.vec3()?);
    }
    let mut indices = Vec::with_capacity(nt);
    for _ in 0..nt {
        let (a, b, c) = (r.u32()?, r.u32()?, r.u32()?);
        if a as usize >= nv || b as usize >= nv || c as usize >= nv {
            return Err(DecodeError::Corrupt("triangle index out of range"));
        }
        indices.push([a, b, c]);
    }
    let mut nodes = Vec::with_capacity(nn);
    let mut prim_total = 0usize;
    for i in 0..nn {
        let word = r.u32()?;
        let data = r.u32()?;
        let node = PackedNode::from_raw(word, data);
        if node.deferred_slot().is_some() {
            return Err(DecodeError::Corrupt("deferred leaf in an eager tree"));
        }
        if node.is_leaf() {
            if node.prim_first() as usize != prim_total {
                return Err(DecodeError::Corrupt("leaf ranges not contiguous"));
            }
            prim_total += node.prim_count() as usize;
        } else {
            let right = node.right_child() as usize;
            // Preorder: the left child is adjacent, the right child must
            // leave room for at least a one-node left subtree.
            if right < i + 2 || right >= nn {
                return Err(DecodeError::Corrupt("bad child index"));
            }
        }
        nodes.push(node);
    }
    if prim_total != np {
        return Err(DecodeError::Corrupt("prim count mismatch"));
    }
    let mut prim_indices = Vec::with_capacity(np);
    for _ in 0..np {
        let p = r.u32()?;
        if p as usize >= nt {
            return Err(DecodeError::Corrupt("prim index out of range"));
        }
        prim_indices.push(p);
    }
    let mesh = Arc::new(TriangleMesh::from_buffers(vertices, indices));
    Ok(KdTree::from_raw_parts(mesh, bounds, nodes, prim_indices))
}

/// Writes a tree to a file.
pub fn save(tree: &KdTree, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, encode(tree))
}

/// Reads a tree from a file.
pub fn load(path: impl AsRef<Path>) -> io::Result<KdTree> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, validate, Algorithm, BuildParams};
    use kdtune_geometry::Ray;
    use kdtune_scenes::{wood_doll, SceneParams};

    fn tree() -> KdTree {
        let mesh = wood_doll(&SceneParams::tiny()).frame(0);
        match build(mesh, Algorithm::InPlace, &BuildParams::default()) {
            crate::BuiltTree::Eager(t) => t,
            _ => unreachable!(),
        }
    }

    /// Byte offset where node records start.
    fn nodes_offset(t: &KdTree) -> usize {
        4 + 32 + 24 + t.mesh().vertices.len() * 12 + t.mesh().indices.len() * 12
    }

    #[test]
    fn encode_emits_current_version_tag() {
        assert_eq!(&encode(&tree())[..4], b"KDT2");
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = tree();
        let decoded = decode(&encode(&original)).expect("round trip");
        assert_eq!(original.nodes(), decoded.nodes());
        assert_eq!(original.bounds(), decoded.bounds());
        assert_eq!(original.mesh().vertices, decoded.mesh().vertices);
        assert_eq!(original.mesh().indices, decoded.mesh().indices);
        assert_eq!(
            original.traversal_depth_bound(),
            decoded.traversal_depth_bound()
        );
        validate(&decoded).expect("decoded tree valid");
        // Query equivalence.
        for i in 0..20 {
            let a = i as f32 * 0.31;
            let ray = Ray::new(
                Vec3::new(4.0 * a.cos(), 2.0, 4.0 * a.sin()),
                (Vec3::new(0.0, 1.2, 0.0) - Vec3::new(4.0 * a.cos(), 2.0, 4.0 * a.sin()))
                    .normalized(),
            );
            assert_eq!(
                original.intersect(&ray, 1e-4, f32::INFINITY),
                decoded.intersect(&ray, 1e-4, f32::INFINITY),
                "ray {i}"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("kdtune_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.kdt");
        let original = tree();
        save(&original, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(original.nodes(), loaded.nodes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            decode(b"nope"),
            Err(DecodeError::Truncated) | Err(DecodeError::BadMagic)
        ));
        assert!(matches!(decode(b"XXXX____"), Err(DecodeError::BadMagic)));
        // The retired KDT1 format is not read either.
        let mut v1 = encode(&tree());
        v1[..4].copy_from_slice(b"KDT1");
        assert!(matches!(decode(&v1), Err(DecodeError::BadMagic)));
        // Valid magic, truncated body.
        let mut bytes = encode(&tree());
        bytes.truncate(bytes.len() / 2);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn forged_header_counts_fail_without_allocating() {
        // 68 bytes claiming 2^40 vertices: sizing the vertex buffer from
        // the header alone asked for 12 TiB and aborted the process.
        let mut bytes = b"KDT2".to_vec();
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.resize(68, 0);
        assert!(matches!(decode(&bytes), Err(DecodeError::Truncated)));
        // Every count is bounded, up to u64::MAX.
        let valid = encode(&tree());
        for field in 0..4 {
            for forged in [1u64 << 40, u64::MAX] {
                let mut bytes = valid.clone();
                bytes[4 + 8 * field..12 + 8 * field].copy_from_slice(&forged.to_le_bytes());
                assert!(
                    matches!(decode(&bytes), Err(DecodeError::Truncated)),
                    "count {field} = {forged}"
                );
            }
        }
    }

    #[test]
    fn rejects_tampered_child_index() {
        let original = tree();
        let bytes = encode(&original);
        let mut bad = bytes.clone();
        // Locate an inner record (tag bits != 3) and zero its right-child
        // payload so it points backwards.
        let mut off = nodes_offset(&original);
        loop {
            let word = u32::from_le_bytes(bad[off..off + 4].try_into().unwrap());
            if word & 3 != 3 {
                bad[off..off + 4].copy_from_slice(&(word & 3).to_le_bytes());
                break;
            }
            off += 8;
        }
        assert!(matches!(decode(&bad), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn rejects_deferred_leaf() {
        let original = tree();
        let mut bad = encode(&original);
        // Mark the first leaf record deferred: count u32::MAX.
        let mut off = nodes_offset(&original);
        while u32::from_le_bytes(bad[off..off + 4].try_into().unwrap()) & 3 != 3 {
            off += 8;
        }
        bad[off + 4..off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bad),
            Err(DecodeError::Corrupt("deferred leaf in an eager tree"))
        ));
    }
}
