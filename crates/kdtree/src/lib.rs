//! # kdtune-kdtree
//!
//! SAH kD-trees over triangle meshes with the four parallel construction
//! algorithms evaluated in *Online-Autotuning of Parallel SAH kD-Trees*
//! (Tillmann et al., 2016):
//!
//! | Algorithm | Paper § | Strategy |
//! |-----------|---------|----------|
//! | [`Algorithm::NodeLevel`] | IV-A | depth-first recursion, parallel over independent subtrees (Wald & Havran + tasking) |
//! | [`Algorithm::Nested`]    | IV-B | node-level + parallel processing of the primitive lists inside nodes (Choi et al.) |
//! | [`Algorithm::InPlace`]   | IV-C | breadth-first, one tree level at a time, parallel over primitives (Choi et al.) |
//! | [`Algorithm::Lazy`]      | IV-D | in-place down to a resolution `R`, nodes expanded on first ray contact |
//!
//! All four share the tunable parameters of the paper's Table I: the SAH
//! costs `CI` (intersection) and `CB` (duplication) with `CT` fixed at 10,
//! and the parallel granularity knob `S` (max subtrees per thread). The
//! lazy variant adds `R`, the minimal node resolution.
//!
//! ```
//! use kdtune_geometry::{Ray, TriangleMesh, Vec3};
//! use kdtune_kdtree::{build, Algorithm, BuildParams, RayQuery};
//! use std::sync::Arc;
//!
//! let mut mesh = TriangleMesh::new();
//! mesh.push_triangle(kdtune_geometry::Triangle::new(
//!     Vec3::new(0.0, 0.0, 0.0),
//!     Vec3::new(1.0, 0.0, 0.0),
//!     Vec3::new(0.0, 1.0, 0.0),
//! ));
//! let tree = build(Arc::new(mesh), Algorithm::NodeLevel, &BuildParams::default());
//! let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
//! assert!(tree.intersect(&ray, 0.0, f32::INFINITY).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod io;
mod lazy_tree;
mod point_query;
mod query;
mod sah;
pub mod scan;
mod split;
mod stats;
mod traverse;
mod traverse_packet;
mod tree;
mod validate;

pub use build::{build, build_median, Algorithm, BuildParams};
pub use lazy_tree::LazyKdTree;
pub use point_query::{brute_force_knn, brute_force_radius, Neighbor, PrimStamps};
pub use query::{BuiltTree, RayQuery};
pub use sah::SahParams;
pub use split::{best_split_naive, best_split_sweep, best_split_sweep_idx, classify, SplitPlane};
pub use stats::TreeStats;
pub use traverse::{brute_force_intersect, TraversalCounters, FIXED_TRAVERSAL_STACK};
pub use traverse_packet::PacketCounters;
pub use tree::{KdTree, NodeKind, PackedNode, MAX_NODE_PAYLOAD};
pub use validate::{validate, ValidationError};
