//! # kdtune-geometry
//!
//! 3D math substrate for the kdtune workspace: vectors, axes, axis-aligned
//! bounding boxes, rays, triangles, triangle meshes, affine transforms and a
//! minimal Wavefront OBJ reader/writer.
//!
//! Everything is `f32`-based (the norm in interactive ray tracing) and kept
//! deliberately small: this crate has no dependencies and no `unsafe`.
//!
//! ## Quick example
//!
//! ```
//! use kdtune_geometry::{Vec3, Triangle, Ray};
//!
//! let tri = Triangle::new(
//!     Vec3::new(0.0, 0.0, 0.0),
//!     Vec3::new(1.0, 0.0, 0.0),
//!     Vec3::new(0.0, 1.0, 0.0),
//! );
//! let ray = Ray::new(Vec3::new(0.25, 0.25, -1.0), Vec3::new(0.0, 0.0, 1.0));
//! let hit = tri.intersect(&ray, 0.0, f32::INFINITY).unwrap();
//! assert!((hit.t - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
mod axis;
mod mesh;
pub mod obj;
mod packet;
mod ray;
mod transform;
mod triangle;
mod vec3;

pub use aabb::Aabb;
pub use axis::Axis;
pub use mesh::TriangleMesh;
pub use packet::{PacketFrustum, PacketHit, RayPacket};
pub use ray::{Hit, Ray};
pub use transform::Transform;
pub use triangle::Triangle;
pub use vec3::Vec3;

/// Convenience epsilon used throughout the workspace for geometric
/// comparisons at scene scale.
pub const EPS: f32 = 1e-6;
