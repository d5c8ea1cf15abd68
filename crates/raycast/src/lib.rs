//! # kdtune-raycast
//!
//! The ray casting renderer the paper's Figure 4 loop measures: *register
//! parameters → (start measurement → build kD-tree → render → stop
//! measurement → advance frame)\**. The loop itself is
//! `kdtune::TunedPipeline`.
//!
//! Ray casting (Appel 1968) is deliberately simple — one primary ray per
//! pixel, one shadow ray per hit — so that measured frame time is
//! dominated by the spatial data structure, which is what is being tuned.
//!
//! ```
//! use kdtune_geometry::{Triangle, TriangleMesh, Vec3};
//! use kdtune_kdtree::{build, Algorithm, BuildParams};
//! use kdtune_raycast::{render, Camera};
//! use std::sync::Arc;
//!
//! let mut mesh = TriangleMesh::new();
//! mesh.push_triangle(Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y));
//! let tree = build(Arc::new(mesh), Algorithm::InPlace, &BuildParams::default());
//! let cam = Camera::look_at(Vec3::new(0.3, 0.3, -2.0), Vec3::ZERO, Vec3::Y, 60.0, 32, 32);
//! let (image, stats) = render(&tree, &cam, Vec3::new(0.0, 0.0, -5.0));
//! assert_eq!(image.width(), 32);
//! assert!(stats.primary_hits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod camera;
mod frame;
mod framebuffer;
mod render;
mod shade;

pub use camera::{Camera, RayTable};
pub use frame::{timed_frame, TimedFrame};
pub use framebuffer::Framebuffer;
pub use render::{render, render_with, render_with_options, RenderOptions, RenderStats};
pub use shade::shade;
