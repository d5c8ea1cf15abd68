//! One timed build and render: the region a Fig. 4 cycle measures.
//!
//! It lives next to the renderer so the generic render kernels are
//! instantiated here, at this crate's optimization level, whichever crate
//! drives the loop.

use crate::camera::Camera;
use crate::render::{render_with_options, RenderOptions, RenderStats};
use kdtune_geometry::{TriangleMesh, Vec3};
use kdtune_kdtree::{build, Algorithm, BuildParams, BuiltTree, PacketCounters};
use std::sync::Arc;
use std::time::Instant;

/// One timed build and render.
pub struct TimedFrame {
    /// The tree the frame built.
    pub tree: BuiltTree,
    /// Construction time (`t_c`), seconds.
    pub build_secs: f64,
    /// Rendering time (`t_r`), seconds.
    pub render_secs: f64,
    /// Renderer counters.
    pub stats: RenderStats,
    /// Packet-traversal counters (all zero on scalar renders).
    pub packet: PacketCounters,
}

impl TimedFrame {
    /// The frame's cost `t_c + t_r`, seconds.
    pub fn total_secs(&self) -> f64 {
        self.build_secs + self.render_secs
    }
}

/// Builds `mesh` with explicit parameters and renders one frame, timing
/// each part — a tuned cycle and the `C_base` baseline measure the same
/// region.
pub fn timed_frame(
    mesh: Arc<TriangleMesh>,
    algorithm: Algorithm,
    params: &BuildParams,
    camera: &Camera,
    light: Vec3,
    options: &RenderOptions,
) -> TimedFrame {
    let t0 = Instant::now();
    let tree = build(mesh, algorithm, params);
    let build_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    // The image is dropped after the clock stops: freeing it is not render work.
    let (_image, stats, packet) = render_with_options(&tree, tree.mesh(), camera, light, options);
    let render_secs = t1.elapsed().as_secs_f64();
    TimedFrame {
        tree,
        build_secs,
        render_secs,
        stats,
        packet,
    }
}
