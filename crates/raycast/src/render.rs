//! The parallel ray caster (paper §V-A).

use crate::camera::{Camera, RayTable};
use crate::framebuffer::Framebuffer;
use crate::shade::shade;
use kdtune_geometry::{Hit, Ray, RayPacket, Vec3};
use kdtune_kdtree::scan::par_map;
use kdtune_kdtree::{BuiltTree, PacketCounters, RayQuery};

/// Offset applied to secondary ray origins to avoid self-intersection.
const SHADOW_BIAS: f32 = 1e-3;

/// Rows per render tile. Small enough to load-balance across threads on
/// low resolutions, large enough that per-tile overhead stays noise.
/// Divisible by every packet tile height (2 and 4), so packet tiles
/// never straddle a band boundary.
const TILE_ROWS: u32 = 8;

/// Packet widths the renderer can dispatch to (`1` = scalar).
pub const PACKET_WIDTHS: [u32; 4] = [1, 4, 8, 16];

/// How a frame is traced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenderOptions {
    /// Rays per packet: `0` or `1` renders scalar; `4`, `8` and `16`
    /// trace the primary rays of coherent pixel tiles (2×2, 4×2, 4×4)
    /// through the packet traversal. Shadow rays are scalar at every
    /// width. Every width produces bit-identical images and
    /// [`RenderStats`].
    pub packet_width: u32,
    /// Divergence threshold forwarded to the packet traversal: packet
    /// steps with fewer active lanes hand those lanes to the scalar
    /// path. `0` or `1` keeps packets together to the end. Clamped to
    /// the packet width at use.
    pub packet_min_active: u32,
    /// Enable the O(1) interval-frustum split classification in the
    /// packet traversal. Purely a fast path — images are bit-identical
    /// on or off.
    pub frustum: bool,
}

impl Default for RenderOptions {
    fn default() -> RenderOptions {
        RenderOptions {
            packet_width: 1,
            packet_min_active: 2,
            frustum: true,
        }
    }
}

impl RenderOptions {
    /// Scalar rendering (the default).
    pub fn scalar() -> RenderOptions {
        RenderOptions::default()
    }

    /// This configuration at the given packet width (`0`/`1` = scalar).
    pub fn with_packet_width(self, width: u32) -> RenderOptions {
        RenderOptions {
            packet_width: width,
            ..self
        }
    }

    /// Whether any packet path is active.
    pub fn uses_packets(&self) -> bool {
        self.packet_width > 1
    }

    /// True when `width` is a packet width the renderer can dispatch
    /// (see [`PACKET_WIDTHS`]; `0` is accepted as an alias for scalar).
    pub fn valid_packet_width(width: u32) -> bool {
        width == 0 || PACKET_WIDTHS.contains(&width)
    }
}

/// Counters collected during a render.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Primary rays cast (= pixels).
    pub primary_rays: u64,
    /// Primary rays that hit geometry.
    pub primary_hits: u64,
    /// Shadow rays cast (one per primary hit).
    pub shadow_rays: u64,
    /// Shadow rays that found an occluder.
    pub occluded: u64,
}

impl RenderStats {
    fn merge(self, o: RenderStats) -> RenderStats {
        RenderStats {
            primary_rays: self.primary_rays + o.primary_rays,
            primary_hits: self.primary_hits + o.primary_hits,
            shadow_rays: self.shadow_rays + o.shadow_rays,
            occluded: self.occluded + o.occluded,
        }
    }
}

/// Renders one frame: a primary ray per pixel, a shadow ray to the point
/// light per hit. Row-band tiles are distributed over the Rayon pool via
/// [`par_map`] — rays are independent, which is also what lets the lazy
/// tree expand from multiple threads at once.
pub fn render(tree: &BuiltTree, camera: &Camera, light: Vec3) -> (Framebuffer, RenderStats) {
    render_with(tree, tree.mesh(), camera, light)
}

/// Structure-agnostic variant of [`render`]: shoots the same rays through
/// any [`RayQuery`] implementation (a [`kdtune_kdtree::KdTree`], a lazy
/// tree, brute force, …) over the given mesh.
///
/// The framebuffer is allocated once and tiles render directly into
/// disjoint slices of it — no per-row buffers, no reassembly copy.
/// Per-tile [`RenderStats`] are plain sums, so their merge is
/// order-independent and the totals are identical at any thread count.
pub fn render_with(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    camera: &Camera,
    light: Vec3,
) -> (Framebuffer, RenderStats) {
    let (fb, stats, _) = render_with_options(query, mesh, camera, light, &RenderOptions::default());
    (fb, stats)
}

/// Per-band accumulators: render counters plus packet-traversal work.
#[derive(Clone, Copy, Default)]
struct BandStats {
    render: RenderStats,
    packet: PacketCounters,
}

/// Shades one primary hit, casting its shadow ray through the scalar
/// query. The single per-pixel shading sequence: the packet path traces
/// its primaries in packets and shades their hits here too.
#[inline]
fn shade_scalar_hit(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    light: Vec3,
    ray: &Ray,
    hit: Hit,
    stats: &mut RenderStats,
) -> Vec3 {
    stats.primary_hits += 1;
    let tri = mesh.triangle(hit.prim);
    let point = ray.at(hit.t);
    let to_light = light - point;
    let dist = to_light.length();
    let shadow = Ray::new(point, to_light.normalized());
    stats.shadow_rays += 1;
    let occluded = query.intersect_any(&shadow, SHADOW_BIAS, dist - SHADOW_BIAS);
    stats.occluded += occluded as u64;
    shade(&tri, hit.prim, point, light, occluded)
}

/// One scalar pixel: primary ray, intersection, shading.
#[inline]
fn render_pixel_scalar(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    rays: &RayTable,
    light: Vec3,
    x: u32,
    y: u32,
    stats: &mut RenderStats,
) -> Vec3 {
    let ray = rays.primary_ray(x, y);
    stats.primary_rays += 1;
    match query.intersect(&ray, 0.0, f32::INFINITY) {
        None => Vec3::ZERO, // background
        Some(hit) => shade_scalar_hit(query, mesh, light, &ray, hit, stats),
    }
}

/// Pixel tile shape for a `W`-wide packet: 2×2, 4×2 or 4×4 —
/// near-square tiles keep adjacent lanes' rays maximally coherent.
#[inline(always)]
const fn tile_shape(w: usize) -> (u32, u32) {
    match w {
        4 => (2, 2),
        8 => (4, 2),
        16 => (4, 4),
        _ => (1, 1),
    }
}

/// Renders the packet-tiled region of one row band at width `W`: each
/// pixel tile's primary rays are traced as one packet, and every hit is
/// shaded through [`shade_scalar_hit`], shadow ray included — the scalar
/// path's own sequence. Shadow rays start on scattered surface points
/// and share no origin, so the shared packet loop and the frustum test
/// gain nothing on them: traced scalar they took less time than in
/// octant-bucketed packets (see DESIGN.md, packet traversal).
///
/// Remainder pixels (columns right of the last full tile, rows below
/// the last full tile row) are rendered scalar by the caller.
#[allow(clippy::too_many_arguments)]
fn render_band_packet<const W: usize>(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    rays: &RayTable,
    light: Vec3,
    first_row: u32,
    width: u32,
    band: &mut [Vec3],
    options: &RenderOptions,
    acc: &mut BandStats,
) {
    let rows = band.len() as u32 / width;
    let (tile_w, tile_h) = tile_shape(W);
    let min_active = options.packet_min_active.min(W as u32);
    for ty in 0..rows / tile_h {
        let y = first_row + ty * tile_h;
        for tx in 0..width / tile_w {
            let x = tx * tile_w;
            // Lane order: x-major within the tile.
            let prim_rays: [Ray; W] = std::array::from_fn(|l| {
                rays.primary_ray(x + l as u32 % tile_w, y + l as u32 / tile_w)
            });
            let packet = RayPacket::new(prim_rays, [f32::INFINITY; W]);
            acc.render.primary_rays += W as u64;
            let tile_hits =
                query.intersect_packet(&packet, 0.0, min_active, options.frustum, &mut acc.packet);
            for (l, hit) in tile_hits.into_iter().enumerate() {
                let (px, py) = (x + l as u32 % tile_w, y + l as u32 / tile_w);
                band[((py - first_row) * width + px) as usize] = match hit {
                    None => Vec3::ZERO, // background
                    Some(hit) => {
                        shade_scalar_hit(query, mesh, light, packet.ray(l), hit, &mut acc.render)
                    }
                };
            }
        }
    }
}

/// Renders one row band at width `W`: the tiled region through
/// [`render_band_packet`], remainder columns and rows scalar.
#[allow(clippy::too_many_arguments)]
fn render_band<const W: usize>(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    rays: &RayTable,
    light: Vec3,
    first_row: u32,
    width: u32,
    band: &mut [Vec3],
    options: &RenderOptions,
) -> BandStats {
    let mut acc = BandStats::default();
    let rows = band.len() as u32 / width;
    let (tile_w, tile_h) = tile_shape(W);
    let tiled_cols = (width / tile_w) * tile_w;
    let tiled_rows = (rows / tile_h) * tile_h;
    render_band_packet::<W>(
        query, mesh, rays, light, first_row, width, band, options, &mut acc,
    );
    // Odd width: the rightmost columns render scalar.
    for rel_y in 0..tiled_rows {
        for x in tiled_cols..width {
            let idx = (rel_y * width + x) as usize;
            band[idx] = render_pixel_scalar(
                query,
                mesh,
                rays,
                light,
                x,
                first_row + rel_y,
                &mut acc.render,
            );
        }
    }
    // Leftover rows (only the frame's last band, when the height is not
    // a multiple of the tile height): render scalar.
    for rel_y in tiled_rows..rows {
        for x in 0..width {
            let idx = (rel_y * width + x) as usize;
            band[idx] = render_pixel_scalar(
                query,
                mesh,
                rays,
                light,
                x,
                first_row + rel_y,
                &mut acc.render,
            );
        }
    }
    acc
}

/// [`render_with`] with explicit [`RenderOptions`]; additionally returns
/// the frame's accumulated [`PacketCounters`] (all-zero for scalar
/// renders). The packet path walks each row band in `W`-lane pixel
/// tiles (2×2, 4×2 or 4×4), tracing the primary rays through the packet
/// traversal and their shadow rays scalar; remainder pixels (widths or
/// band heights that are not tile multiples) take the scalar path. Images
/// and [`RenderStats`] are bit-identical across every width, frustum
/// mode and thread count.
pub fn render_with_options(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    camera: &Camera,
    light: Vec3,
    options: &RenderOptions,
) -> (Framebuffer, RenderStats, PacketCounters) {
    let width = camera.width();
    let mut fb = Framebuffer::new_black(width, camera.height());
    let rays = camera.ray_table();
    let bands = fb.row_bands_mut(TILE_ROWS);
    let threads = rayon::current_num_threads().max(1);
    // Several tiles per thread for load balance; one task means par_map
    // runs inline on the calling thread.
    let tasks = if threads <= 1 {
        1
    } else {
        (threads * 4).min(bands.len())
    };
    let band_stats = par_map(
        bands,
        tasks,
        &|(first_row, band): (u32, &mut [Vec3])| match options.packet_width {
            4 => render_band::<4>(query, mesh, &rays, light, first_row, width, band, options),
            8 => render_band::<8>(query, mesh, &rays, light, first_row, width, band, options),
            16 => render_band::<16>(query, mesh, &rays, light, first_row, width, band, options),
            _ => {
                let mut acc = BandStats::default();
                for (i, pixel) in band.iter_mut().enumerate() {
                    let x = i as u32 % width;
                    let y = first_row + i as u32 / width;
                    *pixel = render_pixel_scalar(query, mesh, &rays, light, x, y, &mut acc.render);
                }
                acc
            }
        },
    );
    let totals = band_stats
        .into_iter()
        .fold(BandStats::default(), |a, b| BandStats {
            render: a.render.merge(b.render),
            packet: a.packet.merge(b.packet),
        });
    (fb, totals.render, totals.packet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_geometry::{Triangle, TriangleMesh};
    use kdtune_kdtree::{build, Algorithm, BuildParams};
    use std::sync::Arc;

    /// A big quad facing the camera, plus a small occluder between the
    /// quad and the light.
    fn scene() -> Arc<TriangleMesh> {
        let mut m = TriangleMesh::new();
        // Quad at z = 2 spanning [-2, 2]^2.
        m.push_triangle(Triangle::new(
            Vec3::new(-2.0, -2.0, 2.0),
            Vec3::new(2.0, -2.0, 2.0),
            Vec3::new(2.0, 2.0, 2.0),
        ));
        m.push_triangle(Triangle::new(
            Vec3::new(-2.0, -2.0, 2.0),
            Vec3::new(2.0, 2.0, 2.0),
            Vec3::new(-2.0, 2.0, 2.0),
        ));
        // Occluder: small triangle hovering at z = 1 near the center.
        m.push_triangle(Triangle::new(
            Vec3::new(-0.3, -0.3, 1.0),
            Vec3::new(0.3, -0.3, 1.0),
            Vec3::new(0.0, 0.3, 1.0),
        ));
        Arc::new(m)
    }

    fn camera() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, -1.0), Vec3::Z, Vec3::Y, 60.0, 64, 64)
    }

    #[test]
    fn renders_hits_and_shadows() {
        let tree = build(scene(), Algorithm::InPlace, &BuildParams::default());
        // Light in front of the quad: the occluder casts a shadow onto it.
        let (fb, stats) = render(&tree, &camera(), Vec3::new(0.0, 0.0, 0.0));
        assert_eq!(stats.primary_rays, 64 * 64);
        assert!(stats.primary_hits > stats.primary_rays / 2, "{stats:?}");
        assert_eq!(stats.shadow_rays, stats.primary_hits);
        assert!(stats.occluded > 0, "occluder must shadow some pixels");
        assert!(
            stats.occluded < stats.shadow_rays,
            "not everything shadowed"
        );
        assert!(fb.mean_luminance() > 0.05);
    }

    #[test]
    fn all_algorithms_render_identical_stats() {
        let mesh = scene();
        let light = Vec3::new(0.5, 0.5, -0.5);
        let reference = {
            let tree = build(mesh.clone(), Algorithm::NodeLevel, &BuildParams::default());
            render(&tree, &camera(), light).1
        };
        for algo in [Algorithm::Nested, Algorithm::InPlace, Algorithm::Lazy] {
            let tree = build(mesh.clone(), algo, &BuildParams::default());
            let (_, stats) = render(&tree, &camera(), light);
            assert_eq!(stats, reference, "{algo}");
        }
    }

    #[test]
    fn every_packet_width_matches_scalar() {
        let tree = build(scene(), Algorithm::InPlace, &BuildParams::default());
        let light = Vec3::new(0.5, 0.5, -0.5);
        let cam = camera();
        let (fb_ref, stats_ref, _) =
            render_with_options(&tree, tree.mesh(), &cam, light, &RenderOptions::scalar());
        for width in [4u32, 8, 16] {
            for frustum in [false, true] {
                let options = RenderOptions {
                    packet_width: width,
                    packet_min_active: 2,
                    frustum,
                };
                let (fb, stats, packet) =
                    render_with_options(&tree, tree.mesh(), &cam, light, &options);
                assert_eq!(stats, stats_ref, "w={width} frustum={frustum}");
                assert_eq!(
                    fb.to_ppm(),
                    fb_ref.to_ppm(),
                    "image differs at w={width} frustum={frustum}"
                );
                assert!(packet.packets > 0, "w={width} must use packets");
            }
        }
    }

    #[test]
    fn render_options_width_validation() {
        assert!(RenderOptions::valid_packet_width(0));
        assert!(RenderOptions::valid_packet_width(1));
        assert!(RenderOptions::valid_packet_width(4));
        assert!(RenderOptions::valid_packet_width(8));
        assert!(RenderOptions::valid_packet_width(16));
        assert!(!RenderOptions::valid_packet_width(2));
        assert!(!RenderOptions::valid_packet_width(32));
        assert!(!RenderOptions::scalar().uses_packets());
        assert!(RenderOptions::scalar().with_packet_width(8).uses_packets());
    }

    #[test]
    fn empty_scene_is_black() {
        let tree = build(
            Arc::new(TriangleMesh::new()),
            Algorithm::InPlace,
            &BuildParams::default(),
        );
        let (fb, stats) = render(&tree, &camera(), Vec3::ZERO);
        assert_eq!(stats.primary_hits, 0);
        assert_eq!(fb.mean_luminance(), 0.0);
    }

    #[test]
    fn lazy_tree_expands_only_visible_region() {
        // The test scene plus a row of small triangles far to the right,
        // outside the view and off every shadow ray's path. At R = 4 (a
        // node of at most four primitives defers) the row lands in
        // deferred nodes a render never reaches.
        let mut mesh = (*scene()).clone();
        for i in 0..32 {
            let x = 10.0 + i as f32;
            mesh.push_triangle(Triangle::new(
                Vec3::new(x, 0.0, 2.0),
                Vec3::new(x + 0.8, 0.0, 2.0),
                Vec3::new(x, 1.0, 2.0),
            ));
        }
        let mesh = Arc::new(mesh);
        let params = BuildParams {
            r: 4,
            ..BuildParams::default()
        };
        let tree = build(Arc::clone(&mesh), Algorithm::Lazy, &params);
        let lazy = tree.as_lazy().unwrap();
        assert!(lazy.deferred_count() > 1, "{lazy:?}");
        assert_eq!(lazy.expanded_count(), 0);
        let light = Vec3::ZERO;
        let (_, stats) = render(&tree, &camera(), light);
        let expanded = lazy.expanded_count();
        assert!(
            expanded > 0 && expanded < lazy.deferred_count(),
            "one render must expand some but not all deferred nodes: {lazy:?}"
        );
        let eager = build(mesh, Algorithm::InPlace, &BuildParams::default());
        assert_eq!(stats, render(&eager, &camera(), light).1);
    }
}
