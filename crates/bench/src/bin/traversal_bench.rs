//! **Traversal benchmark** — render throughput of the coherent
//! ray-packet path against the scalar fast path at every packet width,
//! on a fixed scene, camera and seed.
//!
//! Everything that could move the numbers is pinned: the scene is Fairy
//! Forest at a fixed complexity and seed, the camera and light come from
//! the scene's own [`ViewSpec`], the tree is built once with `InPlace`
//! defaults and shared by every path, and the pool defaults to one
//! thread (override with `--threads N`). All paths shoot identical rays,
//! so their [`RenderStats`] must match exactly — the binary asserts it.
//!
//! Every comparison interleaves its frames (one of each per repeat) so
//! slow machine-load drift biases neither side. The packet path is
//! measured per width (4, 8 and 16 lanes by default; `--packet-width W`
//! restricts the sweep to one width, and 0 or 1 is a usage error) and
//! twice per width: a **primary-ray-only** pair (every pixel traced
//! nearest-hit, no shading or shadows — the headline
//! `packet_speedup_w{N}`, since coherent primaries are where packets pay
//! off) and a full-frame pair including the shadow rays, which are
//! scalar at every width (`packet_frame_speedup_w{N}`). Reports rays/sec
//! and ns/ray per path, the packet lane utilization and the fraction of
//! inner steps the interval frustum resolved, and emits
//! `BENCH_traversal.json` into `--out <dir>` (default `results/`);
//! `rays_per_frame` with `scalar_median_ms_w{N}` gives the scalar
//! ns/ray. Pass `--smoke` for a seconds-long CI-sized run (still
//! covering every width).
//!
//! [`ViewSpec`]: kdtune::scenes::ViewSpec

use kdtune::scenes::{fairy_forest, SceneParams};
use kdtune::{build, Algorithm, BuildParams};
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::platforms::run_on;
use kdtune_bench::stats::median;
use kdtune_geometry::{Hit, Ray, RayPacket};
use kdtune_kdtree::{PacketCounters, RayQuery};
use kdtune_raycast::{
    render_with, render_with_options, Camera, RayTable, RenderOptions, RenderStats,
};
use kdtune_telemetry::outln;
use std::path::Path;
use std::time::Instant;

/// Image edge length (square frame) for the full benchmark.
const FULL_RES: u32 = 256;
/// Image edge length under `--smoke`.
const SMOKE_RES: u32 = 32;
/// Scene complexity for the full benchmark (~120k triangles).
const FULL_COMPLEXITY: f32 = 0.7;
/// Measured frames per path (median is reported) without `--repeats`.
const FULL_REPEATS: usize = 5;
/// Measured frames per path under `--smoke` without `--repeats`.
const SMOKE_REPEATS: usize = 2;
/// Packet widths swept when `--packet-width` does not pin one.
const SWEEP_WIDTHS: [u32; 3] = [4, 8, 16];

/// One measured path: median frame time plus derived throughput.
struct PathResult {
    label: String,
    median_secs: f64,
    rays: u64,
}

impl PathResult {
    fn rays_per_sec(&self) -> f64 {
        self.rays as f64 / self.median_secs
    }
    fn ns_per_ray(&self) -> f64 {
        self.median_secs * 1e9 / self.rays as f64
    }
}

/// Everything measured for one packet width.
struct WidthResult {
    width: u32,
    primary_packet: PathResult,
    primary_scalar: PathResult,
    primary_counters: PacketCounters,
    frame_packet: PathResult,
    frame_scalar: PathResult,
    frame_counters: PacketCounters,
}

impl WidthResult {
    fn primary_speedup(&self) -> f64 {
        self.primary_scalar.median_secs / self.primary_packet.median_secs
    }
    fn frame_speedup(&self) -> f64 {
        self.frame_scalar.median_secs / self.frame_packet.median_secs
    }
}

/// Times one scalar frame of `query` and checks it reproduced `warm_stats`.
fn timed_frame(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    camera: &Camera,
    light: kdtune_geometry::Vec3,
    warm_stats: RenderStats,
) -> f64 {
    let t0 = Instant::now();
    let (_, s) = render_with(query, mesh, camera, light);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(s, warm_stats, "scalar: render must be deterministic");
    secs
}

/// Times one packet frame of `query`, checking stats reproduce
/// `warm_stats`, and accumulates the packet counters.
fn timed_packet_frame(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    camera: &Camera,
    light: kdtune_geometry::Vec3,
    options: &RenderOptions,
    warm_stats: RenderStats,
    counters: &mut PacketCounters,
) -> f64 {
    let t0 = Instant::now();
    let (_, s, pc) = render_with_options(query, mesh, camera, light, options);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(s, warm_stats, "packet: render must be deterministic");
    *counters = counters.merge(pc);
    secs
}

/// Measures the `W`-wide packet path against the scalar fast path with
/// interleaved frames (one packet frame, one scalar frame per repeat).
/// The packet render must reproduce the scalar [`RenderStats`] exactly —
/// bit-identical images are asserted by the test suite; here the stats
/// equality catches any divergence cheaply on every benchmark run.
fn measure_packet_pair<const W: usize>(
    query: &impl RayQuery,
    mesh: &kdtune_geometry::TriangleMesh,
    camera: &Camera,
    light: kdtune_geometry::Vec3,
    repeats: usize,
) -> (PathResult, PathResult, PacketCounters) {
    let options = RenderOptions::scalar().with_packet_width(W as u32);
    let (_, scalar_warm) = render_with(query, mesh, camera, light);
    let (_, packet_warm, _) = render_with_options(query, mesh, camera, light, &options);
    assert_eq!(
        packet_warm, scalar_warm,
        "w={W}: packet and scalar paths must trace identical rays"
    );
    let mut counters = PacketCounters::default();
    let mut packet_times = Vec::with_capacity(repeats);
    let mut scalar_times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        packet_times.push(timed_packet_frame(
            query,
            mesh,
            camera,
            light,
            &options,
            packet_warm,
            &mut counters,
        ));
        scalar_times.push(timed_frame(query, mesh, camera, light, scalar_warm));
    }
    let rays = scalar_warm.primary_rays + scalar_warm.shadow_rays;
    let result = |label: String, times: &[f64]| PathResult {
        label,
        median_secs: median(times),
        rays,
    };
    (
        result(format!("packet-w{W}"), &packet_times),
        result("scalar".into(), &scalar_times),
        counters,
    )
}

/// Folds one optional hit into a checksum that both defeats dead-code
/// elimination and pins scalar/packet agreement (same hits, same `t`
/// bits, same primitive — order-independent sum so tile order is free).
#[inline]
fn fold_hit(checksum: u64, hit: Option<Hit>) -> u64 {
    match hit {
        None => checksum,
        Some(h) => checksum.wrapping_add((h.t.to_bits() as u64) << 20 ^ h.prim as u64),
    }
}

/// Pixel tile shape for a `W`-wide packet (matches the renderer's
/// tiling: 2×2, 4×2, 4×4).
const fn tile_shape(w: usize) -> (u32, u32) {
    match w {
        4 => (2, 2),
        8 => (4, 2),
        16 => (4, 4),
        _ => (1, 1),
    }
}

/// One primary-ray-only frame through the scalar query: every pixel's
/// nearest hit, no shading, no shadow rays. Returns (seconds, checksum).
fn primary_frame_scalar(query: &impl RayQuery, rays: &RayTable, res: u32) -> (f64, u64) {
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for y in 0..res {
        for x in 0..res {
            let ray = rays.primary_ray(x, y);
            checksum = fold_hit(checksum, query.intersect(&ray, 0.0, f32::INFINITY));
        }
    }
    (t0.elapsed().as_secs_f64(), checksum)
}

/// One primary-ray-only frame through the `W`-wide packet traversal: the
/// same pixels as [`primary_frame_scalar`], traced as pixel tiles (the
/// resolution divides evenly). Returns (seconds, checksum).
fn primary_frame_packet<const W: usize>(
    query: &impl RayQuery,
    rays: &RayTable,
    res: u32,
    min_active: u32,
    counters: &mut PacketCounters,
) -> (f64, u64) {
    let (tw, th) = tile_shape(W);
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for y in (0..res).step_by(th as usize) {
        for x in (0..res).step_by(tw as usize) {
            let prim: [Ray; W] =
                std::array::from_fn(|l| rays.primary_ray(x + l as u32 % tw, y + l as u32 / tw));
            let packet = RayPacket::new(prim, [f32::INFINITY; W]);
            let hits = query.intersect_packet(&packet, 0.0, min_active, true, counters);
            for hit in hits {
                checksum = fold_hit(checksum, hit);
            }
        }
    }
    (t0.elapsed().as_secs_f64(), checksum)
}

/// Measures primary-ray throughput, `W`-wide packet against scalar, with
/// interleaved frames. This is the headline packet comparison: primary
/// rays from adjacent pixels are maximally coherent, so it isolates what
/// the shared traversal, the interval frustum and the wide kernels buy
/// over `W` scalar walks. The checksums must agree — bit-identical hits,
/// not just similar ones.
fn measure_primary_pair<const W: usize>(
    query: &impl RayQuery,
    camera: &Camera,
    res: u32,
    min_active: u32,
    repeats: usize,
) -> (PathResult, PathResult, PacketCounters) {
    let (tw, th) = tile_shape(W);
    assert_eq!(
        (res % tw, res % th),
        (0, 0),
        "primary pair tiles the frame in {tw}x{th} blocks"
    );
    let rays = camera.ray_table();
    let mut counters = PacketCounters::default();
    let (_, scalar_warm) = primary_frame_scalar(query, &rays, res);
    let (_, packet_warm) = primary_frame_packet::<W>(query, &rays, res, min_active, &mut counters);
    assert_eq!(
        packet_warm, scalar_warm,
        "w={W}: packet and scalar primary rays must hit identically"
    );
    let mut packet_times = Vec::with_capacity(repeats);
    let mut scalar_times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let (secs, sum) = primary_frame_packet::<W>(query, &rays, res, min_active, &mut counters);
        assert_eq!(
            sum, packet_warm,
            "packet primary pass must be deterministic"
        );
        packet_times.push(secs);
        let (secs, sum) = primary_frame_scalar(query, &rays, res);
        assert_eq!(
            sum, scalar_warm,
            "scalar primary pass must be deterministic"
        );
        scalar_times.push(secs);
    }
    let rays_per_frame = res as u64 * res as u64;
    let result = |label: String, times: &[f64]| PathResult {
        label,
        median_secs: median(times),
        rays: rays_per_frame,
    };
    (
        result(format!("prim-w{W}"), &packet_times),
        result("prim-scalar".into(), &scalar_times),
        counters,
    )
}

/// Runs both packet comparisons (primary-only and full-frame) for one
/// width on a `threads`-wide pool.
fn measure_width<const W: usize>(
    tree: &kdtune_kdtree::BuiltTree,
    mesh: &kdtune_geometry::TriangleMesh,
    camera: &Camera,
    light: kdtune_geometry::Vec3,
    res: u32,
    threads: usize,
    repeats: usize,
) -> WidthResult {
    let min_active = RenderOptions::default().packet_min_active;
    let (primary_packet, primary_scalar, primary_counters) = run_on(threads, || {
        measure_primary_pair::<W>(tree, camera, res, min_active, repeats)
    });
    let (frame_packet, frame_scalar, frame_counters) = run_on(threads, || {
        measure_packet_pair::<W>(tree, mesh, camera, light, repeats)
    });
    WidthResult {
        width: W as u32,
        primary_packet,
        primary_scalar,
        primary_counters,
        frame_packet,
        frame_scalar,
        frame_counters,
    }
}

fn write_json(path: &Path, entries: &[(String, String)]) -> std::io::Result<()> {
    let body = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write(path, format!("{{\n{body}\n}}\n"))
}

fn main() {
    let args = ExperimentArgs::from_env(&["--smoke"]);
    let smoke = args.has_flag("--smoke");
    let (params, res) = if smoke {
        (SceneParams::tiny(), SMOKE_RES)
    } else {
        (
            SceneParams {
                complexity: FULL_COMPLEXITY,
                ..SceneParams::default()
            },
            FULL_RES,
        )
    };
    let repeats = args
        .repeats
        .unwrap_or(if smoke { SMOKE_REPEATS } else { FULL_REPEATS });
    // Single-threaded unless overridden: the point is the per-ray cost of
    // the traversal inner loop, not pool scaling.
    let threads = args.threads.unwrap_or(1);
    // `--packet-width W` pins the sweep to one width (the cheap CI packet
    // leg); the scalar path alone has no packet pair to measure.
    let widths: Vec<u32> = match args.packet_width {
        None => SWEEP_WIDTHS.to_vec(),
        Some(0 | 1) => {
            eprintln!("--packet-width: the bench compares packets against scalar; use 4, 8 or 16");
            std::process::exit(2);
        }
        Some(w) => vec![w],
    };

    let scene = fairy_forest(&params);
    let mesh = scene.frame(0);
    let v = scene.view;
    let camera = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, res, res);
    let tree = build(mesh.clone(), Algorithm::InPlace, &BuildParams::default());
    let eager = tree.as_eager().expect("InPlace builds an eager tree");
    outln!(
        "traversal bench — fairy_forest (complexity {}, seed {:#x}), {} tris, {res}x{res}, \
         {} nodes ({} KiB packed), depth bound {}, {threads} thread(s), {repeats} repeats",
        params.complexity,
        params.seed,
        mesh.len(),
        eager.node_count(),
        eager.node_bytes() / 1024,
        eager.traversal_depth_bound(),
    );

    let width_results: Vec<WidthResult> = widths
        .iter()
        .map(|&w| match w {
            4 => measure_width::<4>(&tree, &mesh, &camera, v.light, res, threads, repeats),
            8 => measure_width::<8>(&tree, &mesh, &camera, v.light, res, threads, repeats),
            16 => measure_width::<16>(&tree, &mesh, &camera, v.light, res, threads, repeats),
            other => unreachable!("unsupported packet width {other}"),
        })
        .collect();

    outln!(
        "{:<12} {:>12} {:>14} {:>10}",
        "path",
        "frame ms",
        "rays/sec",
        "ns/ray"
    );
    let mut rows: Vec<&PathResult> = Vec::new();
    for wr in &width_results {
        rows.extend([
            &wr.primary_packet,
            &wr.primary_scalar,
            &wr.frame_packet,
            &wr.frame_scalar,
        ]);
    }
    for r in rows {
        outln!(
            "{:<12} {:>12.3} {:>14.0} {:>10.1}",
            r.label,
            r.median_secs * 1e3,
            r.rays_per_sec(),
            r.ns_per_ray()
        );
    }
    for wr in &width_results {
        outln!(
            "w={}: primary speedup {:.2}x (lane util {:.1}%, frustum-resolved {:.1}%), \
             full-frame speedup {:.2}x (lane util {:.1}%, frustum-resolved {:.1}%, \
             {} fallback lanes)",
            wr.width,
            wr.primary_speedup(),
            100.0 * wr.primary_counters.lane_utilization(),
            100.0 * wr.primary_counters.frustum_rate(),
            wr.frame_speedup(),
            100.0 * wr.frame_counters.lane_utilization(),
            100.0 * wr.frame_counters.frustum_rate(),
            wr.frame_counters.scalar_fallback_lanes
        );
    }

    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("results"));
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = out_dir.join("BENCH_traversal.json");
    let key = |name: &str| name.to_string();
    let mut entries: Vec<(String, String)> = vec![
        (key("scene"), "\"fairy_forest\"".into()),
        (key("complexity"), format!("{}", params.complexity)),
        (key("seed"), format!("{}", params.seed)),
        (key("triangles"), format!("{}", mesh.len())),
        (key("resolution"), format!("{res}")),
        (key("threads"), format!("{threads}")),
        (key("repeats"), format!("{repeats}")),
        (key("node_count"), format!("{}", tree.node_count())),
        (key("node_bytes"), format!("{}", tree.node_bytes())),
        (
            key("packet_widths"),
            format!(
                "[{}]",
                widths
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    for wr in &width_results {
        let w = wr.width;
        entries.extend([
            // Headline per width: primary-ray-only, packet over scalar.
            (
                format!("packet_speedup_w{w}"),
                format!("{:.4}", wr.primary_speedup()),
            ),
            (
                format!("primary_packet_median_ms_w{w}"),
                format!("{:.6}", wr.primary_packet.median_secs * 1e3),
            ),
            (
                format!("primary_packet_ns_per_ray_w{w}"),
                format!("{:.3}", wr.primary_packet.ns_per_ray()),
            ),
            (
                format!("primary_scalar_median_ms_w{w}"),
                format!("{:.6}", wr.primary_scalar.median_secs * 1e3),
            ),
            (
                format!("primary_lane_utilization_w{w}"),
                format!("{:.4}", wr.primary_counters.lane_utilization()),
            ),
            (
                format!("primary_frustum_rate_w{w}"),
                format!("{:.4}", wr.primary_counters.frustum_rate()),
            ),
            // Full frames (packet primaries + scalar shadow rays).
            (
                format!("packet_frame_speedup_w{w}"),
                format!("{:.4}", wr.frame_speedup()),
            ),
            (
                format!("packet_median_ms_w{w}"),
                format!("{:.6}", wr.frame_packet.median_secs * 1e3),
            ),
            (
                format!("scalar_median_ms_w{w}"),
                format!("{:.6}", wr.frame_scalar.median_secs * 1e3),
            ),
            (
                format!("packet_lane_utilization_w{w}"),
                format!("{:.4}", wr.frame_counters.lane_utilization()),
            ),
            (
                format!("packet_frustum_rate_w{w}"),
                format!("{:.4}", wr.frame_counters.frustum_rate()),
            ),
            (
                format!("packet_fallback_lanes_w{w}"),
                format!("{}", wr.frame_counters.scalar_fallback_lanes),
            ),
        ]);
    }
    if let Some(wr) = width_results.first() {
        entries.push((key("rays_per_frame"), format!("{}", wr.frame_scalar.rays)));
    }
    write_json(&path, &entries).expect("json write");
    eprintln!("wrote {}", path.display());
}
