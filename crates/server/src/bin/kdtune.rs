//! `kdtune` — command-line front end to the workspace.
//!
//! ```text
//! kdtune scenes
//! kdtune render <scene> [--algo A] [--res N] [--frame F] [--packet-width W] [--out img.ppm]
//! kdtune stats  <scene> [--algo A] [--scale quick|tiny|paper]
//! kdtune tune   <scene> [--algo A] [--frames N] [--res N] [--seed S] [--packet-width W] [--trace t.jsonl]
//! kdtune report <trace.jsonl>
//! kdtune select <scene> [--frames N] [--res N]
//! kdtune export <scene> <file.obj> [--frame F]
//! kdtune cache  <scene> <file.kdt> [--algo A] [--frame F]
//! kdtune serve   [--addr H:P] [--workers N] [--queue N] [--cache-mb N] [--store F]
//! kdtune loadgen [--addr H:P] [--connections N] [--requests N] [--smoke]
//! ```

use kdtune::raycast::{render_with_options, Camera};
use kdtune::scenes::{by_name, SCENE_NAMES};
use kdtune::telemetry::sinks::{JsonlRecorder, StderrRecorder};
use kdtune::telemetry::{self, json, Histogram};
use kdtune::{
    build, select_algorithm, Algorithm, BuildParams, RenderOptions, Scene, SceneParams,
    SelectorOpts, TreeStats, TunedPipeline,
};
use kdtune_telemetry::outln;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
kdtune — online-autotuned parallel SAH kD-trees

USAGE:
  kdtune scenes
  kdtune render <scene> [--algo A] [--res N] [--frame F] [--packet-width W] [--out img.ppm]
  kdtune stats  <scene> [--algo A]
  kdtune tune   <scene> [--algo A] [--frames N] [--res N] [--seed S] [--packet-width W] [--trace t.jsonl]
  kdtune report <trace.jsonl>
  kdtune select <scene> [--frames N] [--res N]
  kdtune export <scene> <file.obj> [--frame F]
  kdtune cache  <scene> <file.kdt> [--algo A] [--frame F]
  kdtune serve   [OPTIONS]   run the renderd service (see `kdtune serve --help`)
  kdtune route   [OPTIONS]   consistent-hash router over N renderd shards
                             (see `kdtune route --help`)
  kdtune loadgen [OPTIONS]   drive a renderd instance (see `kdtune loadgen --help`)
  kdtune top     [OPTIONS]   live renderd dashboard (see `kdtune top --help`)
  kdtune metrics [--addr H:P]  scrape renderd's Prometheus-style exposition

COMMON OPTIONS:
  --scale quick|tiny|paper   scene size (default quick)
  --algo  node_level|nested|in_place|lazy (default in_place)
  --packet-width W           trace primary rays in coherent W-wide packets,
                             W in {0,1,4,8,16}; 0/1 = scalar (render, tune)
  --trace FILE               record a JSONL telemetry trace (tune)

SCENES: bunny sponza sibenik toasters wood_doll fairy_forest";

struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

/// Every `--key` the classic subcommands read; each takes a value.
const OPTIONS: &[&str] = &[
    "scale",
    "algo",
    "packet-width",
    "res",
    "frame",
    "frames",
    "seed",
    "out",
    "trace",
];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if !OPTIONS.contains(&key) {
                return Err(format!("unknown option --{key}"));
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            options.insert(key.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Args {
        positional,
        options,
    })
}

impl Args {
    fn scene_params(&self) -> Result<SceneParams, String> {
        match self.options.get("scale").map(String::as_str) {
            None | Some("quick") => Ok(SceneParams::quick()),
            Some("tiny") => Ok(SceneParams::tiny()),
            Some("paper") => Ok(SceneParams::paper()),
            Some(other) => Err(format!("unknown --scale {other:?}")),
        }
    }

    fn scene(&self, index: usize) -> Result<Scene, String> {
        let name = self.positional.get(index).ok_or("missing scene name")?;
        by_name(name, &self.scene_params()?)
            .ok_or_else(|| format!("unknown scene {name:?} (try `kdtune scenes`)"))
    }

    fn algo(&self) -> Result<Algorithm, String> {
        match self.options.get("algo") {
            None => Ok(Algorithm::InPlace),
            Some(name) => {
                Algorithm::from_name(name).ok_or_else(|| format!("unknown --algo {name:?}"))
            }
        }
    }

    fn num(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key} {v:?}: {e}")),
        }
    }

    /// Render options from `--packet-width` (scalar by default).
    fn render_options(&self) -> Result<RenderOptions, String> {
        let width = match self.options.get("packet-width") {
            Some(v) => v
                .parse::<u32>()
                .map_err(|e| format!("bad --packet-width {v:?}: {e}"))?,
            None => 1,
        };
        if !RenderOptions::valid_packet_width(width) {
            return Err(format!(
                "bad --packet-width {width}: expected one of 0, 1, 4, 8, 16"
            ));
        }
        Ok(RenderOptions::scalar().with_packet_width(width))
    }
}

fn camera_for(scene: &Scene, res: u32) -> (Camera, kdtune::geometry::Vec3) {
    let v = scene.view;
    (
        Camera::look_at(v.eye, v.target, v.up, v.fov_deg, res, res),
        v.light,
    )
}

fn cmd_scenes(args: &Args) -> Result<(), String> {
    let params = args.scene_params()?;
    outln!("{:<14} {:>9} {:>7}  kind", "scene", "triangles", "frames");
    for name in SCENE_NAMES {
        let scene = by_name(name, &params).expect("registered");
        outln!(
            "{:<14} {:>9} {:>7}  {}",
            scene.name,
            scene.frame(0).len(),
            scene.frame_count(),
            if scene.is_dynamic() {
                "dynamic"
            } else {
                "static"
            },
        );
    }
    Ok(())
}

fn cmd_render(args: &Args) -> Result<(), String> {
    let scene = args.scene(1)?;
    let res = args.num("res", 256)? as u32;
    let frame = args.num("frame", 0)?;
    let algo = args.algo()?;
    let (camera, light) = camera_for(&scene, res);
    let mesh = scene.frame(frame);
    let options = args.render_options()?;
    let t0 = std::time::Instant::now();
    let tree = build(mesh, algo, &BuildParams::default());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let (image, stats, packet) = render_with_options(&tree, tree.mesh(), &camera, light, &options);
    let render_ms = t1.elapsed().as_secs_f64() * 1e3;
    outln!(
        "{} frame {frame} via {algo}: build {build_ms:.2} ms, render {render_ms:.2} ms, \
         {}/{} rays hit",
        scene.name,
        stats.primary_hits,
        stats.primary_rays
    );
    if options.uses_packets() {
        outln!(
            "primary packets: {} traced at w={}, {:.1}% lane utilization, {:.1}% \
             frustum-resolved steps, {} scalar-fallback lanes (shadow rays are scalar)",
            packet.packets,
            options.packet_width,
            100.0 * packet.lane_utilization(),
            100.0 * packet.frustum_rate(),
            packet.scalar_fallback_lanes
        );
    }
    let default_name = format!("{}_{frame}.ppm", scene.name);
    let out = args.options.get("out").cloned().unwrap_or(default_name);
    image.save_ppm(&out).map_err(|e| e.to_string())?;
    outln!("wrote {out}");
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let scene = args.scene(1)?;
    let algo = args.algo()?;
    let mesh = scene.frame(0);
    // Route everything through the pretty stderr telemetry sink: the build
    // span and task counters come out alongside the tree statistics, in
    // the same format a traced run would produce.
    telemetry::set_recorder(Arc::new(StderrRecorder));
    telemetry::event(
        "scene",
        &[
            ("name", scene.name.into()),
            ("triangles", mesh.len().into()),
            ("algorithm", algo.name().into()),
        ],
    );
    let tree = build(mesh, algo, &BuildParams::default());
    match tree.as_eager() {
        Some(t) => {
            let s = TreeStats::compute(t);
            telemetry::event(
                "tree.stats",
                &[
                    ("nodes", s.node_count.into()),
                    ("leaves", s.leaf_count.into()),
                    ("empty_leaves", s.empty_leaf_count.into()),
                    ("max_depth", s.max_depth.into()),
                    ("prim_references", s.prim_references.into()),
                    ("duplication", s.duplication_factor.into()),
                    ("avg_leaf_prims", s.avg_leaf_prims.into()),
                    ("sah_cost", s.sah_cost.into()),
                    ("node_bytes", s.node_bytes.into()),
                    ("memory_bytes", s.memory_bytes.into()),
                ],
            );
        }
        None => {
            let t = tree.as_lazy().expect("lazy");
            telemetry::event(
                "tree.stats",
                &[
                    ("note", "lazy; stats for the eager top part".into()),
                    ("nodes", t.node_count().into()),
                    ("deferred_nodes", t.deferred_count().into()),
                    ("deferred_prims", t.deferred_prim_references().into()),
                ],
            );
        }
    }
    telemetry::flush();
    telemetry::clear_recorder();
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let scene = args.scene(1)?;
    let algo = args.algo()?;
    let frames = args.num("frames", 80)?;
    let res = args.num("res", 128)? as u32;
    let seed = args.num("seed", 2016)? as u64;
    if let Some(path) = args.options.get("trace") {
        let rec = JsonlRecorder::create(std::path::Path::new(path))
            .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
        telemetry::set_recorder(Arc::new(rec));
    }
    let mut pipeline = TunedPipeline::new(scene, algo)
        .resolution(res, res)
        .render_options(args.render_options()?)
        .tuner_seed(seed);
    for i in 0..frames {
        let r = pipeline.step();
        if i % 10 == 0 || i + 1 == frames {
            outln!(
                "frame {:>4} [{:<9}] {:<24} {:>8.2} ms",
                i,
                format!("{:?}", r.phase),
                r.config.to_string(),
                r.total_secs * 1e3
            );
        }
    }
    let tuner = pipeline.tuner();
    let (best, cost) = tuner.best().ok_or("no measurements")?;
    outln!(
        "\nbest {} at {:.2} ms/frame — converged: {}, retunes: {}",
        best,
        cost * 1e3,
        tuner.converged(),
        tuner.retunes()
    );
    telemetry::flush();
    telemetry::clear_recorder();
    if let Some(path) = args.options.get("trace") {
        outln!("trace written to {path} (inspect with `kdtune report {path}`)");
    }
    Ok(())
}

/// Summarizes a JSONL telemetry trace: tuner convergence timeline plus
/// build/render/total latency percentiles over the recorded frames.
fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("missing trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut total_records = 0u64;
    let mut skipped = 0u64;
    let mut frames = 0u64;
    let mut build_h = Histogram::new();
    let mut render_h = Histogram::new();
    let mut total_h = Histogram::new();
    let mut rays_per_sec: Vec<f64> = Vec::new();
    let mut node_bytes_last: Option<u64> = None;
    // (t_us, line) pairs for the timeline, already in file order.
    let mut timeline: Vec<String> = Vec::new();
    // Server traces: per-request stage-latency table + slow exemplars.
    let mut requests = 0u64;
    let mut request_stages: Vec<(&str, &str, Histogram)> = [
        ("queued_us", "queue"),
        ("build_us", "build"),
        ("render_us", "render"),
        ("query_us", "query"),
        ("tune_us", "tune"),
        ("serialize_us", "serialize"),
        ("duration_us", "handle"),
    ]
    .iter()
    .map(|(key, label)| (*key, *label, Histogram::new()))
    .collect();
    let mut slow_requests: Vec<String> = Vec::new();

    let fget = |v: &json::JsonValue, key: &str| v.get("fields").and_then(|f| f.get(key).cloned());
    let fstr =
        |v: &json::JsonValue, key: &str| fget(v, key).and_then(|x| x.as_str().map(str::to_owned));
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Some((_, name, v)) = json::parse_record_line(line) else {
            skipped += 1;
            continue;
        };
        total_records += 1;
        match name.as_str() {
            "workflow.frame" => {
                frames += 1;
                for (h, key) in [
                    (&mut build_h, "build_secs"),
                    (&mut render_h, "render_secs"),
                    (&mut total_h, "total_secs"),
                ] {
                    if let Some(secs) = fget(&v, key).and_then(|x| x.as_f64()) {
                        h.record_secs(secs);
                    }
                }
                if let Some(rps) = fget(&v, "rays_per_sec").and_then(|x| x.as_f64()) {
                    if rps > 0.0 {
                        rays_per_sec.push(rps);
                    }
                }
                if let Some(nb) = fget(&v, "node_bytes").and_then(|x| x.as_u64()) {
                    node_bytes_last = Some(nb);
                }
            }
            "tuner.phase" => {
                let (from, to) = (
                    fstr(&v, "from").unwrap_or_default(),
                    fstr(&v, "to").unwrap_or_default(),
                );
                let iter = fget(&v, "iteration").and_then(|x| x.as_u64()).unwrap_or(0);
                timeline.push(format!("iteration {iter:>4}  {from} -> {to}"));
            }
            "tuner.retune" => {
                let iter = fget(&v, "iteration").and_then(|x| x.as_u64()).unwrap_or(0);
                let ratio = fget(&v, "drift_ratio")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(f64::NAN);
                timeline.push(format!(
                    "iteration {iter:>4}  RETUNE (drift ratio {ratio:.2})"
                ));
            }
            "server.request" => {
                requests += 1;
                for (key, _, h) in &mut request_stages {
                    if let Some(us) = fget(&v, key).and_then(|x| x.as_u64()) {
                        h.record_us(us);
                    }
                }
            }
            "server.trace" => {
                let cmd = fstr(&v, "cmd").unwrap_or_default();
                let total = fget(&v, "total_us").and_then(|x| x.as_u64()).unwrap_or(0);
                let id = fget(&v, "trace_id").and_then(|x| x.as_u64()).unwrap_or(0);
                let mut stages = String::new();
                for (key, label) in [
                    ("queue_us", "queue"),
                    ("build_us", "build"),
                    ("render_us", "render"),
                    ("query_us", "query"),
                    ("tune_us", "tune"),
                    ("serialize_us", "serialize"),
                ] {
                    if let Some(us) = fget(&v, key).and_then(|x| x.as_u64()) {
                        stages.push_str(&format!("  {label} {:.1}ms", us as f64 / 1e3));
                    }
                }
                let tag = fstr(&v, "client_tag")
                    .map(|t| format!("  ({t})"))
                    .unwrap_or_default();
                slow_requests.push(format!(
                    "#{id} {cmd} {:.1}ms{stages}{tag}",
                    total as f64 / 1e3
                ));
            }
            "bench.trial" => {
                let scene = fstr(&v, "scene").unwrap_or_default();
                let algo = fstr(&v, "algorithm").unwrap_or_default();
                let speedup = fget(&v, "speedup")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(f64::NAN);
                timeline.push(format!("trial {scene}/{algo}  speedup {speedup:.2}x"));
            }
            _ => {}
        }
    }
    if total_records == 0 {
        return Err(format!("{path}: no telemetry records found"));
    }

    outln!("{path}: {total_records} records, {frames} frames");
    if skipped > 0 {
        outln!("({skipped} malformed lines skipped)");
    }
    if timeline.is_empty() {
        outln!("\nno tuner lifecycle events in this trace");
    } else {
        outln!("\nconvergence timeline:");
        for entry in &timeline {
            outln!("  {entry}");
        }
    }
    if frames > 0 {
        outln!("\nper-frame latency:");
        outln!(
            "  {:<8} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "stage",
            "count",
            "mean",
            "p50",
            "p90",
            "p99"
        );
        for (label, h) in [
            ("build", &build_h),
            ("render", &render_h),
            ("total", &total_h),
        ] {
            let s = h.summary();
            outln!(
                "  {:<8} {:>8} {:>10} {:>10} {:>10} {:>10}",
                label,
                s.count,
                kdtune::telemetry::Summary::fmt_us(s.mean_us.round() as u64),
                kdtune::telemetry::Summary::fmt_us(s.p50_us),
                kdtune::telemetry::Summary::fmt_us(s.p90_us),
                kdtune::telemetry::Summary::fmt_us(s.p99_us),
            );
        }
    }
    if requests > 0 {
        outln!("\nper-request server stages ({requests} requests):");
        outln!(
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "stage",
            "count",
            "mean",
            "p50",
            "p95",
            "p99"
        );
        for (_, label, h) in &request_stages {
            if h.count() == 0 {
                continue;
            }
            outln!(
                "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                label,
                h.count(),
                kdtune::telemetry::Summary::fmt_us(h.mean_us().round() as u64),
                kdtune::telemetry::Summary::fmt_us(h.percentile_us(0.50)),
                kdtune::telemetry::Summary::fmt_us(h.percentile_us(0.95)),
                kdtune::telemetry::Summary::fmt_us(h.percentile_us(0.99)),
            );
        }
    }
    if !slow_requests.is_empty() {
        outln!("\nslow request exemplars ({}):", slow_requests.len());
        for line in slow_requests.iter().take(10) {
            outln!("  {line}");
        }
        if slow_requests.len() > 10 {
            outln!("  ... and {} more", slow_requests.len() - 10);
        }
    }
    if !rays_per_sec.is_empty() {
        rays_per_sec.sort_by(f64::total_cmp);
        let mean = rays_per_sec.iter().sum::<f64>() / rays_per_sec.len() as f64;
        let p50 = rays_per_sec[rays_per_sec.len() / 2];
        let max = *rays_per_sec.last().unwrap();
        outln!("\ntraversal throughput:");
        outln!(
            "  rays/sec  mean {:.2}M  p50 {:.2}M  max {:.2}M",
            mean / 1e6,
            p50 / 1e6,
            max / 1e6
        );
        if let Some(nb) = node_bytes_last {
            outln!(
                "  tree nodes  {:.1} KiB packed (8 B/node)",
                nb as f64 / 1024.0
            );
        }
    }
    Ok(())
}

fn cmd_select(args: &Args) -> Result<(), String> {
    let scene = args.scene(1)?;
    let opts = SelectorOpts {
        budget_per_algorithm: args.num("frames", 60)?,
        steady_window: 3,
        resolution: args.num("res", 96)? as u32,
        seed: 7,
    };
    let report = select_algorithm(&scene, &opts);
    for c in &report.candidates {
        let marker = if c.algorithm == report.winner {
            "  <== winner"
        } else {
            ""
        };
        outln!(
            "{:<11} {:>8.2} ms  {}{}",
            c.algorithm.name(),
            c.tuned_cost * 1e3,
            c.config,
            marker
        );
    }
    Ok(())
}

fn cmd_export(args: &Args) -> Result<(), String> {
    let scene = args.scene(1)?;
    let path = args.positional.get(2).ok_or("missing output path")?;
    let frame = args.num("frame", 0)?;
    let mesh = scene.frame(frame);
    kdtune::geometry::obj::save(&mesh, path).map_err(|e| e.to_string())?;
    outln!("wrote {} ({} triangles)", path, mesh.len());
    Ok(())
}

fn cmd_cache(args: &Args) -> Result<(), String> {
    let scene = args.scene(1)?;
    let path = args.positional.get(2).ok_or("missing output path")?;
    let frame = args.num("frame", 0)?;
    let algo = args.algo()?;
    if algo == Algorithm::Lazy {
        return Err("lazy trees are built per frame; cache an eager algorithm".into());
    }
    let mesh = scene.frame(frame);
    let tree = build(mesh, algo, &BuildParams::default());
    let tree = tree.as_eager().expect("eager algorithm");
    kdtune::kdtree::io::save(tree, path).map_err(|e| e.to_string())?;
    // Round-trip sanity so a corrupted write is caught immediately.
    let loaded = kdtune::kdtree::io::load(path).map_err(|e| e.to_string())?;
    outln!(
        "wrote {path}: {} nodes over {} triangles (verified reload)",
        loaded.node_count(),
        loaded.mesh().len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The service subcommands have their own flag grammar (e.g. valueless
    // --smoke), so route them before the classic parser sees the argv.
    match argv.first().map(String::as_str) {
        Some("serve") => return run_service(kdtune_server::cli::serve(&argv[1..])),
        Some("route") => return run_service(kdtune_server::cli::route(&argv[1..])),
        Some("loadgen") => return run_service(kdtune_server::cli::loadgen(&argv[1..])),
        Some("top") => return run_service(kdtune_server::cli::top(&argv[1..])),
        Some("metrics") => return run_service(kdtune_server::cli::metrics(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("scenes") => cmd_scenes(&args),
        Some("render") => cmd_render(&args),
        Some("stats") => cmd_stats(&args),
        Some("tune") => cmd_tune(&args),
        Some("report") => cmd_report(&args),
        Some("select") => cmd_select(&args),
        Some("export") => cmd_export(&args),
        Some("cache") => cmd_cache(&args),
        _ => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_service(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
