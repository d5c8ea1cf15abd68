//! **Point-query benchmark** — the cross-workload tuning experiment for
//! the point-query engine: does a tuner that minimizes *query-batch*
//! cost find a different build configuration than one minimizing
//! *render* cost, and does each specialist beat the other on its own
//! workload?
//!
//! For each scene the binary runs two independent Nelder-Mead tuners
//! over the paper's `[CI, CB, S]` space (same space, same seed, same
//! builder as the renderd sessions), differing only in the measured
//! cost per cycle:
//!
//! - **render-tuned** — build the tree, render one frame; cost is the
//!   whole cycle (the per-frame workflow the paper tunes).
//! - **query-tuned** — build the tree, run one k-NN + radius-gather
//!   batch over a deterministic photon-gather point set; cost is the
//!   whole cycle (what a `renderd` query session tunes).
//!
//! Both configurations are then cross-evaluated: the median end-to-end
//! cycle cost of *each* workload under *each* tuned configuration. The
//! query tuner is additionally run twice — cold, then warm-started from
//! its own best — to measure warm-start convergence for the query
//! workload. Emits `BENCH_query.json` into `--out <dir>` (default
//! `results/`); pass `--smoke` for a seconds-long CI-sized run.

use kdtune::{
    build, build_eager, params_from_values, run_query_batch, Algorithm, BuildParams, RenderOptions,
    TunedPipeline,
};
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::stats::median;
use kdtune_geometry::{TriangleMesh, Vec3};
use kdtune_raycast::{render_with, Camera};
use kdtune_scenes::{by_name, sample_points, PointSampler, SceneParams};
use kdtune_telemetry::json::JsonValue;
use kdtune_telemetry::outln;
use std::sync::Arc;
use std::time::Instant;

/// Same fixed seed the renderd sessions use, for comparable trajectories.
const TUNER_SEED: u64 = 2016;
/// Point-set seed for tuning cycles (fixed: a stable cost surface).
const TUNE_POINTS_SEED: u64 = 7;
/// Point-set seed for the cross-evaluation (held out from tuning).
const EVAL_POINTS_SEED: u64 = 99;

struct BenchSettings {
    scenes: Vec<String>,
    res: u32,
    batch: usize,
    k: usize,
    radius_pm: u32,
    max_steps: usize,
    repeats: usize,
}

struct TuneOutcome {
    values: Vec<i64>,
    best_cost_secs: f64,
    steps: usize,
    converged: bool,
}

impl TuneOutcome {
    /// Tunes `pipeline` to convergence (or `max_steps`) over the paper's
    /// eager `[CI, CB, S]` space, with `cost` as each cycle's measurement.
    fn of(
        mut pipeline: TunedPipeline,
        max_steps: usize,
        cost: impl FnMut(&BuildParams, &RenderOptions, usize) -> f64,
    ) -> TuneOutcome {
        let (steps, _) = pipeline.run_budget_with(max_steps, cost);
        let tuner = pipeline.tuner();
        let (best, best_cost_secs) = tuner.best().expect("at least one measured cycle");
        TuneOutcome {
            values: best.values().to_vec(),
            best_cost_secs,
            steps,
            converged: tuner.converged(),
        }
    }
}

/// Median end-to-end render cycle (build + one frame) under `params`.
fn render_cycle_secs(
    mesh: &Arc<TriangleMesh>,
    camera: &Camera,
    light: Vec3,
    params: &BuildParams,
    repeats: usize,
) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            let tree = build(mesh.clone(), Algorithm::InPlace, params);
            let _ = render_with(&tree, mesh, camera, light);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median end-to-end query cycle (build + one batch) under `params`.
fn query_cycle_secs(
    mesh: &Arc<TriangleMesh>,
    points: &[Vec3],
    k: usize,
    radius: f32,
    params: &BuildParams,
    repeats: usize,
) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            let tree = build_eager(mesh.clone(), Algorithm::InPlace, params);
            let _ = run_query_batch(&tree, points, k, radius);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn values_json(values: &[i64]) -> JsonValue {
    values
        .iter()
        .map(|&v| JsonValue::from(v))
        .collect::<Vec<_>>()
        .into()
}

fn main() {
    let args = ExperimentArgs::from_env(&["--smoke"]);
    let smoke = args.has_flag("--smoke");
    let settings = if smoke {
        BenchSettings {
            scenes: vec!["bunny".into()],
            res: 32,
            batch: 256,
            k: 8,
            radius_pm: 50,
            max_steps: 40,
            repeats: 2,
        }
    } else {
        BenchSettings {
            scenes: vec!["bunny".into(), "fairy_forest".into()],
            res: 128,
            batch: 4096,
            k: 8,
            radius_pm: 50,
            max_steps: 400,
            repeats: 5,
        }
    };
    let scenes: Vec<String> = match &args.scene {
        Some(name) => vec![name.clone()],
        None => settings.scenes.clone(),
    };
    let repeats = args.repeats.unwrap_or(settings.repeats);
    // Smoke runs on unit-test-sized meshes; the real experiment needs
    // builds expensive enough that the build/query trade-off is signal,
    // not timer noise.
    let (params, scale) = if smoke {
        (SceneParams::tiny(), "tiny")
    } else {
        (SceneParams::quick(), "quick")
    };

    outln!(
        "query bench — {} scene(s), {}x{} renders vs {}-point batches (k={}, r={}‰), \
         ≤{} tuner steps, {} repeats",
        scenes.len(),
        settings.res,
        settings.res,
        settings.batch,
        settings.k,
        settings.radius_pm,
        settings.max_steps,
        repeats,
    );

    let mut scene_rows: Vec<JsonValue> = Vec::new();
    for name in &scenes {
        let scene = by_name(name, &params).unwrap_or_else(|| {
            eprintln!("unknown scene {name:?}");
            std::process::exit(2);
        });
        let mesh = scene.frame(0);
        let v = scene.view;
        let camera = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, settings.res, settings.res);
        let radius = settings.radius_pm as f32 / 1000.0 * mesh.bounds().extent().length();
        let tune_points = sample_points(
            &mesh,
            PointSampler::PhotonGather,
            settings.batch,
            TUNE_POINTS_SEED,
        );
        let eval_points = sample_points(
            &mesh,
            PointSampler::PhotonGather,
            settings.batch,
            EVAL_POINTS_SEED,
        );

        // Every tuner measures frame 0, also on animated scenes.
        let pipeline =
            || TunedPipeline::new(scene.clone(), Algorithm::InPlace).tuner_seed(TUNER_SEED);
        let render_tuned = TuneOutcome::of(pipeline(), settings.max_steps, |p, _, _| {
            let t0 = Instant::now();
            let tree = build(mesh.clone(), Algorithm::InPlace, p);
            let _ = render_with(&tree, &mesh, &camera, v.light);
            t0.elapsed().as_secs_f64()
        });
        let query_cycle = |p: &BuildParams, _: &RenderOptions, _: usize| {
            let t0 = Instant::now();
            let tree = build_eager(mesh.clone(), Algorithm::InPlace, p);
            let _ = run_query_batch(&tree, &tune_points, settings.k, radius);
            t0.elapsed().as_secs_f64()
        };
        let query_cold = TuneOutcome::of(pipeline(), settings.max_steps, query_cycle);
        let query_warm = TuneOutcome::of(
            pipeline().warm_start(&query_cold.values),
            settings.max_steps,
            query_cycle,
        );

        // Cross table on held-out eval points: each workload's cycle cost
        // under each tuned configuration.
        let rp = params_from_values(Algorithm::InPlace, &render_tuned.values);
        let qp = params_from_values(Algorithm::InPlace, &query_cold.values);
        let query_under_render =
            query_cycle_secs(&mesh, &eval_points, settings.k, radius, &rp, repeats);
        let query_under_query =
            query_cycle_secs(&mesh, &eval_points, settings.k, radius, &qp, repeats);
        let render_under_render = render_cycle_secs(&mesh, &camera, v.light, &rp, repeats);
        let render_under_query = render_cycle_secs(&mesh, &camera, v.light, &qp, repeats);
        let query_advantage = query_under_render / query_under_query;
        let render_advantage = render_under_query / render_under_render;

        outln!(
            "\n{name} ({} tris): render-tuned {:?}  query-tuned {:?} \
             (cold {} steps{}, warm {} steps{})",
            mesh.len(),
            render_tuned.values,
            query_cold.values,
            query_cold.steps,
            if query_cold.converged { "" } else { "*" },
            query_warm.steps,
            if query_warm.converged { "" } else { "*" },
        );
        outln!(
            "  query cycle:  render-tuned {:.3} ms  query-tuned {:.3} ms  ({:.2}x for query-tuned)",
            query_under_render * 1e3,
            query_under_query * 1e3,
            query_advantage,
        );
        outln!(
            "  render cycle: render-tuned {:.3} ms  query-tuned {:.3} ms  ({:.2}x for render-tuned)",
            render_under_render * 1e3,
            render_under_query * 1e3,
            render_advantage,
        );

        scene_rows.push(JsonValue::object([
            ("scene", JsonValue::from(name.as_str())),
            ("algorithm", "in_place".into()),
            ("triangles", mesh.len().into()),
            (
                "render_tuned",
                JsonValue::object([
                    ("values", values_json(&render_tuned.values)),
                    ("best_cost_ms", (render_tuned.best_cost_secs * 1e3).into()),
                    ("steps", render_tuned.steps.into()),
                    ("converged", render_tuned.converged.into()),
                ]),
            ),
            (
                "query_tuned",
                JsonValue::object([
                    ("values", values_json(&query_cold.values)),
                    ("best_cost_ms", (query_cold.best_cost_secs * 1e3).into()),
                    ("cold_steps", query_cold.steps.into()),
                    ("cold_converged", query_cold.converged.into()),
                    ("warm_steps", query_warm.steps.into()),
                    ("warm_converged", query_warm.converged.into()),
                ]),
            ),
            (
                "cross",
                JsonValue::object([
                    (
                        "query_ms_render_tuned",
                        JsonValue::from(query_under_render * 1e3),
                    ),
                    ("query_ms_query_tuned", (query_under_query * 1e3).into()),
                    ("query_advantage", query_advantage.into()),
                    ("render_ms_render_tuned", (render_under_render * 1e3).into()),
                    ("render_ms_query_tuned", (render_under_query * 1e3).into()),
                    ("render_advantage", render_advantage.into()),
                ]),
            ),
        ]));
    }

    let json = JsonValue::object([
        ("bench", JsonValue::from("query")),
        ("smoke", smoke.into()),
        ("scale", scale.into()),
        ("resolution", settings.res.into()),
        ("batch", settings.batch.into()),
        ("k", settings.k.into()),
        ("radius_pm", settings.radius_pm.into()),
        ("max_steps", settings.max_steps.into()),
        ("repeats", repeats.into()),
        ("tuner_seed", TUNER_SEED.into()),
        ("scenes", scene_rows.into()),
    ]);
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("results"));
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = out_dir.join("BENCH_query.json");
    std::fs::write(&path, format!("{json}\n")).expect("json write");
    eprintln!("wrote {}", path.display());
}
