//! `anim_tune`: the paper's Fig. 4 loop, run in-process.
//!
//! Episodes rotate over the four builders and two animations. Each
//! episode starts a fresh tuner with a fixed seed; every frame the tuner
//! proposes `(CI, CB, S[, R])`, the frame's tree is rebuilt and rendered
//! at low resolution on the scalar path, and the tuner is told a
//! deterministic structural cost of the tree that frame built. Since the
//! cost never depends on wall time, every run walks the same
//! configurations and does the same work.

use crate::reference::{self, FrameRef};
use crate::trace::Tracer;
use crate::{procfs, round_order, stats, Report, Round, MIN_ROUNDS};
use kdtune::geometry::{TriangleMesh, Vec3};
use kdtune::kdtree::{build, validate, Algorithm, BuildParams, BuiltTree, TreeStats};
use kdtune::raycast::{render_with_options, Camera, Framebuffer, RenderOptions, RenderStats};
use kdtune::scenes::{self, SceneParams};
use kdtune::{tuning_space, StructuralCostModel, Tuner};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The animations: fairy_forest is the occluded corner case where lazy
/// building pays, toasters an open scene where every object is visible.
/// Both are generated at the service's `tiny` scale (`SceneParams::tiny`,
/// 788 and 572 triangles), as the serve workloads request them.
pub const ANIMATIONS: [&str; 2] = ["fairy_forest", "toasters"];
/// Square render resolution: low, so the build is the larger part of a
/// frame, as in the paper's dynamic scenes. 32×32 on a tiny scene is the
/// tuned frame of the `kdtune` crate's own `TunedPipeline` example.
pub const RES: u32 = 32;
/// Frames per episode; episode frame `i` shows animation frame `i`
/// modulo the animation's length.
pub const EPISODE_FRAMES: usize = 96;
/// Seed of every episode's tuner.
pub const TUNER_SEED: u64 = 2016;
/// Rayon pool width of the in-process loop.
pub const POOL_THREADS: usize = 2;
/// Times the set-up (mesh generation, about 5 ms) is repeated after each
/// timed round, besides the set-up whose meshes the run uses; `setup_s` is
/// the median. Spread over the run, the repeats sample the host's speed
/// over the whole run rather than over its first tenth of a second.
const SETUP_REPEATS_PER_ROUND: usize = 3;

/// One animation's camera and pre-generated frame meshes.
pub struct Animation {
    pub camera: Camera,
    pub light: Vec3,
    pub frames: Vec<Arc<TriangleMesh>>,
}

/// Generates every mesh the episodes use, recording one span per mesh.
fn generate(tracer: &mut Tracer) -> Vec<Animation> {
    ANIMATIONS
        .iter()
        .map(|&name| {
            let scene =
                scenes::by_name(name, &SceneParams::tiny()).expect("animation is registered");
            let view = scene.view;
            let frames = (0..scene.frame_count().min(EPISODE_FRAMES))
                .map(|f| {
                    let t0 = Instant::now();
                    let mesh = scene.frame(f);
                    tracer.record_between("scenes.frame_gen", t0, Instant::now(), None, 0);
                    mesh
                })
                .collect();
            Animation {
                camera: Camera::look_at(view.eye, view.target, view.up, view.fov_deg, RES, RES),
                light: view.light,
                frames,
            }
        })
        .collect()
}

/// What the structural cost model needs from a built tree, taken right
/// after the build: a lazy tree expands while it renders.
enum Shape {
    Eager,
    Lazy { nodes: usize, deferred: usize },
}

/// `core::StructuralCostModel::frame_cost` evaluated on the tree the
/// frame already built instead of a second build.
fn structural_cost(model: &StructuralCostModel, tree: &BuiltTree, shape: &Shape) -> f64 {
    let n = tree.mesh().len().max(1) as f64;
    match (shape, tree) {
        (Shape::Eager, BuiltTree::Eager(t)) => {
            let stats = TreeStats::compute(t);
            let build_work = stats.prim_references as f64
                * n.log2().max(1.0)
                * (stats.max_depth.max(1) as f64).sqrt();
            model.w_build * build_work + model.w_rays * model.rays as f64 * stats.sah_cost as f64
        }
        (&Shape::Lazy { nodes, deferred }, _) => {
            let (nodes, deferred) = (nodes as f64, deferred as f64);
            model.w_build * (nodes * 8.0 + 0.25 * deferred * n.log2().max(1.0))
                + model.w_rays * model.rays as f64 * (deferred.sqrt() + nodes)
        }
        (Shape::Eager, BuiltTree::Lazy(_)) => unreachable!("eager shape of a lazy tree"),
    }
}

/// A frame's render is correct when its counts equal the brute-force
/// reference and every pixel's hit or miss agrees with it; an eager tree
/// must also pass `kdtree::validate`.
pub fn frame_is_correct(
    tree_valid: bool,
    stats: &RenderStats,
    fb: &Framebuffer,
    reference: &FrameRef,
) -> bool {
    let counts = (
        stats.primary_rays,
        stats.primary_hits,
        stats.shadow_rays,
        stats.occluded,
    );
    let expected = (
        reference.primary_rays,
        reference.primary_hits,
        reference.shadow_rays,
        reference.occluded,
    );
    let width = fb.width();
    let pixels_agree = reference.hit.iter().enumerate().all(|(i, &hit)| {
        let (x, y) = (i as u32 % width, i as u32 / width);
        (fb.get(x, y) != Vec3::ZERO) == hit
    });
    tree_valid && counts == expected && pixels_agree
}

/// Per-frame outcome of an episode.
pub struct FrameOutcome {
    /// The program's calls: tuner cycle, build, render.
    pub latency: Duration,
    pub correct: bool,
}

/// Runs one episode: a fresh tuner over `EPISODE_FRAMES` frames of `anim`
/// built with `algo`. Returns the frames and how many frames the tuner
/// took to converge (`EPISODE_FRAMES` when it did not).
pub fn run_episode(
    anim: &Animation,
    refs: &[FrameRef],
    algo: Algorithm,
    tracer: &mut Tracer,
    first_op: u64,
) -> (Vec<FrameOutcome>, usize) {
    let model = StructuralCostModel {
        rays: u64::from(RES * RES),
        ..StructuralCostModel::default()
    };
    let mut tuner = Tuner::builder().seed(TUNER_SEED).build();
    for spec in tuning_space(algo).params() {
        tuner.register(spec.clone());
    }
    let options = RenderOptions::scalar();
    let mut converged_at = None;
    let mut out = Vec::with_capacity(EPISODE_FRAMES);
    for i in 0..EPISODE_FRAMES {
        let op = first_op + i as u64;
        let mesh = &anim.frames[i % anim.frames.len()];

        let t0 = Instant::now();
        tuner.start_cycle();
        let t1 = Instant::now();
        let v = tuner
            .current()
            .expect("a cycle is active")
            .values()
            .to_vec();
        let r = v.get(3).copied().unwrap_or(4096);
        let params = BuildParams::from_config(v[0] as f32, v[1] as f32, v[2] as u32, r as u32);
        let t2 = Instant::now();
        let tree = build(Arc::clone(mesh), algo, &params);
        let t3 = Instant::now();
        let shape = match &tree {
            BuiltTree::Eager(_) => Shape::Eager,
            BuiltTree::Lazy(t) => Shape::Lazy {
                nodes: t.node_count(),
                deferred: t.deferred_prim_references(),
            },
        };
        let t4 = Instant::now();
        let (fb, render_stats, _) =
            render_with_options(&tree, mesh, &anim.camera, anim.light, &options);
        let t5 = Instant::now();
        let cost = structural_cost(&model, &tree, &shape);
        let t6 = Instant::now();
        tuner.stop_with(cost);
        let t7 = Instant::now();

        let latency = (t1 - t0) + (t3 - t2) + (t5 - t4) + (t7 - t6);
        if tracer.enabled() {
            let root = tracer.record_between("frame", t0, t7, None, op);
            tracer.record_between("autotune.start_cycle", t0, t1, root, op);
            tracer.record_between(format!("kdtree.build.{}", algo.name()), t2, t3, root, op);
            let render = tracer.record_between("raycast.render", t4, t5, root, op);
            let rays = render_stats.primary_rays + render_stats.shadow_rays;
            tracer.set_work(render, rays as f64);
            tracer.record_between("autotune.stop_with", t6, t7, root, op);
        }
        if converged_at.is_none() && tuner.converged() {
            converged_at = Some(i + 1);
        }

        let tree_valid = tree.as_eager().is_none_or(|t| validate(t).is_ok());
        let correct = frame_is_correct(tree_valid, &render_stats, &fb, &refs[i % refs.len()]);
        out.push(FrameOutcome { latency, correct });
    }
    (out, converged_at.unwrap_or(EPISODE_FRAMES))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut tracer = Tracer::new(trace);
    let t0 = Instant::now();
    let anims = generate(&mut tracer);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let refs: Vec<Vec<FrameRef>> = anims
        .iter()
        .map(|a| reference::frame_refs(&a.frames, &a.camera, a.light))
        .collect();

    let episodes: Vec<(usize, Algorithm)> = (0..anims.len())
        .flat_map(|a| Algorithm::ALL.into_iter().map(move |algo| (a, algo)))
        .collect();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(POOL_THREADS)
        .build()
        .expect("rayon pool");
    let mut rounds: Vec<Round> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut timed = Duration::ZERO;
    let mut tuning_frames = Vec::new();
    pool.install(|| {
        while timed.as_secs_f64() < seconds || rounds.len() < MIN_ROUNDS {
            let mut round = Round {
                seconds: 0.0,
                correct: 0,
                latency_ms: Vec::new(),
            };
            for i in round_order(episodes.len(), seed, rounds.len() as u64) {
                let (a, algo) = episodes[i];
                let (frames, converged) =
                    run_episode(&anims[a], &refs[a], algo, &mut tracer, attempted);
                tuning_frames.push(converged as f64);
                for f in frames {
                    timed += f.latency;
                    round.seconds += f.latency.as_secs_f64();
                    round.latency_ms.push(f.latency.as_secs_f64() * 1e3);
                    round.correct += u64::from(f.correct);
                    failed += u64::from(!f.correct);
                    attempted += 1;
                }
            }
            rounds.push(round);
            for _ in 0..SETUP_REPEATS_PER_ROUND {
                let t0 = Instant::now();
                let again = generate(&mut tracer);
                setup_s.push(t0.elapsed().as_secs_f64());
                drop(again);
            }
        }
    });
    let rss = procfs::peak_rss_mib(std::process::id()).unwrap_or(f64::NAN);

    let mut report = Report::new(attempted, failed);
    report.end_to_end(&setup_s, &rounds, rss);
    if trace {
        let ms = |name: &str| stats::median(&tracer.durations_us(name)) / 1e3;
        report.layer("scenes.frame_gen_ms", ms("scenes.frame_gen"));
        let cycles: Vec<f64> = tracer
            .durations_us("autotune.start_cycle")
            .iter()
            .zip(tracer.durations_us("autotune.stop_with"))
            .map(|(a, b)| a + b)
            .collect();
        report.layer("autotune.cycle_us", stats::median(&cycles));
        report.layer("autotune.tuning_frames", stats::median(&tuning_frames));
        for algo in Algorithm::ALL {
            let name = format!("kdtree.build.{}", algo.name());
            report.layer(&format!("kdtree.build_ms.{}", algo.name()), ms(&name));
        }
        report.layer("raycast.render_ms", ms("raycast.render"));
        let render_s: f64 = tracer.durations_us("raycast.render").iter().sum::<f64>() / 1e6;
        let rays = tracer.work("raycast.render");
        report.layer("raycast.mrays_per_s", rays / render_s / 1e6);
    }
    report.tracer = Some(tracer);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short episode on a small animation: every frame passes against
    /// the true references, and a perturbed reference count turns exactly
    /// the frames that use it into failures.
    #[test]
    fn perturbed_reference_fails_its_frames() {
        let scene = scenes::by_name("fairy_forest", &SceneParams::tiny()).unwrap();
        let view = scene.view;
        let anim = Animation {
            camera: Camera::look_at(view.eye, view.target, view.up, view.fov_deg, 16, 16),
            light: view.light,
            frames: (0..2).map(|f| scene.frame(f)).collect(),
        };
        let refs = reference::frame_refs(&anim.frames, &anim.camera, anim.light);
        let mut tracer = Tracer::new(false);
        for algo in [Algorithm::InPlace, Algorithm::Lazy] {
            let (frames, _) = run_episode(&anim, &refs, algo, &mut tracer, 0);
            assert!(frames.iter().all(|f| f.correct), "{algo}");
        }

        let mut wrong = refs.clone();
        wrong[1].occluded += 1;
        let (frames, _) = run_episode(&anim, &wrong, Algorithm::NodeLevel, &mut tracer, 0);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.correct, i % 2 == 0, "frame {i}");
        }

        let mut wrong = refs.clone();
        let flip = wrong[0].hit.iter().position(|&h| h).unwrap();
        wrong[0].hit[flip] = false;
        let (frames, _) = run_episode(&anim, &wrong, Algorithm::Nested, &mut tracer, 0);
        assert!(!frames[0].correct && frames[1].correct);
    }
}
