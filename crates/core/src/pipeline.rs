//! The paper's Fig. 4 loop over a [`Scene`]: register the tuned
//! parameters once, then bracket every measured cycle.
//!
//! [`TunedPipeline`] owns the tuner. A cycle maps the tuner's
//! configuration to [`BuildParams`] ([`params_from_values`]), measures a
//! cost and reports it back. [`TunedPipeline::step`] measures a build and
//! a render of the next animation frame; [`TunedPipeline::run_budget_with`]
//! measures whatever the caller supplies (the render service's query
//! sessions time an eager build and one point batch). Static scenes run
//! the same loop on a constant mesh — camera positioning, system load and
//! other environment effects still shift the optimum, which is why the
//! paper tunes online even for static geometry.

use crate::config::{base_build_params, params_from_values, tuning_space};
use kdtune_autotune::{Config, ParamHandle, Tuner, TunerPhase};
use kdtune_geometry::Vec3;
use kdtune_kdtree::{Algorithm, BuildParams, PacketCounters, TreeStats};
use kdtune_raycast::{timed_frame, Camera, RenderOptions, RenderStats, TimedFrame};
use kdtune_scenes::Scene;
use kdtune_telemetry as telemetry;

/// Default experiment raster (the paper does not report its resolution;
/// renders scale linearly in pixel count, so experiments pick sizes that
/// fit their time budget).
const DEFAULT_RES: u32 = 128;

/// Tuner seed of a pipeline that is given none.
const DEFAULT_SEED: u64 = 0x7e57;

/// Why a budgeted convergence run stopped — distinct outcomes matter to
/// long-running callers (the render service only persists a tuned
/// configuration to its store when the tuner actually converged, never
/// when the frame budget simply ran out).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The tuner's search round converged within the budget.
    Converged,
    /// The step budget elapsed first.
    FrameBudget,
}

impl StopReason {
    /// Stable lowercase name, used in telemetry events and wire responses.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::FrameBudget => "frame_budget",
        }
    }

    /// True for [`StopReason::Converged`].
    pub fn is_converged(self) -> bool {
        self == StopReason::Converged
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything measured for one frame.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Configuration that was active.
    pub config: Config,
    /// Build parameters derived from it.
    pub params: BuildParams,
    /// kD-tree construction time (`t_c`), seconds.
    pub build_secs: f64,
    /// Rendering time (`t_r`), seconds.
    pub render_secs: f64,
    /// Total measured cost fed to the tuner (`t = t_c + t_r`).
    pub total_secs: f64,
    /// Renderer counters.
    pub stats: RenderStats,
    /// Packet-traversal counters (all zero on scalar renders).
    pub packet: PacketCounters,
    /// Render options the frame actually used (reflects the tuner's
    /// packet-width choice when those axes are registered).
    pub options: RenderOptions,
    /// Tuner phase during this frame.
    pub phase: TunerPhase,
}

/// A scene + algorithm + tuner, stepped one cycle at a time (Fig. 4).
pub struct TunedPipeline {
    scene: Scene,
    algorithm: Algorithm,
    tuner: Tuner,
    /// Handles of `W` and `MA` when the packet axes are tuned.
    packet_axes: Option<(ParamHandle, ParamHandle)>,
    tune_packets: bool,
    seed: u64,
    warm: Option<Vec<i64>>,
    render_options: RenderOptions,
    camera: Camera,
    light: Vec3,
    frame_repeat: usize,
}

impl TunedPipeline {
    /// Creates a pipeline rendering `scene` with the given algorithm at
    /// the default resolution.
    pub fn new(scene: Scene, algorithm: Algorithm) -> TunedPipeline {
        let v = scene.view;
        let camera = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, DEFAULT_RES, DEFAULT_RES);
        TunedPipeline {
            algorithm,
            tuner: Tuner::new(),
            packet_axes: None,
            tune_packets: false,
            seed: DEFAULT_SEED,
            warm: None,
            render_options: RenderOptions::default(),
            camera,
            light: v.light,
            scene,
            frame_repeat: 1,
        }
        .with_tuner(|_| {})
    }

    /// Applies a tuner setting and replaces the tuner with a fresh one:
    /// the paper's space from [`tuning_space`], then `W` and `MA` when
    /// the packet axes are on.
    fn with_tuner(mut self, set: impl FnOnce(&mut TunedPipeline)) -> TunedPipeline {
        assert_eq!(
            self.steps_taken(),
            0,
            "tuner settings must be changed before stepping"
        );
        set(&mut self);
        let mut builder = Tuner::builder().seed(self.seed);
        if let Some(values) = &self.warm {
            builder = builder.warm_start(values);
        }
        let mut tuner = builder.build();
        for spec in tuning_space(self.algorithm).params() {
            tuner.register(spec.clone());
        }
        self.packet_axes = self.tune_packets.then(|| {
            (
                tuner.register_parameter_choices("W", &[1, 4, 8]),
                tuner.register_parameter("MA", 1, 8, 1),
            )
        });
        self.tuner = tuner;
        self
    }

    /// Repeats every animation frame `k` times (the paper extends the
    /// dynamic scenes this way — "we artificially extend the sequence by
    /// repeating every frame 5 times", §V-C).
    pub fn frame_repeat(mut self, k: usize) -> TunedPipeline {
        self.frame_repeat = k.max(1);
        self
    }

    /// Changes the render resolution.
    pub fn resolution(mut self, width: u32, height: u32) -> TunedPipeline {
        self.camera = self.camera.with_resolution(width, height);
        self
    }

    /// Re-seeds the tuner (fresh pipelines only — before the first step).
    ///
    /// # Panics
    /// Panics after stepping has begun.
    pub fn tuner_seed(self, seed: u64) -> TunedPipeline {
        self.with_tuner(|p| p.seed = seed)
    }

    /// Warm-starts the tuner from a known-good configuration (raw
    /// parameter values in registration order — CI, CB, S, and R for the
    /// lazy builder), typically one recorded by a previous converged run
    /// on the same scene and hardware. Fresh pipelines only.
    ///
    /// # Panics
    /// Panics after stepping has begun.
    pub fn warm_start(self, values: &[i64]) -> TunedPipeline {
        self.with_tuner(|p| p.warm = Some(values.to_vec()))
    }

    /// Adds the packet axes (`W` ∈ {1, 4, 8} and `MA` = min-active lanes)
    /// to the tuning space, so the search picks a ray-packet width per
    /// scene online instead of rendering with a fixed
    /// [`TunedPipeline::render_options`] width. Every width renders
    /// bit-identical images, so the axes move only the frame-time cost
    /// surface. Fresh pipelines only.
    ///
    /// # Panics
    /// Panics after stepping has begun.
    pub fn tune_packets(self) -> TunedPipeline {
        self.with_tuner(|p| p.tune_packets = true)
    }

    /// Selects scalar or packet ray tracing for tuned frames *and* the
    /// untuned baseline (pixels and [`RenderStats`] are bit-identical
    /// either way; only frame time differs). With tuned packet axes the
    /// tuner's width and threshold override the ones given here.
    pub fn render_options(mut self, options: RenderOptions) -> TunedPipeline {
        self.render_options = options;
        self
    }

    /// The scene being rendered.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The tuner (best configuration, history, phase).
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// Starts a tuner cycle; returns its configuration's build parameters
    /// and render options (the tuner's packet width and threshold, when
    /// those axes are tuned).
    fn begin_cycle(&mut self) -> (BuildParams, RenderOptions) {
        self.tuner.start_cycle();
        let config = self.tuner.current().expect("cycle started");
        let params = params_from_values(self.algorithm, config.values());
        let mut options = self.render_options;
        if let Some((w, ma)) = self.packet_axes {
            options.packet_width = self.tuner.get(w) as u32;
            options.packet_min_active = self.tuner.get(ma) as u32;
        }
        (params, options)
    }

    /// Runs one tuned frame and advances the animation: the measured cost
    /// is the build plus the render of the next animation frame.
    pub fn step(&mut self) -> FrameReport {
        let mesh = self.scene.frame(self.next_frame_index());
        let (params, options) = self.begin_cycle();
        let config = self.tuner.current().expect("cycle started").clone();
        let phase = self.tuner.phase();
        let frame = timed_frame(
            mesh,
            self.algorithm,
            &params,
            &self.camera,
            self.light,
            &options,
        );
        let total_secs = frame.total_secs();
        let index = self.tuner.iterations();
        self.tuner.stop_with(total_secs);
        if telemetry::enabled() {
            self.frame_event(index, &config, phase, &options, &frame);
        }
        FrameReport {
            config,
            params,
            build_secs: frame.build_secs,
            render_secs: frame.render_secs,
            total_secs,
            stats: frame.stats,
            packet: frame.packet,
            options,
            phase,
        }
    }

    /// Emits the `workflow.frame` event of one tuned frame.
    fn frame_event(
        &self,
        index: usize,
        config: &Config,
        phase: TunerPhase,
        options: &RenderOptions,
        frame: &TimedFrame,
    ) {
        let (stats, packet, tree) = (&frame.stats, &frame.packet, &frame.tree);
        // Traversal throughput: every ray the frame cast, over the render
        // wall time (guarded against a zero-duration clock).
        let rays = stats.primary_rays + stats.shadow_rays;
        let rays_per_sec = if frame.render_secs > 0.0 {
            rays as f64 / frame.render_secs
        } else {
            0.0
        };
        let mut fields = vec![
            ("frame", index.into()),
            ("algorithm", self.algorithm.name().into()),
            ("phase", phase.as_str().into()),
            ("config", config.to_string().into()),
            ("build_secs", frame.build_secs.into()),
            ("render_secs", frame.render_secs.into()),
            ("total_secs", frame.total_secs().into()),
            ("primary_rays", stats.primary_rays.into()),
            ("primary_hits", stats.primary_hits.into()),
            ("shadow_rays", stats.shadow_rays.into()),
            ("occluded", stats.occluded.into()),
            ("rays_per_sec", rays_per_sec.into()),
            ("packets", options.uses_packets().into()),
            (
                "packet_width",
                u64::from(options.packet_width.max(1)).into(),
            ),
            ("packet_lanes_utilized", packet.lane_utilization().into()),
            ("packet_frustum_rate", packet.frustum_rate().into()),
            ("packet_fallback_lanes", packet.scalar_fallback_lanes.into()),
            ("nodes", tree.node_count().into()),
            ("node_bytes", tree.node_bytes().into()),
        ];
        // Tree-quality metrics require a full traversal, so they are
        // computed only while a recorder is listening (and only for eager
        // trees — a lazy tree would be forced by the walk).
        if let Some(eager) = tree.as_eager() {
            let ts = TreeStats::compute(eager);
            fields.push(("leaves", ts.leaf_count.into()));
            fields.push(("tree_depth", ts.max_depth.into()));
            fields.push(("duplication", ts.duplication_factor.into()));
            fields.push(("sah_cost", ts.sah_cost.into()));
        }
        telemetry::event_owned("workflow.frame", fields);
    }

    /// The animation frame index the next [`TunedPipeline::step`] renders.
    pub fn next_frame_index(&self) -> usize {
        self.steps_taken() / self.frame_repeat
    }

    /// The number of tuner cycles run so far (every [`TunedPipeline::step`]
    /// and every measured cycle). Pipeline *step* indices (which advance
    /// every cycle) and *animation* frame indices (which advance every
    /// `frame_repeat` steps) differ on repeated dynamic scenes;
    /// [`TunedPipeline::baseline_range`] takes the former.
    pub fn steps_taken(&self) -> usize {
        self.tuner.iterations()
    }

    /// Runs up to `max_steps` tuned frames ([`TunedPipeline::step`]),
    /// stopping early once the tuner converges. Returns how many ran in
    /// *this* call (long-running callers invoke it repeatedly on the same
    /// pipeline) and why the run stopped, and emits a `pipeline.run`
    /// telemetry event carrying the reason.
    pub fn run_budget(&mut self, max_steps: usize) -> (usize, StopReason) {
        self.budget(max_steps, |p| {
            p.step();
        })
    }

    /// [`TunedPipeline::run_budget`] with a measurement the caller
    /// supplies: each cycle's cost is `measure(params, options, cycle)`,
    /// given the cycle's build parameters, the render options a
    /// [`TunedPipeline::step`] would render with, and the cycle's index
    /// (the cycles run before it). Nothing is rendered; each cycle counts
    /// as one step.
    pub fn run_budget_with(
        &mut self,
        max_steps: usize,
        mut measure: impl FnMut(&BuildParams, &RenderOptions, usize) -> f64,
    ) -> (usize, StopReason) {
        self.budget(max_steps, |p| {
            let (params, options) = p.begin_cycle();
            let cost = measure(&params, &options, p.tuner.iterations());
            p.tuner.stop_with(cost);
        })
    }

    /// The budgeted loop: one `cycle` per step, checking for convergence
    /// after each.
    fn budget(
        &mut self,
        max_steps: usize,
        mut cycle: impl FnMut(&mut TunedPipeline),
    ) -> (usize, StopReason) {
        let mut steps = 0;
        let mut reason = StopReason::FrameBudget;
        while steps < max_steps {
            cycle(self);
            steps += 1;
            if self.tuner.converged() {
                reason = StopReason::Converged;
                break;
            }
        }
        telemetry::event(
            "pipeline.run",
            &[
                ("reason", reason.as_str().into()),
                ("steps", steps.into()),
                ("total_steps", self.steps_taken().into()),
                ("converged", self.tuner.converged().into()),
            ],
        );
        (steps, reason)
    }

    /// Runs frames until the tuner converges (or `max_frames` elapse);
    /// returns whether the tuner is converged. See
    /// [`TunedPipeline::run_budget`] for the stop *reason* (the boolean
    /// also covers a tuner that converged on an earlier call).
    pub fn run_until_converged(&mut self, max_frames: usize) -> bool {
        let _ = self.run_budget(max_frames);
        self.tuner.converged()
    }

    /// Measures the *untuned* baseline: the same frame loop pinned to
    /// `C_base`, for `n` steps starting at the animation origin. Returns
    /// per-frame total seconds.
    pub fn baseline(&self, n: usize) -> Vec<f64> {
        self.baseline_range(0, n)
    }

    /// The animation frames pipeline steps `start .. start + n` render —
    /// each animation frame repeats `frame_repeat` times, exactly
    /// mirroring [`TunedPipeline::step`].
    fn baseline_frames(&self, start: usize, n: usize) -> impl Iterator<Item = usize> + '_ {
        (start..start + n).map(move |f| f / self.frame_repeat)
    }

    /// Baseline over pipeline *steps* `start .. start + n`: renders the
    /// same animation-frame sequence the tuned steps at those positions
    /// render (pass [`TunedPipeline::steps_taken`] as `start` to mirror a
    /// tuned window on a repeated dynamic scene — not the animation frame
    /// index, which would divide by `frame_repeat` twice).
    pub fn baseline_range(&self, start: usize, n: usize) -> Vec<f64> {
        let params = base_build_params();
        self.baseline_frames(start, n)
            .map(|frame| {
                timed_frame(
                    self.scene.frame(frame),
                    self.algorithm,
                    &params,
                    &self.camera,
                    self.light,
                    &self.render_options,
                )
                .total_secs()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StructuralCostModel;
    use kdtune_geometry::{Hit, Ray, RayPacket};
    use kdtune_kdtree::{RayQuery, TraversalCounters};
    use kdtune_raycast::render_with_options;
    use kdtune_scenes::{toasters, wood_doll, SceneParams};
    use std::sync::Arc;

    fn pipeline() -> TunedPipeline {
        TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::InPlace)
            .resolution(24, 24)
            .tuner_seed(5)
    }

    fn param_names(p: &TunedPipeline) -> Vec<&str> {
        let space = p.tuner().space();
        space.params().iter().map(|s| s.name.as_str()).collect()
    }

    #[test]
    fn steps_render_and_record() {
        let mut p = pipeline();
        for _ in 0..6 {
            let report = p.step();
            assert!(report.total_secs >= report.build_secs);
            assert_eq!(report.stats.primary_rays, 24 * 24);
            // Non-lazy algorithms tune 3 parameters.
            assert_eq!(report.config.values().len(), 3);
            assert_eq!(
                report.params,
                params_from_values(Algorithm::InPlace, report.config.values())
            );
        }
        assert_eq!(p.steps_taken(), 6);
        assert_eq!(p.tuner().iterations(), 6);
    }

    #[test]
    fn configs_vary_during_seeding() {
        let mut p = TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::NodeLevel)
            .resolution(16, 16)
            .tuner_seed(3);
        let configs: std::collections::HashSet<Config> = (0..8).map(|_| p.step().config).collect();
        assert!(configs.len() >= 4, "seeding must explore: {configs:?}");
    }

    #[test]
    fn baseline_runs_fixed_config() {
        let p = pipeline();
        let costs = p.baseline(3);
        assert_eq!(costs.len(), 3);
        assert!(costs.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn convergence_loop_caps_at_max_frames() {
        let mut p = pipeline();
        let _converged = p.run_until_converged(5);
        assert!(p.steps_taken() <= 5);
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn late_seed_change_rejected() {
        let mut p = pipeline();
        p.step();
        let _ = p.tuner_seed(9);
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn late_warm_start_rejected() {
        let mut p = pipeline();
        p.step();
        let _ = p.warm_start(&[17, 10, 3]);
    }

    #[test]
    fn run_budget_reports_only_new_frames_and_reason() {
        let mut p = pipeline();
        let (steps, reason) = p.run_budget(3);
        assert_eq!(steps, 3);
        assert_eq!(reason, StopReason::FrameBudget);
        assert_eq!(reason.as_str(), "frame_budget");
        assert!(!reason.is_converged());
        // A second budget counts its own frames, not the accumulated run.
        let (steps, _) = p.run_budget(2);
        assert_eq!(steps, 2);
        assert_eq!(p.steps_taken(), 5);
    }

    #[test]
    fn run_budget_stops_on_convergence_with_reason() {
        let mut p = pipeline();
        let (steps, reason) = p.run_budget(400);
        assert_eq!(reason, StopReason::Converged);
        assert!(reason.is_converged());
        assert!(steps < 400, "converged early: {steps}");
        assert!(p.tuner().converged());
        // A zero-budget call on a converged pipeline reports FrameBudget
        // (nothing ran) while run_until_converged still answers true.
        let (steps, reason) = p.run_budget(0);
        assert_eq!(steps, 0);
        assert_eq!(reason, StopReason::FrameBudget);
        assert!(p.run_until_converged(0));
        // A budget on a converged pipeline measures one cycle, then stops.
        assert_eq!(p.run_budget(5), (1, StopReason::Converged));
    }

    #[test]
    fn tune_packets_survives_seed_rebuild_and_extends_space() {
        let mut p = TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::InPlace)
            .resolution(24, 24)
            .tune_packets()
            .tuner_seed(5);
        assert_eq!(param_names(&p), ["CI", "CB", "S", "W", "MA"]);
        let report = p.step();
        // (CI, CB, S) + (W, MA).
        assert_eq!(report.config.values().len(), 5);
        assert!([1, 4, 8].contains(&report.options.packet_width));
    }

    #[test]
    fn tuned_packet_axes_drive_the_render_options() {
        let mut p = TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::InPlace)
            .resolution(16, 16)
            .tune_packets()
            .tuner_seed(5);
        let mut widths = std::collections::HashSet::new();
        for _ in 0..8 {
            let report = p.step();
            let values = report.config.values();
            assert_eq!(report.options.packet_width as i64, values[3]);
            assert_eq!(report.options.packet_min_active as i64, values[4]);
            assert!((1..=8).contains(&report.options.packet_min_active));
            widths.insert(report.options.packet_width);
        }
        assert!(widths.len() > 1, "seeding must explore widths: {widths:?}");
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn late_tune_packets_rejected() {
        let mut p = pipeline();
        p.step();
        let _ = p.tune_packets();
    }

    /// A tree whose scalar queries tally their traversal work; primary
    /// packets take the tree's own packet loop, which counts its work in
    /// the render's [`PacketCounters`].
    struct Counted<'a> {
        tree: &'a kdtune_kdtree::KdTree,
        work: std::sync::Mutex<TraversalCounters>,
    }

    impl<'a> Counted<'a> {
        fn new(tree: &'a kdtune_kdtree::KdTree) -> Counted<'a> {
            Counted {
                tree,
                work: Default::default(),
            }
        }

        fn add(&self, c: TraversalCounters) {
            let mut work = self.work.lock().unwrap();
            *work = work.merge(c);
        }
    }

    impl RayQuery for Counted<'_> {
        fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
            let (hit, c) = self.tree.intersect_counted(ray, t_min, t_max);
            self.add(c);
            hit
        }
        fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
            let (blocked, c) = self.tree.intersect_any_counted(ray, t_min, t_max);
            self.add(c);
            blocked
        }
        fn intersect_packet<const W: usize>(
            &self,
            p: &RayPacket<W>,
            t_min: f32,
            min_active: u32,
            use_frustum: bool,
            counters: &mut PacketCounters,
        ) -> [Option<Hit>; W] {
            self.tree
                .intersect_packet(p, t_min, min_active, use_frustum, counters)
        }
    }

    #[test]
    fn tuner_converges_to_wide_packets_on_coherent_frames() {
        // The packet-width integration test: a coherent workload (fairy
        // forest's dense foliage keeps adjacent primary rays on shared
        // tree paths), tuned on the traversal work of a 128² frame rather
        // than on wall time, so the walk is exact. A shared packet step
        // or wide triangle test costs what one scalar step or test does
        // (`CT`, `CI`); a lane handed to the scalar path costs the
        // frame's mean scalar ray, which overcharges lanes resumed
        // mid-traversal.
        use kdtune_scenes::fairy_forest;
        let scene = fairy_forest(&SceneParams::tiny());
        let mesh = scene.frame(0);
        let v = scene.view;
        let camera = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 128, 128);
        let (ct, ci) = (10.0, 17.0);
        let frame_work = |params: &BuildParams, options: &RenderOptions| {
            let built = kdtune_kdtree::build(Arc::clone(&mesh), Algorithm::InPlace, params);
            let tree = built.as_eager().expect("in-place builds eager trees");
            let render = |options: &RenderOptions| {
                let counted = Counted::new(tree);
                let (_, stats, packet) =
                    render_with_options(&counted, &mesh, &camera, v.light, options);
                let scalar = counted.work.into_inner().unwrap().weighted_cost(ct, ci);
                (stats, packet, scalar)
            };
            let (stats, _, scalar) = render(&RenderOptions::scalar());
            if !options.uses_packets() {
                return scalar;
            }
            let rays = (stats.primary_rays + stats.shadow_rays) as f64;
            let (_, packet, remainder) = render(options);
            remainder
                + ct as f64 * packet.node_steps as f64
                + ci as f64 * packet.tri_tests as f64
                + packet.scalar_fallback_lanes as f64 * scalar / rays
        };
        let mut p = TunedPipeline::new(scene.clone(), Algorithm::InPlace)
            .tune_packets()
            .tuner_seed(1);
        let (_, reason) = p.run_budget_with(150, |params, options, _| frame_work(params, options));
        let (best, _) = p.tuner().best().expect("measured configs");
        assert_eq!(reason, StopReason::Converged);
        // (CI, CB, S, W, MA): W is the fourth axis.
        assert!(best.values()[3] > 1, "best {best}");
    }

    #[test]
    fn warm_start_seeds_first_config() {
        let mut p = pipeline().warm_start(&[21, 11, 4]);
        p.step();
        assert_eq!(p.tuner().history()[0].config.values(), &[21, 11, 4]);
    }

    #[test]
    fn warm_start_and_seed_compose_in_any_order() {
        let mut a = pipeline().warm_start(&[21, 11, 4]);
        // `pipeline()` already applied tuner_seed(5); setting the seed
        // after the warm start must not drop the warm start.
        let mut b = TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::InPlace)
            .resolution(24, 24)
            .warm_start(&[21, 11, 4])
            .tuner_seed(5);
        a.step();
        b.step();
        assert_eq!(a.tuner().history()[0].config, b.tuner().history()[0].config);
    }

    #[test]
    fn baseline_range_mirrors_step_frames_under_frame_repeat() {
        // Regression: baseline_range takes pipeline step indices and must
        // render exactly the animation frames those steps render. The old
        // harness passed an animation frame index, dividing by the repeat
        // factor twice and comparing against the wrong window.
        let mut p = pipeline().frame_repeat(5);
        for _ in 0..7 {
            p.step();
        }
        assert_eq!(p.steps_taken(), 7);
        // Steps 7..12 render animation frames 1,1,1,2,2 …
        let frames: Vec<usize> = p.baseline_frames(p.steps_taken(), 5).collect();
        assert_eq!(frames, vec![1, 1, 1, 2, 2]);
        // … and the next tuned step agrees with the window's first frame.
        assert_eq!(p.next_frame_index(), frames[0]);
        // A fair window therefore covers frame_repeat steps per frame.
        let costs = p.baseline_range(p.steps_taken(), 2);
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|&c| c > 0.0));
    }

    /// The budgeted loop with a deterministic measurement: the structural
    /// cost of the tree each cycle's parameters build. No wall clock is
    /// read, so every assertion is exact.
    #[test]
    fn budgeted_loop_under_a_structural_cost_is_exact() {
        let scene = toasters(&SceneParams::tiny());
        let mesh = scene.frame(0);
        let model = StructuralCostModel::default();
        let tune = |algorithm: Algorithm, warm: Option<&[i64]>, packets: bool| {
            let mut p = TunedPipeline::new(scene.clone(), algorithm).tuner_seed(11);
            if let Some(values) = warm {
                p = p.warm_start(values);
            }
            if packets {
                p = p.tune_packets();
            }
            let mut cycles = Vec::new();
            let (steps, reason) = p.run_budget_with(400, |params, _, cycle| {
                cycles.push(cycle);
                model.frame_cost(&mesh, algorithm, params)
            });
            assert_eq!(reason, StopReason::Converged, "{algorithm}");
            assert_eq!(cycles, (0..steps).collect::<Vec<_>>());
            assert_eq!(p.steps_taken(), steps);
            p
        };
        let configs = |p: &TunedPipeline| -> Vec<Config> {
            p.tuner()
                .history()
                .iter()
                .map(|m| m.config.clone())
                .collect()
        };

        // Equal seeds walk equal configuration sequences.
        let cold = tune(Algorithm::InPlace, None, false);
        assert_eq!(
            configs(&cold),
            configs(&tune(Algorithm::InPlace, None, false))
        );
        assert_eq!(param_names(&cold), ["CI", "CB", "S"]);

        // A warm start from the converged best converges in fewer cycles.
        let best = cold.tuner().best().expect("measured").0.values().to_vec();
        let warm = tune(Algorithm::InPlace, Some(&best), false);
        assert_eq!(warm.tuner().history()[0].config.values(), &best[..]);
        assert!(
            warm.steps_taken() < cold.steps_taken(),
            "warm {} vs cold {}",
            warm.steps_taken(),
            cold.steps_taken()
        );

        // The lazy builder tunes R as well: powers of two in [16, 8192].
        let lazy = tune(Algorithm::Lazy, None, false);
        assert_eq!(param_names(&lazy), ["CI", "CB", "S", "R"]);
        let rs: std::collections::HashSet<i64> =
            configs(&lazy).iter().map(|c| c.values()[3]).collect();
        assert!(rs.len() > 1, "R must be explored: {rs:?}");
        assert!(rs
            .iter()
            .all(|r| r.count_ones() == 1 && (16..=8192).contains(r)));

        // The packet axes follow the paper's space.
        let packets = tune(Algorithm::InPlace, None, true);
        assert_eq!(param_names(&packets), ["CI", "CB", "S", "W", "MA"]);
    }
}
