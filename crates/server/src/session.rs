//! Sessions: one long-lived [`TunedPipeline`] per [`SessionSpec`].
//!
//! A session owns the tuner state that makes the service worth running:
//! every `tune_step` request advances the same Nelder–Mead search, and a
//! converged result is written to the [`ConfigStore`] exactly once. New
//! sessions consult the store first and warm-start the tuner from the
//! stored best, so their first measured configuration is the stored one.
//!
//! Render and query sessions are one type. The spec's [`Workload`]
//! decides three things and nothing else: what one tuner cycle measures
//! (build plus frame for render sessions, an eager build plus one point
//! batch for query sessions), which store workload the session
//! warm-starts from and records to, and which extra keys
//! [`Session::summary_json`] reports. Because the cost surfaces differ,
//! the two converge to different trees — which is the reason the
//! workload axis exists everywhere (session map, tree cache, config
//! store).

use crate::protocol::{ErrorCode, QueryShape, SessionSpec, Workload};
use crate::store::ConfigStore;
use kdtune::{
    base_build_params, build_eager, params_from_values, run_query_batch, BuildParams,
    QueryBatchStats, RenderOptions, Scene, SceneParams, StopReason, TunedPipeline, TunerPhase,
};
use kdtune_geometry::TriangleMesh;
use kdtune_kdtree::KdTree;
use kdtune_scenes::sample_points;
use kdtune_telemetry::json::JsonValue;
use kdtune_telemetry::{self as telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Fixed tuner seed for every service session. Determinism across
/// restarts matters more here than seed diversity: a client replaying the
/// same request stream gets the same tuning trajectory.
pub const SESSION_TUNER_SEED: u64 = 2016;

/// Resolves a scale preset name to scene parameters.
pub fn scale_params(scale: &str) -> Result<SceneParams, (ErrorCode, String)> {
    match scale {
        "quick" => Ok(SceneParams::quick()),
        "tiny" => Ok(SceneParams::tiny()),
        "paper" => Ok(SceneParams::paper()),
        other => Err((ErrorCode::BadRequest, format!("unknown scale {other:?}"))),
    }
}

/// What one `tune_step` request did.
#[derive(Clone, Debug)]
pub struct TuneSummary {
    /// Pipeline steps actually run (may stop early on convergence).
    pub steps_run: usize,
    /// Total steps this session has run since creation.
    pub total_steps: usize,
    /// Why the budget loop stopped.
    pub reason: StopReason,
    /// Whether the tuner is converged after this call.
    pub converged: bool,
    /// Tuner phase after this call.
    pub phase: TunerPhase,
    /// Best configuration values so far (empty before first measurement).
    pub best_values: Vec<i64>,
    /// Best measured cost in seconds (0 before first measurement).
    pub best_cost: f64,
    /// Whether this call persisted the converged config to the store.
    pub persisted: bool,
}

/// What a query session's batches run against: the static first frame
/// (tuning needs a fixed cost surface, and the samplers are deterministic
/// by seed) and the batch shape.
#[derive(Clone, Debug)]
pub struct QueryTarget {
    /// The batch shape from the session's spec.
    pub shape: QueryShape,
    /// Frame 0 of the scene.
    pub mesh: Arc<TriangleMesh>,
    /// Gather radius in world units (`radius_pm` × bbox diagonal / 1000).
    pub radius: f32,
}

impl QueryTarget {
    /// Samples the batch for `seed` and runs it against `tree`.
    pub fn run_batch(&self, tree: &KdTree, seed: u64) -> QueryBatchStats {
        let points = sample_points(
            &self.mesh,
            self.shape.sampler,
            self.shape.batch as usize,
            seed,
        );
        run_query_batch(tree, &points, self.shape.k as usize, self.radius)
    }
}

/// One tuning session, render or query. Callers hold it behind
/// `Arc<Mutex<_>>` via the [`SessionManager`].
pub struct Session {
    spec: SessionSpec,
    pipeline: TunedPipeline,
    /// `Some` exactly for query sessions.
    query: Option<QueryTarget>,
    warm_started: bool,
    persisted: bool,
    /// Render or query requests served (monotonic, informational).
    served: u64,
    /// `tune_step` calls that stopped because the tuner converged.
    stops_converged: u64,
    /// `tune_step` calls that exhausted their step budget first.
    stops_frame_budget: u64,
}

impl Session {
    fn create(spec: SessionSpec, store: &ConfigStore) -> Result<Session, (ErrorCode, String)> {
        let params = scale_params(&spec.scale)?;
        let scene = kdtune_scenes::by_name(&spec.scene, &params).ok_or_else(|| {
            (
                ErrorCode::UnknownScene,
                format!(
                    "unknown scene {:?} (expected one of {:?})",
                    spec.scene,
                    kdtune_scenes::SCENE_NAMES
                ),
            )
        })?;
        let query = match spec.workload {
            Workload::Render => None,
            Workload::Query(shape) => {
                let mesh = scene.frame(0);
                let radius = shape.radius_pm as f32 / 1000.0 * mesh.bounds().extent().length();
                Some(QueryTarget {
                    shape,
                    mesh,
                    radius,
                })
            }
        };
        let warm = store.lookup_workload(&spec.scene, spec.algo, spec.workload.name());
        // Sessions keep a fixed packet width — the spec is part of the
        // session key, so clients pick the width per stream.
        let options = RenderOptions::scalar().with_packet_width(spec.packet_width);
        let mut pipeline = TunedPipeline::new(scene, spec.algo)
            .resolution(spec.res, spec.res)
            .render_options(options)
            .tuner_seed(SESSION_TUNER_SEED);
        if let Some(stored) = &warm {
            pipeline = pipeline.warm_start(&stored.values);
        }
        telemetry::event_owned(
            "server.session",
            vec![
                ("op", "create".into()),
                ("session", spec.id().into()),
                ("workload", spec.workload.name().into()),
                ("warm_start", warm.is_some().into()),
            ],
        );
        Ok(Session {
            spec,
            pipeline,
            query,
            warm_started: warm.is_some(),
            persisted: false,
            served: 0,
            stops_converged: 0,
            stops_frame_budget: 0,
        })
    }

    /// The scene backing the pipeline.
    pub fn scene(&self) -> &Scene {
        self.pipeline.scene()
    }

    /// What a query session's batches run against (`None` for render
    /// sessions).
    pub fn query_target(&self) -> Option<&QueryTarget> {
        self.query.as_ref()
    }

    /// Whether the tuner was seeded from a stored configuration.
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// Tuner cycles run so far.
    pub fn steps_taken(&self) -> usize {
        self.pipeline.steps_taken()
    }

    /// Counts one served render or query request and returns what it
    /// builds with: the tuner's best values and their build parameters
    /// once the tuner has measured anything, the paper's `C_base` and
    /// `None` before.
    pub fn serve(&mut self) -> (BuildParams, Option<Vec<i64>>) {
        self.served += 1;
        match self.pipeline.tuner().best() {
            Some((config, _)) => (
                params_from_values(self.spec.algo, config.values()),
                Some(config.values().to_vec()),
            ),
            None => (base_build_params(), None),
        }
    }

    /// Runs up to `steps` tuner cycles, persisting to `store` the first
    /// time the session converges. A render cycle builds and renders the
    /// next frame; a query cycle builds the eager tree with the cycle's
    /// configuration and times one point batch on it.
    pub fn tune(&mut self, steps: usize, store: &ConfigStore) -> TuneSummary {
        let algo = self.spec.algo;
        let (steps_run, reason) = match &self.query {
            None => self.pipeline.run_budget(steps),
            Some(target) => self.pipeline.run_budget_with(steps, |params, _, cycle| {
                let t0 = Instant::now();
                let tree = build_eager(Arc::clone(&target.mesh), algo, params);
                // Decorrelate batches across cycles while staying replayable.
                target.run_batch(&tree, SESSION_TUNER_SEED ^ cycle as u64);
                t0.elapsed().as_secs_f64()
            }),
        };
        match reason {
            StopReason::Converged => self.stops_converged += 1,
            StopReason::FrameBudget => self.stops_frame_budget += 1,
        }
        let tuner = self.pipeline.tuner();
        let converged = tuner.converged();
        let phase = tuner.phase();
        let (best_values, best_cost) = match tuner.best() {
            Some((config, cost)) => (config.values().to_vec(), cost),
            None => (Vec::new(), 0.0),
        };
        let mut persisted = false;
        if converged && !self.persisted && !best_values.is_empty() {
            self.persisted = true;
            persisted = store
                .record_workload(
                    &self.spec.scene,
                    algo,
                    self.spec.workload.name(),
                    self.spec.res,
                    &best_values,
                    best_cost,
                    self.pipeline.steps_taken() as u64,
                )
                .unwrap_or(false);
        }
        telemetry::event_owned(
            "server.session",
            vec![
                ("op", "tune".into()),
                ("session", self.spec.id().into()),
                ("workload", self.spec.workload.name().into()),
                ("steps_run", steps_run.into()),
                ("reason", reason.as_str().into()),
                ("phase", phase.as_str().into()),
                ("persisted", persisted.into()),
            ],
        );
        TuneSummary {
            steps_run,
            total_steps: self.pipeline.steps_taken(),
            reason,
            converged,
            phase,
            best_values,
            best_cost,
            persisted,
        }
    }

    /// Point-in-time convergence summary, as exposed per session in the
    /// `stats` response (`sessions.detail`). Render sessions add
    /// `renders`; query sessions add `queries` and their batch shape.
    pub fn summary_json(&self) -> JsonValue {
        let tuner = self.pipeline.tuner();
        let (best_values, best_cost) = match tuner.best() {
            Some((config, cost)) => (
                config
                    .values()
                    .iter()
                    .copied()
                    .map(JsonValue::from)
                    .collect::<Vec<_>>()
                    .into(),
                JsonValue::from(cost * 1e3),
            ),
            None => (JsonValue::Null, JsonValue::Null),
        };
        let mut fields = vec![
            ("id", JsonValue::from(self.spec.id())),
            ("workload", self.spec.workload.name().into()),
            ("phase", tuner.phase().as_str().into()),
            ("converged", tuner.converged().into()),
            ("steps", self.pipeline.steps_taken().into()),
            ("measurements", tuner.iterations().into()),
            ("retunes", tuner.retunes().into()),
            ("warm_started", self.warm_started.into()),
            ("persisted", self.persisted.into()),
            (
                "stops",
                JsonValue::object([
                    ("converged", JsonValue::from(self.stops_converged)),
                    ("frame_budget", self.stops_frame_budget.into()),
                ]),
            ),
            ("best_config", best_values),
            ("best_cost_ms", best_cost),
        ];
        match &self.query {
            None => fields.push(("renders", self.served.into())),
            Some(QueryTarget { shape, .. }) => fields.extend([
                ("sampler", shape.sampler.name().into()),
                ("batch", shape.batch.into()),
                ("k", shape.k.into()),
                ("radius_pm", shape.radius_pm.into()),
                ("queries", self.served.into()),
            ]),
        }
        JsonValue::object(fields)
    }
}

/// Owns every live session and the store they persist to.
pub struct SessionManager {
    store: Arc<ConfigStore>,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
}

impl SessionManager {
    /// Creates a manager over `store`.
    pub fn new(store: Arc<ConfigStore>) -> SessionManager {
        SessionManager {
            store,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The backing config store.
    pub fn store(&self) -> &ConfigStore {
        &self.store
    }

    /// Returns the session for `spec`, creating (and possibly
    /// warm-starting) it on first use. Scene construction runs outside
    /// the map lock; if two threads race, the first insert wins.
    pub fn get_or_create(
        &self,
        spec: &SessionSpec,
    ) -> Result<Arc<Mutex<Session>>, (ErrorCode, String)> {
        let id = spec.id();
        if let Some(session) = self.sessions.lock().get(&id) {
            return Ok(Arc::clone(session));
        }
        let session = Session::create(spec.clone(), &self.store)?;
        let mut sessions = self.sessions.lock();
        let entry = sessions
            .entry(id)
            .or_insert_with(|| Arc::new(Mutex::new(session)));
        Ok(Arc::clone(entry))
    }

    /// Number of live sessions across both workloads.
    pub fn count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Session ids across both workloads, sorted (for stats reporting).
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.sessions.lock().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Per-session convergence summaries, sorted by id. Sessions busy in
    /// a worker (lock held) are reported as `{"id":…,"busy":true}` rather
    /// than blocking the stats path behind a tune step.
    pub fn summaries(&self) -> Vec<JsonValue> {
        let mut entries: Vec<(String, Arc<Mutex<Session>>)> = {
            let sessions = self.sessions.lock();
            sessions
                .iter()
                .map(|(id, s)| (id.clone(), Arc::clone(s)))
                .collect()
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
            .into_iter()
            .map(|(id, session)| match session.try_lock() {
                Some(session) => session.summary_json(),
                None => JsonValue::object([("id", JsonValue::from(id)), ("busy", true.into())]),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune::Algorithm;

    fn temp_store(tag: &str) -> ConfigStore {
        let path =
            std::env::temp_dir().join(format!("kdtune-session-{tag}-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        ConfigStore::open(path).unwrap()
    }

    fn spec(scene: &str) -> SessionSpec {
        SessionSpec {
            scene: scene.into(),
            scale: "tiny".into(),
            algo: Algorithm::InPlace,
            res: 16,
            packet_width: 1,
            workload: Workload::Render,
        }
    }

    fn query_spec(scene: &str) -> SessionSpec {
        SessionSpec {
            workload: Workload::Query(QueryShape {
                batch: 64,
                ..QueryShape::default()
            }),
            ..spec(scene)
        }
    }

    #[test]
    fn unknown_scene_is_a_typed_error() {
        let manager = SessionManager::new(Arc::new(temp_store("unknown")));
        let Err((code, msg)) = manager.get_or_create(&spec("klein_bottle")) else {
            panic!("unknown scene must not create a session");
        };
        assert_eq!(code, ErrorCode::UnknownScene);
        assert!(msg.contains("klein_bottle"), "{msg}");
        assert_eq!(manager.count(), 0);
    }

    #[test]
    fn sessions_are_shared_by_spec_and_isolated_across_specs() {
        let manager = SessionManager::new(Arc::new(temp_store("shared")));
        let a = manager.get_or_create(&spec("wood_doll")).unwrap();
        let b = manager.get_or_create(&spec("wood_doll")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = manager
            .get_or_create(&SessionSpec {
                res: 24,
                ..spec("wood_doll")
            })
            .unwrap();
        assert!(
            !Arc::ptr_eq(&a, &c),
            "different res means a different session"
        );
        assert_eq!(manager.count(), 2);
    }

    #[test]
    fn untuned_session_renders_with_the_paper_baseline() {
        let manager = SessionManager::new(Arc::new(temp_store("baseline")));
        let session = manager.get_or_create(&spec("wood_doll")).unwrap();
        let mut session = session.lock();
        assert!(session.query_target().is_none());
        let (params, values) = session.serve();
        assert!(values.is_none());
        assert_eq!(
            (params.s, params.r),
            (base_build_params().s, base_build_params().r)
        );
        assert_eq!(session.summary_json().get("renders"), Some(&1.into()));
    }

    #[test]
    fn tune_persists_once_on_convergence_and_warm_starts_the_next_manager() {
        let store = Arc::new(temp_store("warm"));
        let path = store.path().to_path_buf();
        {
            let manager = SessionManager::new(Arc::clone(&store));
            let session = manager.get_or_create(&spec("wood_doll")).unwrap();
            let mut session = session.lock();
            assert!(!session.warm_started());
            let mut persists = 0;
            loop {
                let summary = session.tune(8, manager.store());
                persists += summary.persisted as u32;
                if summary.converged {
                    break;
                }
                assert!(session.steps_taken() < 400, "tuner never converged");
            }
            // Further tuning after convergence never persists again.
            let again = session.tune(1, manager.store());
            assert!(!again.persisted);
            assert_eq!(persists, 1);
        }

        let store = Arc::new(ConfigStore::open(&path).unwrap());
        assert_eq!(store.len(), 1);
        let stored = store
            .lookup_workload("wood_doll", Algorithm::InPlace, "render")
            .expect("converged config persists under the render workload");
        let manager = SessionManager::new(store);
        let session = manager.get_or_create(&spec("wood_doll")).unwrap();
        let mut session = session.lock();
        assert!(
            session.warm_started(),
            "stored config must warm-start the new session"
        );
        loop {
            let summary = session.tune(8, manager.store());
            if summary.converged {
                break;
            }
            assert!(session.steps_taken() < 400, "warm tuner never converged");
        }
        // The warm session measured the stored configuration first.
        assert_eq!(
            session.pipeline.tuner().history()[0].config.values(),
            stored.values.as_slice()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stored_config_of_the_wrong_length_starts_the_session_cold() {
        // Two values for an in_place key, whose space has three (CI, CB,
        // S): seeding the tuner with them panicked its first cycle.
        let path = std::env::temp_dir().join(format!(
            "kdtune-session-short-config-{}.jsonl",
            std::process::id()
        ));
        let line = format!(
            r#"{{"version":1,"scene":"wood_doll","algo":"in_place","workload":"render","threads":{},"host":{:?},"res":16,"config":[21,11],"cost":0.001,"steps":9}}"#,
            rayon::current_num_threads().max(1),
            crate::store::hostname(),
        );
        std::fs::write(&path, line + "\n").unwrap();
        let store = Arc::new(ConfigStore::open(&path).unwrap());
        assert_eq!(store.len(), 1, "the line itself parses");
        let manager = SessionManager::new(store);
        let session = manager.get_or_create(&spec("wood_doll")).unwrap();
        let mut session = session.lock();
        assert!(!session.warm_started());
        session.tune(1, manager.store());
        assert_eq!(session.steps_taken(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn render_and_query_sessions_are_isolated() {
        let manager = SessionManager::new(Arc::new(temp_store("isolated")));
        let _render = manager.get_or_create(&spec("wood_doll")).unwrap();
        let q1 = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        let q2 = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        assert!(Arc::ptr_eq(&q1, &q2), "equal query specs share a session");
        assert_eq!(manager.count(), 2);
        let ids = manager.ids();
        assert!(ids.iter().any(|id| id.contains("/query/")), "{ids:?}");
        let summaries = manager.summaries();
        assert_eq!(summaries.len(), 2);
        let workloads: Vec<&str> = summaries
            .iter()
            .filter_map(|s| s.get("workload").and_then(JsonValue::as_str))
            .collect();
        assert!(workloads.contains(&"render") && workloads.contains(&"query"));
    }

    #[test]
    fn query_session_runs_batches_and_reports_results() {
        let manager = SessionManager::new(Arc::new(temp_store("qbatch")));
        let session = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        let mut session = session.lock();
        let (params, values) = session.serve();
        assert!(values.is_none(), "fresh query session starts at C_base");
        let target = session.query_target().expect("query session").clone();
        let tree = build_eager(Arc::clone(&target.mesh), Algorithm::InPlace, &params);
        let stats = target.run_batch(&tree, 5);
        assert_eq!(stats.points, 64);
        assert_eq!(stats.knn_results, 64 * 8, "k=8 neighbors per point");
        assert!(stats.mean_knn_far_d2 > 0.0);
        // Same seed, same batch: deterministic replay.
        let again = target.run_batch(&tree, 5);
        assert_eq!(stats.knn_results, again.knn_results);
        assert_eq!(stats.radius_results, again.radius_results);
        session.serve();
        let summary = session.summary_json();
        assert_eq!(summary.get("queries"), Some(&2.into()));
        assert_eq!(summary.get("batch"), Some(&64.into()));
        assert!(summary.get("renders").is_none());
    }

    #[test]
    fn query_tune_persists_under_the_query_workload_and_warm_starts() {
        let store = Arc::new(temp_store("qwarm"));
        let path = store.path().to_path_buf();
        let cold_steps;
        {
            let manager = SessionManager::new(Arc::clone(&store));
            let session = manager.get_or_create(&query_spec("wood_doll")).unwrap();
            let mut session = session.lock();
            assert!(!session.warm_started());
            let mut persists = 0;
            loop {
                let summary = session.tune(8, manager.store());
                persists += summary.persisted as u32;
                if summary.converged {
                    break;
                }
                assert!(session.steps_taken() < 400, "query tuner never converged");
            }
            cold_steps = session.steps_taken();
            assert_eq!(persists, 1);
            // A converged session measures one more cycle per call, then
            // stops on convergence, and never persists again.
            let again = session.tune(4, manager.store());
            assert!(!again.persisted);
            assert_eq!((again.steps_run, again.reason), (1, StopReason::Converged));
            assert_eq!(session.steps_taken(), cold_steps + 1);
        }

        let store = Arc::new(ConfigStore::open(&path).unwrap());
        let stored = store
            .lookup_workload("wood_doll", Algorithm::InPlace, "query")
            .expect("converged query config must persist under the query workload");
        assert!(
            store
                .lookup_workload("wood_doll", Algorithm::InPlace, "render")
                .is_none(),
            "query tuning must not pollute render warm starts"
        );
        let manager = SessionManager::new(store);
        let session = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        let mut session = session.lock();
        assert!(session.warm_started());
        loop {
            let summary = session.tune(8, manager.store());
            if summary.converged {
                break;
            }
            assert!(
                session.steps_taken() < 400,
                "warm query tuner never converged"
            );
        }
        // The warm session measured the stored configuration first.
        assert_eq!(
            session.pipeline.tuner().history()[0].config.values(),
            stored.values.as_slice()
        );
        std::fs::remove_file(&path).ok();
    }
}
