//! # kdtune
//!
//! Online-autotuned parallel SAH kD-tree construction — a from-scratch
//! reproduction of *Online-Autotuning of Parallel SAH kD-Trees*
//! (Tillmann, Pfaffe, Kaag, Tichy; 2016).
//!
//! This facade crate re-exports the whole workspace and adds the
//! high-level [`TunedPipeline`], which owns the online tuner and runs the
//! paper's per-frame loop (Fig. 4) over a scene and a construction
//! algorithm, or over any measurement the caller supplies per cycle.
//!
//! ```
//! use kdtune::{Algorithm, SceneParams, TunedPipeline};
//!
//! let scene = kdtune::scenes::wood_doll(&SceneParams::tiny());
//! let mut pipeline = TunedPipeline::new(scene, Algorithm::InPlace)
//!     .resolution(32, 32)
//!     .tuner_seed(7);
//! let report = pipeline.step(); // one tuned frame
//! assert!(report.total_secs > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`geometry`] | vectors, AABBs, rays, triangles, meshes, OBJ I/O |
//! | [`scenes`] | the six procedural evaluation scenes |
//! | [`kdtree`] | SAH kD-trees, the four parallel builders, traversal |
//! | [`autotune`] | the AtuneRT-style online tuner and search baselines |
//! | [`raycast`] | the ray caster and the timed build + render a cycle measures |
//!
//! The facade's own items: [`TunedPipeline`] (the Fig. 4 loop),
//! [`tuning_space`] and [`params_from_values`] (the paper's Table II space
//! and its mapping to build parameters), [`StructuralCostModel`] (a
//! deterministic frame cost), [`select_algorithm`], and the point-query
//! batch ([`build_eager`], [`run_query_batch`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cost_model;
mod pipeline;
mod query;
mod selector;

/// Re-export of [`kdtune_autotune`].
pub use kdtune_autotune as autotune;
/// Re-export of [`kdtune_geometry`].
pub use kdtune_geometry as geometry;
/// Re-export of [`kdtune_kdtree`].
pub use kdtune_kdtree as kdtree;
/// Re-export of [`kdtune_raycast`].
pub use kdtune_raycast as raycast;
/// Re-export of [`kdtune_scenes`].
pub use kdtune_scenes as scenes;
/// Re-export of [`kdtune_telemetry`].
pub use kdtune_telemetry as telemetry;

pub use config::{base_build_params, base_config, params_from_values, tuning_space, BASE_CONFIG};
pub use cost_model::StructuralCostModel;
pub use kdtune_autotune::{Config, SearchSpace, Tuner, TunerPhase};
pub use kdtune_kdtree::{build, Algorithm, BuildParams, BuiltTree, RayQuery, SahParams, TreeStats};
pub use kdtune_raycast::{Camera, RenderOptions};
pub use kdtune_scenes::{Scene, SceneParams, ViewSpec};
pub use pipeline::{FrameReport, StopReason, TunedPipeline};
pub use query::{build_eager, run_query_batch, QueryBatchStats};
pub use selector::{select_algorithm, AlgorithmCandidate, SelectionReport, SelectorOpts};
