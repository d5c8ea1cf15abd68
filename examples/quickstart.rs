//! Quickstart: build an SAH kD-tree over a scene, query it, then let the
//! online tuner optimize the construction parameters for a few frames.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kdtune::geometry::Ray;
use kdtune::scenes::{sibenik, SceneParams};
use kdtune::{build, Algorithm, BuildParams, RayQuery, TreeStats, TunedPipeline};

fn main() {
    // 1. A scene. `SceneParams::quick()` generates ~10% of the paper-scale
    //    triangle count; use `SceneParams::paper()` for the full 75k.
    let scene = sibenik(&SceneParams::quick());
    let mesh = scene.frame(0);
    println!("scene: {} ({} triangles)", scene.name, mesh.len());

    // 2. Build a tree with the paper's base configuration and query it.
    let tree = build(mesh, Algorithm::InPlace, &BuildParams::default());
    let stats = TreeStats::compute(tree.as_eager().unwrap());
    println!(
        "tree: {} nodes, {} leaves, depth {}, duplication {:.2}x, SAH cost {:.0}",
        stats.node_count,
        stats.leaf_count,
        stats.max_depth,
        stats.duplication_factor,
        stats.sah_cost
    );

    let ray = Ray::new(
        scene.view.eye,
        (scene.view.target - scene.view.eye).normalized(),
    );
    match tree.intersect(&ray, 0.0, f32::INFINITY) {
        Some(hit) => println!(
            "center ray hits triangle {} at t = {:.3} ({:?})",
            hit.prim,
            hit.t,
            ray.at(hit.t)
        ),
        None => println!("center ray escapes the scene"),
    }

    // 3. The paper's contribution: tune (CI, CB, S) online while
    //    rendering. Each step = one Fig. 4 cycle.
    let mut pipeline = TunedPipeline::new(scene, Algorithm::InPlace)
        .resolution(96, 96)
        .tuner_seed(2016);
    println!("\ntuning 40 frames:");
    for i in 0..40 {
        let r = pipeline.step();
        if i % 8 == 0 || i == 39 {
            println!(
                "  frame {:>3} [{:?}] config {} -> {:.2} ms",
                i,
                r.phase,
                r.config,
                r.total_secs * 1e3
            );
        }
    }
    let tuner = pipeline.tuner();
    if let Some((best, cost)) = tuner.best() {
        println!(
            "\nbest configuration {} at {:.2} ms/frame (converged: {})",
            best,
            cost * 1e3,
            tuner.converged()
        );
    }
}
