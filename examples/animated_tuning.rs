//! Online tuning on a *dynamic* scene: the Toasters animation rebuilds the
//! kD-tree every frame, and the tuner tracks the slowly drifting optimum —
//! the headline use case of the paper.
//!
//! ```sh
//! cargo run --release --example animated_tuning
//! ```

use kdtune::scenes::{toasters, SceneParams};
use kdtune::{Algorithm, TunedPipeline, TunerPhase};

fn main() {
    let scene = toasters(&SceneParams::quick());
    println!(
        "scene: {} ({} triangles, {} animation frames, each repeated 5x as in the paper)",
        scene.name,
        scene.frame(0).len(),
        scene.frame_count()
    );

    let mut pipeline = TunedPipeline::new(scene, Algorithm::Lazy)
        .resolution(80, 80)
        .frame_repeat(5)
        .tuner_seed(7);

    let mut converged_at = None;
    let frames = 120;
    for i in 0..frames {
        let r = pipeline.step();
        if converged_at.is_none() && r.phase == TunerPhase::Converged {
            converged_at = Some(i);
        }
        if i % 15 == 0 {
            println!(
                "frame {:>3} anim#{:>3} [{:<9}] config {:<22} build {:>6.2} ms, render {:>6.2} ms",
                i,
                pipeline.next_frame_index(),
                format!("{:?}", r.phase),
                r.config.to_string(),
                r.build_secs * 1e3,
                r.render_secs * 1e3,
            );
        }
    }

    let tuner = pipeline.tuner();
    match converged_at {
        Some(i) => println!("\nconverged after {i} frames (paper: ~40 iterations)"),
        None => println!("\nnot converged within {frames} frames"),
    }
    if let Some((best, cost)) = tuner.best() {
        println!(
            "best configuration (CI, CB, S, R) = {best} at {:.2} ms/frame",
            cost * 1e3
        );
    }
    println!("search restarts due to drift: {}", tuner.retunes());
}
