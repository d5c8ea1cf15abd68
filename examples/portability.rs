//! Demonstrates the paper's portability finding (§V-D-2): configurations
//! tuned for one scene or one machine are *not* optimal elsewhere. We tune
//! the in-place algorithm on two scenes and two emulated platform widths,
//! then cross-apply the tuned configurations.
//!
//! ```sh
//! cargo run --release --example portability
//! ```

use kdtune::raycast::{timed_frame, Camera, RenderOptions};
use kdtune::scenes::{bunny, sponza, SceneParams};
use kdtune::{params_from_values, Algorithm, Scene, TunedPipeline};

fn tune(scene: &Scene, threads: usize) -> (Vec<i64>, f64) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| {
            let mut p = TunedPipeline::new(scene.clone(), Algorithm::InPlace)
                .resolution(72, 72)
                .tuner_seed(31 + threads as u64);
            let _ = p.run_until_converged(120);
            let (config, cost) = p.tuner().best().expect("tuned");
            (config.values().to_vec(), cost)
        })
}

fn measure(scene: &Scene, values: &[i64]) -> f64 {
    let v = scene.view;
    let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 72, 72);
    let params = params_from_values(Algorithm::InPlace, values);
    let options = RenderOptions::default();
    let mut total = 0.0;
    for _ in 0..3 {
        let frame = timed_frame(
            scene.frame(0),
            Algorithm::InPlace,
            &params,
            &cam,
            v.light,
            &options,
        );
        total += frame.total_secs();
    }
    total / 3.0
}

fn main() {
    let params = SceneParams::quick();
    let scenes = [bunny(&params), sponza(&params)];

    println!("tuning the in-place algorithm per scene (4-thread pool)…");
    let tuned: Vec<(String, Vec<i64>)> = scenes
        .iter()
        .map(|s| {
            let (config, cost) = tune(s, 4);
            println!(
                "  {:<8} tuned (CI, CB, S) = {:?} at {:.2} ms/frame",
                s.name,
                config,
                cost * 1e3
            );
            (s.name.to_string(), config)
        })
        .collect();

    println!("\ncross-applying tuned configurations (4-thread pool):");
    rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(|| {
            for scene in &scenes {
                for (from, config) in &tuned {
                    let ms = measure(scene, config) * 1e3;
                    let marker = if *from == scene.name { " (native)" } else { "" };
                    println!(
                        "  run {:<8} with {:<8} config {:?}: {:>7.2} ms{}",
                        scene.name, from, config, ms, marker
                    );
                }
            }
        });

    println!("\nplatform effect: re-tune sponza with different pool widths");
    for threads in [1usize, 4, 16] {
        let (config, cost) = tune(&scenes[1], threads);
        println!(
            "  {:>2} threads -> tuned (CI, CB, S) = {:?} at {:.2} ms/frame",
            threads,
            config,
            cost * 1e3
        );
    }
    println!("\nDifferent scenes and different machines land on different configurations —");
    println!("the reason the paper tunes online instead of shipping constants.");
}
