//! Renders every evaluation scene to a PPM image (and the dynamic scenes
//! at three points of their animation), for visual inspection of the
//! procedural stand-ins — the analogue of the paper's Figure 3.
//!
//! ```sh
//! cargo run --release -p kdtune-bench --bin scene_gallery -- --out gallery
//! ```
//!
//! `--packet-width {4,8,16}` renders through the coherent packet path
//! instead of the scalar path; the images are bit-identical at every
//! width, so the flag doubles as an end-to-end equivalence check against
//! the committed PPMs in `results/gallery/` (CI runs it).

use kdtune::raycast::{render_with_options, Camera};
use kdtune::scenes::all_scenes;
use kdtune::{build, Algorithm, BuildParams};
use kdtune_bench::cli::ExperimentArgs;
use kdtune_bench::harness::ExperimentOpts;
use kdtune_telemetry::outln;
use std::path::PathBuf;

fn main() {
    let args = ExperimentArgs::from_env(&[]);
    let opts = ExperimentOpts::from_args(&args);
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("gallery"));
    std::fs::create_dir_all(&out).expect("create output dir");
    let res = if args.quick { 256 } else { 512 };

    for scene in all_scenes(&opts.scene_params) {
        let v = scene.view;
        let camera = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, res, res);
        let frames: Vec<usize> = if scene.is_dynamic() {
            let n = scene.frame_count();
            vec![0, n / 2, n - 1]
        } else {
            vec![0]
        };
        for f in frames {
            let mesh = scene.frame(f);
            let tris = mesh.len();
            let tree = build(mesh, Algorithm::InPlace, &BuildParams::default());
            let (image, stats, _) =
                render_with_options(&tree, tree.mesh(), &camera, v.light, &opts.render_options);
            let path = out.join(format!("{}_{f:03}.ppm", scene.name));
            image.save_ppm(&path).expect("write ppm");
            outln!(
                "{:<36} {:>7} tris, {:>5.1}% coverage, mean luminance {:.3}",
                path.display(),
                tris,
                100.0 * stats.primary_hits as f64 / stats.primary_rays as f64,
                image.mean_luminance()
            );
        }
    }
}
