//! A lazy tree deferred whole expands once, on the whole pool, while the
//! render's other rays wait for it: at every pool width the image and the
//! render counters equal the eager tree's, and one expansion serves all.

use kdtune_kdtree::{build, Algorithm, BuildParams};
use kdtune_raycast::{render, Camera};
use kdtune_scenes::{by_name, SceneParams};
use std::sync::Arc;

#[test]
fn whole_deferral_renders_like_the_eager_tree_at_every_pool_width() {
    let configs = [
        BuildParams {
            r: u32::MAX,
            ..BuildParams::default()
        },
        // The configuration the tuner settles on for lazy frames of the
        // tuned animation loop: R = 4096 defers these tiny meshes whole.
        BuildParams::from_config(72.0, 12.0, 6, 4096),
    ];
    for name in ["fairy_forest", "toasters"] {
        let scene = by_name(name, &SceneParams::tiny()).unwrap();
        let mesh = scene.frame(0);
        let v = scene.view;
        let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 32, 32);
        for params in &configs {
            for threads in [1, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let what = format!("{name} {params:?} at width {threads}");
                let (lazy, (lazy_fb, lazy_stats), (eager_fb, eager_stats)) = pool.install(|| {
                    let lazy = build(Arc::clone(&mesh), Algorithm::Lazy, params);
                    let eager = build(Arc::clone(&mesh), Algorithm::InPlace, params);
                    let shot = render(&lazy, &cam, v.light);
                    (lazy, shot, render(&eager, &cam, v.light))
                });
                let lazy = lazy.as_lazy().unwrap();
                assert_eq!(
                    (lazy.node_count(), lazy.deferred_count()),
                    (1, 1),
                    "{what}: the whole mesh must be deferred"
                );
                assert_eq!(lazy_fb.to_ppm(), eager_fb.to_ppm(), "{what}: pixels");
                assert_eq!(lazy_stats, eager_stats, "{what}: render counters");
                assert_eq!(lazy.expanded_count(), 1, "{what}");
            }
        }
    }
}
