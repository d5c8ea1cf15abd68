//! Image-level regression properties: renders are deterministic, and the
//! produced image is bit-identical across construction algorithms, tuning
//! configurations, and thread counts — only *time* may differ, never
//! pixels.

use kdtune_kdtree::{build, Algorithm, BuildParams};
use kdtune_raycast::{render, Camera};
use kdtune_scenes::{sponza, wood_doll, SceneParams};

fn image_bytes(algo: Algorithm, params: &BuildParams, threads: usize) -> Vec<u8> {
    let scene = sponza(&SceneParams::tiny());
    let mesh = scene.frame(0);
    let v = scene.view;
    let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 32, 32);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let tree = build(mesh, algo, params);
        render(&tree, &cam, v.light).0.to_ppm()
    })
}

#[test]
fn renders_are_deterministic() {
    let a = image_bytes(Algorithm::InPlace, &BuildParams::default(), 2);
    let b = image_bytes(Algorithm::InPlace, &BuildParams::default(), 2);
    assert_eq!(a, b);
}

#[test]
fn identical_across_algorithms() {
    let reference = image_bytes(Algorithm::NodeLevel, &BuildParams::default(), 1);
    for algo in [Algorithm::Nested, Algorithm::InPlace, Algorithm::Lazy] {
        assert_eq!(
            image_bytes(algo, &BuildParams::default(), 1),
            reference,
            "{algo} changed pixels"
        );
    }
}

#[test]
fn identical_across_configurations_and_split_methods() {
    let reference = image_bytes(Algorithm::InPlace, &BuildParams::default(), 1);
    for params in [
        BuildParams::from_config(3.0, 0.0, 1, 16),
        BuildParams::from_config(101.0, 60.0, 8, 8192),
    ] {
        assert_eq!(
            image_bytes(Algorithm::InPlace, &params, 1),
            reference,
            "{params:?} changed pixels"
        );
    }
}

#[test]
fn identical_across_thread_counts() {
    let reference = image_bytes(Algorithm::Lazy, &BuildParams::default(), 1);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            image_bytes(Algorithm::Lazy, &BuildParams::default(), threads),
            reference,
            "{threads} threads changed pixels"
        );
    }
}

#[test]
fn animated_frames_differ_visually() {
    let scene = wood_doll(&SceneParams::tiny());
    let v = scene.view;
    let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 32, 32);
    let shot = |f: usize| {
        let tree = build(scene.frame(f), Algorithm::InPlace, &BuildParams::default());
        render(&tree, &cam, v.light).0.to_ppm()
    };
    assert_ne!(shot(0), shot(14), "animation must be visible in pixels");
    assert_eq!(shot(7), shot(7), "same frame same pixels");
}
