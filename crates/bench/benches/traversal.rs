//! Traversal micro-benchmarks: SAH tree vs median-split tree vs brute
//! force, on a bundle of primary rays through the Sibenik nave.

use criterion::{criterion_group, criterion_main, Criterion};
use kdtune::raycast::Camera;
use kdtune::scenes::{sibenik, SceneParams};
use kdtune::{build, Algorithm, BuildParams, RayQuery};
use kdtune_geometry::Ray;
use kdtune_kdtree::{brute_force_intersect, build_median};
use std::hint::black_box;
use std::time::Duration;

fn rays(n: u32) -> Vec<Ray> {
    let scene = sibenik(&SceneParams::quick());
    let v = scene.view;
    let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, n, n);
    let mut out = Vec::with_capacity((n * n) as usize);
    for y in 0..n {
        for x in 0..n {
            out.push(cam.primary_ray(x, y));
        }
    }
    out
}

fn bench_traversal(c: &mut Criterion) {
    let scene = sibenik(&SceneParams::quick());
    let mesh = scene.frame(0);
    let sah = build(mesh.clone(), Algorithm::InPlace, &BuildParams::default());
    let median = build_median(mesh.clone(), 8, &BuildParams::default());
    let bundle = rays(24); // 576 rays

    let mut group = c.benchmark_group("traversal_576rays");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function("sah_tree", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for ray in &bundle {
                hits += sah.intersect(black_box(ray), 0.0, f32::INFINITY).is_some() as u32;
            }
            black_box(hits)
        })
    });
    group.bench_function("median_tree", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for ray in &bundle {
                hits += median
                    .intersect(black_box(ray), 0.0, f32::INFINITY)
                    .is_some() as u32;
            }
            black_box(hits)
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for ray in &bundle {
                hits += brute_force_intersect(&mesh, black_box(ray), 0.0, f32::INFINITY).is_some()
                    as u32;
            }
            black_box(hits)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_traversal);
criterion_main!(benches);
