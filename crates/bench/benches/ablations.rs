//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//!
//! 1. SAH sweep vs spatial-median split (tree quality → traversal time),
//! 2. the task-depth knob `S`,
//! 3. the lazy threshold `R` under a low-occlusion vs high-occlusion query
//!    load,
//! 4. Nelder–Mead seeding size (convergence evaluations, measured as time
//!    over a synthetic objective),
//! 5. thread-pool width for the breadth-first in-place build (the bug this
//!    PR fixes: before, widening the pool changed nothing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kdtune::raycast::{render, Camera};
use kdtune::scenes::{bunny, fairy_forest, SceneParams};
use kdtune::{build, Algorithm, BuildParams};
use kdtune_autotune::search::SearchStrategy;
use kdtune_autotune::NelderMeadSearch;
use std::hint::black_box;
use std::time::Duration;

fn bench_s_sweep(c: &mut Criterion) {
    let mesh = bunny(&SceneParams::quick()).frame(0);
    let mut group = c.benchmark_group("ablation_s");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for s in [1u32, 2, 4, 8] {
        let params = BuildParams {
            s,
            ..BuildParams::default()
        };
        group.bench_with_input(BenchmarkId::new("node_level_build", s), &params, |b, p| {
            b.iter(|| black_box(build(mesh.clone(), Algorithm::NodeLevel, black_box(p))))
        });
    }
    group.finish();
}

fn bench_r_sweep(c: &mut Criterion) {
    // High occlusion: the fairy forest camera is buried in the hero
    // mushroom, so large R should pay off (most nodes never expand).
    let scene = fairy_forest(&SceneParams::quick());
    let mesh = scene.frame(0);
    let v = scene.view;
    let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 32, 32);
    let mut group = c.benchmark_group("ablation_r_occluded_frame");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for r in [16u32, 256, 8192] {
        let params = BuildParams {
            r,
            ..BuildParams::default()
        };
        group.bench_with_input(
            BenchmarkId::new("lazy_build_plus_render", r),
            &params,
            |b, p| {
                b.iter(|| {
                    let tree = build(mesh.clone(), Algorithm::Lazy, p);
                    black_box(render(&tree, &cam, v.light))
                })
            },
        );
    }
    group.finish();
}

fn bench_sah_vs_median_frame(c: &mut Criterion) {
    // Same frame (build + render) with the SAH builder vs the median-split
    // baseline: quantifies what the cost model buys end to end.
    let scene = bunny(&SceneParams::quick());
    let mesh = scene.frame(0);
    let v = scene.view;
    let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 32, 32);
    let mut group = c.benchmark_group("ablation_sah_vs_median");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    group.bench_function("sah_frame", |b| {
        b.iter(|| {
            let tree = build(mesh.clone(), Algorithm::InPlace, &BuildParams::default());
            black_box(render(&tree, &cam, v.light))
        })
    });
    group.bench_function("median_frame", |b| {
        b.iter(|| {
            let tree = kdtune_kdtree::build_median(mesh.clone(), 8, &BuildParams::default());
            let tree = kdtune::BuiltTree::Eager(tree);
            black_box(render(&tree, &cam, v.light))
        })
    });
    group.finish();
}

fn bench_seeding_size(c: &mut Criterion) {
    let objective = |p: &[f64]| {
        p.iter()
            .enumerate()
            .map(|(i, &x)| (x - 0.2 - 0.15 * i as f64).powi(2))
            .sum::<f64>()
    };
    let mut group = c.benchmark_group("ablation_nm_seeding");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for seeds in [5usize, 8, 16, 32] {
        group.bench_with_input(
            BenchmarkId::new("to_convergence", seeds),
            &seeds,
            |b, &seeds| {
                b.iter(|| {
                    let mut s = NelderMeadSearch::new(
                        4,
                        seeds,
                        9,
                        |rng| {
                            use rand::Rng;
                            (0..4).map(|_| rng.gen_range(0.0..1.0)).collect()
                        },
                        1e-3,
                        300,
                    );
                    let mut evals = 0u32;
                    while let Some(p) = s.ask() {
                        s.tell(objective(&p));
                        evals += 1;
                        if evals > 2000 {
                            break;
                        }
                    }
                    black_box(evals)
                })
            },
        );
    }
    group.finish();
}

fn bench_inplace_thread_scaling(c: &mut Criterion) {
    // The level-synchronous in-place build across pool widths. On real
    // multi-core hardware the 4- and 8-thread rows should be well under
    // the 1-thread row; a flat profile is the "parallel in name only"
    // regression this PR's tests pin down.
    use kdtune_bench::platforms::run_on;
    let mesh = fairy_forest(&SceneParams::quick()).frame(0);
    let mut group = c.benchmark_group("ablation_inplace_threads");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("in_place_build", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_on(threads, || {
                        black_box(build(
                            mesh.clone(),
                            Algorithm::InPlace,
                            &BuildParams::default(),
                        ))
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_s_sweep,
    bench_r_sweep,
    bench_sah_vs_median_frame,
    bench_seeding_size,
    bench_inplace_thread_scaling
);
criterion_main!(benches);
