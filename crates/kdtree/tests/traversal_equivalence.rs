//! The central correctness property: for every construction algorithm and
//! any tuning configuration, traversing the tree returns the same nearest
//! hit as brute-force testing every triangle.

use kdtune_geometry::{Ray, TriangleMesh, Vec3};
use kdtune_kdtree::{brute_force_intersect, build, Algorithm, BuildParams, RayQuery, SahParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Deterministic random triangle soup with clustered + scattered geometry.
fn soup(n: usize, seed: u64) -> Arc<TriangleMesh> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mesh = TriangleMesh::new();
    for i in 0..n {
        // Half the triangles cluster near the origin, half scatter widely —
        // exercises both dense and empty regions of the tree.
        let scale = if i % 2 == 0 { 1.0 } else { 8.0 };
        let base = Vec3::new(
            rng.gen_range(-scale..scale),
            rng.gen_range(-scale..scale),
            rng.gen_range(-scale..scale),
        );
        let e1 = Vec3::new(
            rng.gen_range(-0.5..0.5),
            rng.gen_range(-0.5..0.5),
            rng.gen_range(-0.5..0.5),
        );
        let e2 = Vec3::new(
            rng.gen_range(-0.5..0.5),
            rng.gen_range(-0.5..0.5),
            rng.gen_range(-0.5..0.5),
        );
        mesh.push_triangle(kdtune_geometry::Triangle::new(base, base + e1, base + e2));
    }
    Arc::new(mesh)
}

fn rays(n: usize, seed: u64) -> Vec<Ray> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let o = Vec3::new(
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-12.0..12.0),
            );
            let d = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            Ray::new(
                o,
                if d.length() < 1e-3 {
                    Vec3::X
                } else {
                    d.normalized()
                },
            )
        })
        .collect()
}

fn check_equivalence(mesh: &Arc<TriangleMesh>, params: &BuildParams, seed: u64) {
    let trees: Vec<_> = Algorithm::ALL
        .iter()
        .map(|&a| (a, build(Arc::clone(mesh), a, params)))
        .collect();
    for (ri, ray) in rays(64, seed).iter().enumerate() {
        let truth = brute_force_intersect(mesh, ray, 1e-4, f32::INFINITY);
        for (algo, tree) in &trees {
            let got = tree.intersect(ray, 1e-4, f32::INFINITY);
            match (truth, got) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(
                        (a.t - b.t).abs() <= 1e-3 * a.t.max(1.0),
                        "{algo}, ray {ri}: brute t={} tree t={}",
                        a.t,
                        b.t
                    );
                }
                (a, b) => panic!("{algo}, ray {ri}: brute {a:?} vs tree {b:?}"),
            }
            // Occlusion agrees with the nearest hit.
            let occluded = tree.intersect_any(ray, 1e-4, f32::INFINITY);
            assert_eq!(occluded, truth.is_some(), "{algo}, ray {ri}: any-hit");
        }
    }
}

#[test]
fn all_algorithms_match_brute_force_default_params() {
    let mesh = soup(500, 1);
    check_equivalence(&mesh, &BuildParams::default(), 2);
}

#[test]
fn all_algorithms_match_brute_force_extreme_params() {
    let mesh = soup(300, 3);
    for (ci, cb, s, r) in [
        (3.0, 0.0, 1, 16),
        (101.0, 60.0, 8, 8192),
        (3.0, 60.0, 4, 64),
        (101.0, 0.0, 2, 1024),
    ] {
        let params = BuildParams {
            sah: SahParams::new(ci, cb),
            s,
            r,
            ..BuildParams::default()
        };
        check_equivalence(&mesh, &params, 4);
    }
}

#[test]
fn degenerate_mesh_axis_aligned_flat_triangles() {
    // All triangles in the z = 0 plane: every bound is flat on one axis,
    // stressing the planar-event handling.
    let mut mesh = TriangleMesh::new();
    for i in 0..64 {
        let x = (i % 8) as f32;
        let y = (i / 8) as f32;
        mesh.push_triangle(kdtune_geometry::Triangle::new(
            Vec3::new(x, y, 0.0),
            Vec3::new(x + 0.9, y, 0.0),
            Vec3::new(x, y + 0.9, 0.0),
        ));
    }
    let mesh = Arc::new(mesh);
    check_equivalence(&mesh, &BuildParams::default(), 5);
}

#[test]
fn rays_from_inside_the_geometry() {
    let mesh = soup(400, 7);
    let trees: Vec<_> = Algorithm::ALL
        .iter()
        .map(|&a| (a, build(Arc::clone(&mesh), a, &BuildParams::default())))
        .collect();
    // Origins inside the mesh bounds (t_min = 0 edge case).
    for (algo, tree) in &trees {
        for i in 0..32 {
            let a = i as f32 * 0.37;
            let ray = Ray::new(
                Vec3::new(a.sin(), a.cos(), 0.1 * a),
                Vec3::new(a.cos(), 0.5, a.sin()).normalized(),
            );
            let truth = brute_force_intersect(&mesh, &ray, 0.0, f32::INFINITY);
            let got = tree.intersect(&ray, 0.0, f32::INFINITY);
            assert_eq!(
                truth.map(|h| h.prim),
                got.map(|h| h.prim),
                "{algo}, ray {i}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random soups, random configurations: the nearest-hit property holds.
    #[test]
    fn property_equivalence(
        mesh_seed in 0u64..500,
        ray_seed in 0u64..500,
        ci in 3.0f32..101.0,
        cb in 0.0f32..60.0,
        r_exp in 4u32..13,
    ) {
        let mesh = soup(120, mesh_seed);
        let params = BuildParams {
            sah: SahParams::new(ci, cb),
            s: 3,
            r: 1 << r_exp,
            ..BuildParams::default()
        };
        check_equivalence(&mesh, &params, ray_seed);
    }
}
