//! Equivalence of the accelerated point-query kernels (`knn`,
//! `radius_gather`) with O(n) brute force, over random triangle soups,
//! all four builders (lazy via `to_eager`), random query points, and the
//! edge cases the kernels promise to handle: `k` larger than the mesh,
//! `r = 0`, and degenerate flat meshes.

use kdtune_geometry::{Triangle, TriangleMesh, Vec3};
use kdtune_kdtree::{
    brute_force_knn, brute_force_radius, build, Algorithm, BuildParams, KdTree, Neighbor, SahParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Random triangle soup: half clustered around seeded centers, half
/// scattered — the same shape the ray-equivalence suite uses, so the
/// trees exercise both dense and empty regions.
fn soup(n: usize, seed: u64) -> Arc<TriangleMesh> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mesh = TriangleMesh::new();
    let centers: Vec<Vec3> = (0..4)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-8.0..8.0),
                rng.gen_range(-8.0..8.0),
                rng.gen_range(-8.0..8.0),
            )
        })
        .collect();
    for i in 0..n {
        let (center, spread) = if i % 2 == 0 {
            (centers[i % centers.len()], 1.5)
        } else {
            (Vec3::ZERO, 10.0)
        };
        let base = center
            + Vec3::new(
                rng.gen_range(-spread..spread),
                rng.gen_range(-spread..spread),
                rng.gen_range(-spread..spread),
            );
        let jitter = |rng: &mut StdRng| {
            Vec3::new(
                rng.gen_range(-0.6..0.6),
                rng.gen_range(-0.6..0.6),
                rng.gen_range(-0.6..0.6),
            )
        };
        mesh.push_triangle(Triangle::new(
            base,
            base + jitter(&mut rng),
            base + jitter(&mut rng),
        ));
    }
    Arc::new(mesh)
}

/// Builds the eager form of every algorithm (lazy through `to_eager`).
fn all_trees(mesh: &Arc<TriangleMesh>, params: &BuildParams) -> Vec<(Algorithm, KdTree)> {
    Algorithm::ALL
        .iter()
        .map(|&algo| {
            let built = build(mesh.clone(), algo, params);
            let tree = match built.as_eager() {
                Some(t) => t.clone(),
                None => built.as_lazy().expect("lazy build").to_eager(),
            };
            (algo, tree)
        })
        .collect()
}

fn assert_knn_matches(algo: Algorithm, got: &[Neighbor], expect: &[Neighbor], q: Vec3, k: usize) {
    assert_eq!(
        got.len(),
        expect.len(),
        "{algo:?} knn({q:?}, {k}) result count"
    );
    // Compare the distance sequences, not prim ids: ties at identical
    // distances may legitimately resolve to different prims.
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert!(
            (g.d2 - e.d2).abs() <= 1e-3 * (1.0 + e.d2),
            "{algo:?} knn({q:?}, {k})[{i}]: {g:?} vs brute {e:?}"
        );
    }
    // Results must be distinct prims, sorted ascending.
    let mut prims: Vec<u32> = got.iter().map(|n| n.prim).collect();
    prims.sort_unstable();
    prims.dedup();
    assert_eq!(prims.len(), got.len(), "{algo:?} returned duplicate prims");
    for w in got.windows(2) {
        assert!(w[0].d2 <= w[1].d2, "{algo:?} knn result not sorted");
    }
}

fn assert_radius_matches(algo: Algorithm, got: &[Neighbor], expect: &[Neighbor], q: Vec3, r: f32) {
    // Membership can flip for prims within float slack of the boundary;
    // compare with a tolerance band instead of exact set equality.
    let r2 = r * r;
    let slack = 1e-3 * (1.0 + r2);
    let expect_core: Vec<u32> = expect
        .iter()
        .filter(|n| n.d2 < r2 - slack)
        .map(|n| n.prim)
        .collect();
    let got_prims: Vec<u32> = got.iter().map(|n| n.prim).collect();
    for prim in &expect_core {
        assert!(
            got_prims.contains(prim),
            "{algo:?} radius({q:?}, {r}) missed prim {prim} well inside the ball"
        );
    }
    for n in got {
        assert!(
            n.d2 <= r2 + slack,
            "{algo:?} radius({q:?}, {r}) returned out-of-ball prim {n:?}"
        );
    }
    let mut prims = got_prims.clone();
    prims.sort_unstable();
    prims.dedup();
    assert_eq!(prims.len(), got.len(), "{algo:?} returned duplicate prims");
}

fn check_equivalence(mesh: &Arc<TriangleMesh>, params: &BuildParams, query_seed: u64) {
    let trees = all_trees(mesh, params);
    let mut rng = StdRng::seed_from_u64(query_seed);
    for _ in 0..8 {
        let q = Vec3::new(
            rng.gen_range(-14.0..14.0),
            rng.gen_range(-14.0..14.0),
            rng.gen_range(-14.0..14.0),
        );
        let k = rng.gen_range(1..12);
        let r = rng.gen_range(0.0..6.0);
        let expect_knn = brute_force_knn(mesh, q, k);
        let expect_radius = brute_force_radius(mesh, q, r);
        for (algo, tree) in &trees {
            assert_knn_matches(*algo, &tree.knn(q, k), &expect_knn, q, k);
            assert_radius_matches(*algo, &tree.radius_gather(q, r), &expect_radius, q, r);
        }
    }
}

#[test]
fn fixed_soup_all_builders_agree() {
    let mesh = soup(200, 0xdead);
    check_equivalence(&mesh, &BuildParams::default(), 0xbeef);
}

#[test]
fn k_larger_than_mesh_returns_everything() {
    let mesh = soup(12, 7);
    for (algo, tree) in all_trees(&mesh, &BuildParams::default()) {
        let got = tree.knn(Vec3::new(1.0, 2.0, 3.0), 50);
        assert_eq!(got.len(), 12, "{algo:?} must return all 12 prims");
        let expect = brute_force_knn(&mesh, Vec3::new(1.0, 2.0, 3.0), 50);
        assert_knn_matches(algo, &got, &expect, Vec3::new(1.0, 2.0, 3.0), 50);
    }
}

/// Every triangle in the z = 0 plane: the kd-tree degenerates to x/y
/// splits over coplanar geometry and distances are driven by the 2D
/// layout plus the query's z offset.
#[test]
fn degenerate_flat_mesh() {
    let mut mesh = TriangleMesh::new();
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..120 {
        let base = Vec3::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0), 0.0);
        mesh.push_triangle(Triangle::new(
            base,
            base + Vec3::new(rng.gen_range(0.1..0.8), 0.0, 0.0),
            base + Vec3::new(0.0, rng.gen_range(0.1..0.8), 0.0),
        ));
    }
    let mesh = Arc::new(mesh);
    check_equivalence(&mesh, &BuildParams::default(), 99);
    // Queries exactly in the mesh plane too.
    for (algo, tree) in all_trees(&mesh, &BuildParams::default()) {
        let q = Vec3::new(0.3, -0.2, 0.0);
        let expect = brute_force_knn(&mesh, q, 5);
        assert_knn_matches(algo, &tree.knn(q, 5), &expect, q, 5);
        let expect_r = brute_force_radius(&mesh, q, 1.0);
        assert_radius_matches(algo, &tree.radius_gather(q, 1.0), &expect_r, q, 1.0);
    }
}

/// Small triangles in a thin slab plus four large, slightly tilted
/// triangles spanning all of it: the builders cut the slab into columns,
/// and the large triangles land in most leaves. Each kernel stamps a
/// primitive on its first visit and skips its other copies, so a
/// duplicate that slipped through (or a copy wrongly skipped) shows up
/// here. Distances are computed on the same triangle copies as brute
/// force, so the k-NN distance sequences at k = 1, 8 and the mesh size,
/// and the whole radius gather, must match it to the bit.
#[test]
fn large_straddling_triangles_match_brute_force() {
    let mut mesh = TriangleMesh::new();
    let mut rng = StdRng::seed_from_u64(0x57add1e);
    for _ in 0..160 {
        let base = Vec3::new(
            rng.gen_range(-10.0..10.0),
            rng.gen_range(-10.0..10.0),
            rng.gen_range(-0.3..0.3),
        );
        mesh.push_triangle(Triangle::new(
            base,
            base + Vec3::new(rng.gen_range(0.2..0.7), 0.0, rng.gen_range(-0.1..0.1)),
            base + Vec3::new(0.0, rng.gen_range(0.2..0.7), rng.gen_range(-0.1..0.1)),
        ));
    }
    let large = mesh.len() as u32;
    for (z0, z1) in [(-0.25, 0.2), (0.3, -0.15)] {
        let (lo, hi) = (-11.0, 11.0);
        mesh.push_triangle(Triangle::new(
            Vec3::new(lo, lo, z0),
            Vec3::new(hi, lo, z1),
            Vec3::new(hi, hi, z1),
        ));
        mesh.push_triangle(Triangle::new(
            Vec3::new(lo, lo, z0),
            Vec3::new(hi, hi, z1),
            Vec3::new(lo, hi, z0),
        ));
    }
    let mesh = Arc::new(mesh);
    let n = mesh.len();
    let mut rng = StdRng::seed_from_u64(0x9e7);
    for (algo, tree) in all_trees(&mesh, &BuildParams::default()) {
        let leaves: Vec<&[u32]> = tree
            .nodes()
            .iter()
            .filter(|node| node.is_leaf() && node.prim_count() > 0)
            .map(|&node| tree.leaf_prims(node))
            .collect();
        for prim in large..n as u32 {
            let holding = leaves.iter().filter(|l| l.contains(&prim)).count();
            assert!(
                2 * holding > leaves.len(),
                "{algo:?}: large prim {prim} in only {holding} of {} leaves",
                leaves.len()
            );
        }
        for _ in 0..12 {
            let q = Vec3::new(
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-2.0..2.0),
            );
            let d2_bits = |v: &[Neighbor]| v.iter().map(|n| n.d2.to_bits()).collect::<Vec<_>>();
            for k in [1, 8, n] {
                let got = tree.knn(q, k);
                let expect = brute_force_knn(&mesh, q, k);
                assert_knn_matches(algo, &got, &expect, q, k);
                assert_eq!(d2_bits(&got), d2_bits(&expect), "{algo:?} knn({q:?}, {k})");
            }
            assert_eq!(
                tree.knn(q, n),
                brute_force_knn(&mesh, q, n),
                "{algo:?} knn all"
            );
            for r in [0.5, 2.0, 30.0] {
                let got = tree.radius_gather(q, r);
                assert_eq!(
                    got,
                    brute_force_radius(&mesh, q, r),
                    "{algo:?} radius({q:?}, {r})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random soups, random build parameters, random query sets: the
    /// accelerated kernels must match brute force for every builder.
    #[test]
    fn random_soups_match_brute_force(
        mesh_seed in 0u64..1_000_000,
        query_seed in 0u64..1_000_000,
        ci in 3i64..40,
        cb in 0i64..20,
        r_exp in 4u32..9,
    ) {
        let mesh = soup(120, mesh_seed);
        let params = BuildParams {
            sah: SahParams::new(ci as f32, cb as f32),
            r: 1 << r_exp,
            ..BuildParams::default()
        };
        check_equivalence(&mesh, &params, query_seed);
    }
}
