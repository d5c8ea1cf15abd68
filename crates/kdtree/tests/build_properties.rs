//! Property-based structural tests: every algorithm, on random triangle
//! soups and random Table II configurations, must produce a tree that
//! passes full validation, and the builders must agree on leaf content.

use kdtune_geometry::{Axis, Triangle, TriangleMesh, Vec3};
use kdtune_kdtree::{
    build, build_median, validate, Algorithm, BuildParams, PackedNode, SahParams, TreeStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn soup(n: usize, seed: u64, spread: f32) -> Arc<TriangleMesh> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mesh = TriangleMesh::new();
    for _ in 0..n {
        let base = Vec3::new(
            rng.gen_range(-spread..spread),
            rng.gen_range(-spread..spread),
            rng.gen_range(-spread..spread),
        );
        let e = |rng: &mut StdRng| {
            Vec3::new(
                rng.gen_range(-0.6..0.6),
                rng.gen_range(-0.6..0.6),
                rng.gen_range(-0.6..0.6),
            )
        };
        let (e1, e2) = (e(&mut rng), e(&mut rng));
        mesh.push_triangle(Triangle::new(base, base + e1, base + e2));
    }
    Arc::new(mesh)
}

fn leaf_size_multiset(nodes: &[PackedNode]) -> Vec<u32> {
    let mut v: Vec<u32> = nodes
        .iter()
        .filter(|n| n.is_leaf())
        .map(|n| n.prim_count())
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_eager_builders_validate_on_random_input(
        seed in 0u64..10_000,
        n in 1usize..300,
        spread in 0.5f32..8.0,
        ci in 3i64..=101,
        cb in 0i64..=60,
        s in 1u32..=8,
    ) {
        let mesh = soup(n, seed, spread);
        let params = BuildParams {
            sah: SahParams::new(ci as f32, cb as f32),
            s,
            r: 4096,
            ..BuildParams::default()
        };
        for algo in [Algorithm::NodeLevel, Algorithm::Nested, Algorithm::InPlace] {
            let tree = build(Arc::clone(&mesh), algo, &params);
            let tree = tree.as_eager().unwrap();
            prop_assert!(validate(tree).is_ok(), "{algo}: {:?}", validate(tree));
            let stats = TreeStats::compute(tree);
            prop_assert!(stats.duplication_factor >= 1.0);
            prop_assert_eq!(stats.node_count, 2 * stats.leaf_count - 1);
        }
    }

    #[test]
    fn builders_agree_on_leaf_multiset(
        seed in 0u64..10_000,
        n in 1usize..200,
    ) {
        let mesh = soup(n, seed, 3.0);
        let params = BuildParams::default();
        let reference = build(Arc::clone(&mesh), Algorithm::NodeLevel, &params);
        let reference = leaf_size_multiset(reference.as_eager().unwrap().nodes());
        for algo in [Algorithm::Nested, Algorithm::InPlace] {
            let tree = build(Arc::clone(&mesh), algo, &params);
            prop_assert_eq!(
                leaf_size_multiset(tree.as_eager().unwrap().nodes()),
                reference.clone(),
                "{} disagrees with node_level",
                algo
            );
        }
    }

    /// Meshes with NaN/∞ vertices (broken exports, divide-by-zero
    /// animations) must never panic a builder. The split comparators use
    /// `total_cmp`, so degenerate coordinates sort deterministically
    /// instead of tripping `partial_cmp().unwrap()`.
    #[test]
    fn non_finite_vertices_never_panic_builders(
        seed in 0u64..10_000,
        n in 1usize..120,
        poison in proptest::collection::vec((0usize..120, 0usize..9, 0usize..3), 1..12),
    ) {
        let base = soup(n, seed, 3.0);
        // Copy the soup, overwriting a handful of vertex components with
        // NaN / ±inf along the way.
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut mesh = TriangleMesh::new();
        for i in 0..base.len() {
            let mut t = base.triangle(i);
            for &(tri, vert, which) in &poison {
                if tri % n == i {
                    let v = match vert % 3 {
                        0 => &mut t.a,
                        1 => &mut t.b,
                        _ => &mut t.c,
                    };
                    v[Axis::ALL[vert / 3]] = specials[which];
                }
            }
            mesh.push_triangle(t);
        }
        let mesh = Arc::new(mesh);
        let params = BuildParams::default();
        for algo in Algorithm::ALL {
            let tree = build(Arc::clone(&mesh), algo, &params);
            if let Some(lazy) = tree.as_lazy() {
                lazy.expand_all();
            }
        }
        let _ = build_median(Arc::clone(&mesh), 8, &params);
    }

    #[test]
    fn lazy_expand_all_matches_eager_leaf_references(
        seed in 0u64..10_000,
        n in 1usize..200,
        r_exp in 4u32..13,
    ) {
        let mesh = soup(n, seed, 3.0);
        let params = BuildParams {
            r: 1 << r_exp,
            ..BuildParams::default()
        };
        let lazy = build(Arc::clone(&mesh), Algorithm::Lazy, &params);
        let lazy = lazy.as_lazy().unwrap();
        lazy.expand_all();
        prop_assert_eq!(lazy.expanded_count(), lazy.deferred_count());
    }
}
