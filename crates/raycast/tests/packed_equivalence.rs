//! Equivalence of the packed-node fast path with brute force over the
//! raw mesh: all four construction algorithms, the lazy tree included,
//! must shoot the same rays to the same conclusions — bit-identical
//! [`RenderStats`] and images, and identical per-ray hits.

use kdtune_geometry::{Hit, Ray, TriangleMesh, Vec3};
use kdtune_kdtree::{brute_force_intersect, build, Algorithm, BuildParams, RayQuery};
use kdtune_raycast::{render, render_with, Camera, RenderStats};
use kdtune_scenes::{wood_doll, SceneParams};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Brute force as a [`RayQuery`]: tests every triangle of the mesh.
struct BruteForce(Arc<TriangleMesh>);

impl RayQuery for BruteForce {
    fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        brute_force_intersect(&self.0, ray, t_min, t_max)
    }
    fn intersect_any(&self, ray: &Ray, t_min: f32, t_max: f32) -> bool {
        brute_force_intersect(&self.0, ray, t_min, t_max).is_some()
    }
}

fn scene_parts() -> (Arc<TriangleMesh>, Camera, Vec3) {
    let scene = wood_doll(&SceneParams::tiny());
    let mesh = scene.frame(0);
    let v = scene.view;
    let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 48, 48);
    (mesh, cam, v.light)
}

fn brute_reference() -> (Vec<u8>, RenderStats) {
    let (mesh, cam, light) = scene_parts();
    let q = BruteForce(mesh.clone());
    let (fb, stats) = render_with(&q, &mesh, &cam, light);
    (fb.to_ppm(), stats)
}

#[test]
fn every_algorithm_matches_brute_force_render() {
    let (ref_ppm, ref_stats) = brute_reference();
    let (mesh, cam, light) = scene_parts();
    for algo in Algorithm::ALL {
        let tree = build(mesh.clone(), algo, &BuildParams::default());
        let (fb, stats) = render(&tree, &cam, light);
        assert_eq!(stats, ref_stats, "{algo} stats diverge from brute force");
        assert_eq!(fb.to_ppm(), ref_ppm, "{algo} pixels diverge");
    }
}

/// Tree shared across proptest cases (building per case would dominate).
fn shared_tree() -> &'static (Arc<TriangleMesh>, kdtune_kdtree::BuiltTree) {
    static TREE: OnceLock<(Arc<TriangleMesh>, kdtune_kdtree::BuiltTree)> = OnceLock::new();
    TREE.get_or_init(|| {
        let (mesh, _, _) = scene_parts();
        let tree = build(mesh.clone(), Algorithm::Nested, &BuildParams::default());
        (mesh, tree)
    })
}

proptest! {
    /// Random rays: fast path == brute force, down to the t-value bits.
    #[test]
    fn random_rays_agree(
        ox in -2.0f32..2.0, oy in -2.0f32..2.0, oz in -2.0f32..2.0,
        dx in -1.0f32..1.0, dy in -1.0f32..1.0, dz in -1.0f32..1.0,
    ) {
        prop_assume!(dx.abs() + dy.abs() + dz.abs() > 1e-3);
        let (mesh, built) = shared_tree();
        let tree = built.as_eager().unwrap();
        let ray = Ray::new(Vec3::new(ox, oy, oz), Vec3::new(dx, dy, dz));

        let fast = tree.intersect(&ray, 0.0, f32::INFINITY);
        let brute = brute_force_intersect(mesh, &ray, 0.0, f32::INFINITY);
        let key = |h: Option<Hit>| h.map(|h| (h.prim, h.t.to_bits()));
        prop_assert_eq!(key(fast), key(brute));

        let any_fast = tree.intersect_any(&ray, 0.0, 10.0);
        let any_brute = brute_force_intersect(mesh, &ray, 0.0, 10.0).is_some();
        prop_assert_eq!(any_fast, any_brute);
    }
}
