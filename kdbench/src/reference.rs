//! Brute-force references for the output checks.
//!
//! Every reference loops over all triangles of the mesh, so it shares no
//! code with the kd-tree builders or traversals it checks; only the
//! triangle primitives (`Triangle::intersect`, `distance_squared`) and the
//! camera are common, since they define what a correct answer is.

use kdtune::geometry::{Ray, TriangleMesh, Vec3};
use kdtune::raycast::Camera;
use std::sync::Arc;

/// Offset of shadow-ray origins along the ray, as the renderer applies it.
const SHADOW_BIAS: f32 = 1e-3;

/// The ray counts a correct render of one frame must report, plus which
/// pixels a primary ray hits (row-major).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameRef {
    pub primary_rays: u64,
    pub primary_hits: u64,
    pub shadow_rays: u64,
    pub occluded: u64,
    pub hit: Vec<bool>,
}

fn nearest_t(mesh: &TriangleMesh, ray: &Ray) -> Option<f32> {
    let mut best = f32::INFINITY;
    for i in 0..mesh.len() {
        if let Some(hit) = mesh.triangle(i).intersect(ray, 0.0, best) {
            best = hit.t;
        }
    }
    best.is_finite().then_some(best)
}

fn any_hit(mesh: &TriangleMesh, ray: &Ray, t_min: f32, t_max: f32) -> bool {
    (0..mesh.len()).any(|i| mesh.triangle(i).intersect(ray, t_min, t_max).is_some())
}

/// Traces every pixel of `camera` against every triangle: a primary ray
/// per pixel and, per hit, a shadow ray towards `light`.
pub fn frame(mesh: &TriangleMesh, camera: &Camera, light: Vec3) -> FrameRef {
    let (w, h) = (camera.width(), camera.height());
    let mut r = FrameRef {
        primary_rays: 0,
        primary_hits: 0,
        shadow_rays: 0,
        occluded: 0,
        hit: Vec::with_capacity((w * h) as usize),
    };
    for y in 0..h {
        for x in 0..w {
            let ray = camera.primary_ray(x, y);
            r.primary_rays += 1;
            let Some(t) = nearest_t(mesh, &ray) else {
                r.hit.push(false);
                continue;
            };
            r.hit.push(true);
            r.primary_hits += 1;
            let point = ray.at(t);
            let to_light = light - point;
            let dist = to_light.length();
            let shadow = Ray::new(point, to_light.normalized());
            r.shadow_rays += 1;
            r.occluded += any_hit(mesh, &shadow, SHADOW_BIAS, dist - SHADOW_BIAS) as u64;
        }
    }
    r
}

/// [`frame`] for every mesh of an animation, on two threads.
pub fn frame_refs(frames: &[Arc<TriangleMesh>], camera: &Camera, light: Vec3) -> Vec<FrameRef> {
    par_map(frames, |mesh| frame(mesh, camera, light))
}

/// What a correct k-NN + radius batch over `points` must report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryRef {
    pub knn_results: u64,
    pub radius_results: u64,
    pub mean_knn_far_d2: f64,
}

/// k-NN and radius gather by testing every triangle against every point.
pub fn query(mesh: &TriangleMesh, points: &[Vec3], k: usize, radius: f32) -> QueryRef {
    let r2 = radius * radius;
    let mut out = QueryRef {
        knn_results: 0,
        radius_results: 0,
        mean_knn_far_d2: 0.0,
    };
    let mut d2: Vec<f32> = Vec::with_capacity(mesh.len());
    let mut far_sum = 0.0f64;
    for &p in points {
        d2.clear();
        d2.extend((0..mesh.len()).map(|i| mesh.triangle(i).distance_squared(p)));
        out.radius_results += d2.iter().filter(|&&d| d <= r2).count() as u64;
        let kk = k.min(d2.len());
        out.knn_results += kk as u64;
        if kk > 0 {
            let (_, kth, _) = d2.select_nth_unstable_by(kk - 1, f32::total_cmp);
            far_sum += *kth as f64;
        }
    }
    if !points.is_empty() {
        out.mean_knn_far_d2 = far_sum / points.len() as f64;
    }
    out
}

/// Maps `f` over `items` on two threads, keeping the input order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mid = items.len().div_ceil(2);
    let (a, b) = items.split_at(mid);
    std::thread::scope(|s| {
        let second = s.spawn(|| b.iter().map(&f).collect::<Vec<R>>());
        let mut out: Vec<R> = a.iter().map(&f).collect();
        out.extend(second.join().expect("reference worker panicked"));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune::geometry::Triangle;
    use kdtune::kdtree::{build, Algorithm, BuildParams};
    use kdtune::raycast::{render_with_options, RenderOptions};

    /// A quad facing the camera with a small occluder towards the light.
    fn mesh() -> Arc<TriangleMesh> {
        let mut m = TriangleMesh::new();
        let v = |x, y, z| Vec3::new(x, y, z);
        m.push_triangle(Triangle::new(
            v(-2., -2., 2.),
            v(2., -2., 2.),
            v(2., 2., 2.),
        ));
        m.push_triangle(Triangle::new(
            v(-2., -2., 2.),
            v(2., 2., 2.),
            v(-2., 2., 2.),
        ));
        m.push_triangle(Triangle::new(
            v(-0.3, -0.3, 1.),
            v(0.3, -0.3, 1.),
            v(0., 0.3, 1.),
        ));
        Arc::new(m)
    }

    #[test]
    fn frame_reference_matches_the_renderer() {
        let m = mesh();
        let camera = Camera::look_at(v3(0., 0., -2.), Vec3::ZERO, Vec3::Y, 60.0, 16, 16);
        let light = v3(1.5, 0., -1.);
        let r = frame(&m, &camera, light);
        assert_eq!(r.primary_rays, 256);
        assert!(r.primary_hits > 0 && r.occluded > 0 && r.occluded < r.primary_hits);
        let tree = build(
            Arc::clone(&m),
            Algorithm::NodeLevel,
            &BuildParams::default(),
        );
        let (_, stats, _) =
            render_with_options(&tree, &m, &camera, light, &RenderOptions::scalar());
        assert_eq!(
            (
                stats.primary_rays,
                stats.primary_hits,
                stats.shadow_rays,
                stats.occluded
            ),
            (r.primary_rays, r.primary_hits, r.shadow_rays, r.occluded)
        );
    }

    #[test]
    fn query_reference_counts_neighbours() {
        let m = mesh();
        let q = query(&m, &[Vec3::ZERO, v3(0., 0., 2.)], 2, 1.5);
        assert_eq!(q.knn_results, 4);
        // The origin is 1 from the occluder and 2 from the quad; the
        // point on the quad touches both quad triangles.
        assert_eq!(q.radius_results, 1 + 3);
        assert!((q.mean_knn_far_d2 - (4.0 + 0.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn par_map_keeps_order() {
        let items: Vec<u32> = (0..7).collect();
        assert_eq!(par_map(&items, |x| x * 2), vec![0, 2, 4, 6, 8, 10, 12]);
        assert!(par_map(&[] as &[u32], |x| *x).is_empty());
    }

    fn v3(x: f32, y: f32, z: f32) -> Vec3 {
        Vec3::new(x, y, z)
    }
}
