//! Triangles and ray/triangle intersection (Möller–Trumbore).

use crate::{Aabb, Hit, Ray, Vec3, EPS};

/// Relative slack of the pre-division `u` test: the unscaled numerator is
/// rejected only when it lies beyond the `[-EPS, 1 + EPS]` window scaled
/// by `det` and widened by this factor. The division-based `u` carries
/// at most a few ulps of relative rounding (`1 / det` and the product,
/// each `2^-24`, or up to `2^-21` when `1 / det` is subnormal), and so do
/// the scaled bounds, so a slack of `2^-12` can only let a numerator
/// through that the exact test then rejects — never reject one it would
/// accept.
const U_SLACK: f32 = 1.0 + 1.0 / 4096.0;

/// Lower end of the pre-division `u` window, per unit of `det`.
pub(crate) const U_LO: f32 = -EPS * U_SLACK;

/// Upper end of the pre-division `u` window, per unit of `det`.
pub(crate) const U_HI: f32 = (1.0 + EPS) * U_SLACK;

/// A triangle given by its three vertices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub a: Vec3,
    /// Second vertex.
    pub b: Vec3,
    /// Third vertex.
    pub c: Vec3,
}

impl Triangle {
    /// Creates a triangle from three vertices.
    #[inline]
    pub const fn new(a: Vec3, b: Vec3, c: Vec3) -> Triangle {
        Triangle { a, b, c }
    }

    /// Axis-aligned bounding box of the triangle.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        Aabb {
            min: self.a.min(self.b).min(self.c),
            max: self.a.max(self.b).max(self.c),
        }
    }

    /// Centroid (mean of the vertices).
    #[inline]
    pub fn centroid(&self) -> Vec3 {
        (self.a + self.b + self.c) / 3.0
    }

    /// Geometric (unnormalized) normal `(b - a) × (c - a)`.
    #[inline]
    pub fn geometric_normal(&self) -> Vec3 {
        (self.b - self.a).cross(self.c - self.a)
    }

    /// Unit normal; zero vector for degenerate triangles.
    #[inline]
    pub fn normal(&self) -> Vec3 {
        self.geometric_normal().normalized()
    }

    /// Surface area.
    #[inline]
    pub fn area(&self) -> f32 {
        0.5 * self.geometric_normal().length()
    }

    /// Möller–Trumbore ray/triangle intersection, accepting hits with ray
    /// parameter in the open interval `(t_min, t_max)`.
    ///
    /// Returns barycentric coordinates in the [`Hit`]; `Hit::prim` is set to
    /// `usize::MAX` (callers testing mesh triangles overwrite it).
    /// Backface hits are reported (no culling), matching the paper's ray
    /// caster which shades double-sided geometry.
    ///
    /// Most tests reject on `u`, so the unscaled `u · det` is first
    /// checked against the `u` window times `det`, widened by a relative
    /// slack of `2^-12`, and only survivors pay for `1 / det`. The checks
    /// after that are the plain scaled ones, so every verdict and every
    /// `t`/`u`/`v` bit is what the division-first test gives.
    ///
    /// `inline`: the kd-tree leaf loops call this once per triangle, from
    /// another crate.
    #[inline]
    pub fn intersect(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        let e1 = self.b - self.a;
        let e2 = self.c - self.a;
        let pvec = ray.dir.cross(e2);
        let det = e1.dot(pvec);
        // Parallel (or degenerate) triangles produce |det| ~ 0.
        if det.abs() < 1e-12 {
            return None;
        }
        let tvec = ray.origin - self.a;
        let u_det = tvec.dot(pvec);
        // Outside the window `[U_LO·det, U_HI·det]` (ends swapped for a
        // negative `det`), the offsets from both ends share a sign. That
        // sign survives rounding: subtraction is sign-exact, and a product
        // that underflows to zero only keeps the test. NaN falls through.
        if (u_det - U_LO * det) * (u_det - U_HI * det) > 0.0 {
            return None;
        }
        let inv_det = 1.0 / det;
        let u = u_det * inv_det;
        if !(-EPS..=1.0 + EPS).contains(&u) {
            return None;
        }
        let qvec = tvec.cross(e1);
        let v = ray.dir.dot(qvec) * inv_det;
        if v < -EPS || u + v > 1.0 + EPS {
            return None;
        }
        let t = e2.dot(qvec) * inv_det;
        if t <= t_min || t >= t_max {
            return None;
        }
        Some(Hit::new(t, usize::MAX, u, v))
    }

    /// True if any vertex differs; degenerate (zero-area) triangles return
    /// `false`.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.area() < 1e-12
    }

    /// Closest point on the (closed) triangle to `p`, after Ericson,
    /// *Real-Time Collision Detection* §5.1.5: classify `p` against the
    /// vertex/edge/face Voronoi regions from barycentric by-products, so
    /// no division happens until the region is known. Degenerate (zero
    /// area) triangles degenerate gracefully to their edges/vertices.
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        let ab = self.b - self.a;
        let ac = self.c - self.a;
        let ap = p - self.a;
        let d1 = ab.dot(ap);
        let d2 = ac.dot(ap);
        if d1 <= 0.0 && d2 <= 0.0 {
            return self.a; // vertex region A
        }
        let bp = p - self.b;
        let d3 = ab.dot(bp);
        let d4 = ac.dot(bp);
        if d3 >= 0.0 && d4 <= d3 {
            return self.b; // vertex region B
        }
        let vc = d1 * d4 - d3 * d2;
        if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
            let v = d1 / (d1 - d3);
            return self.a + ab * v; // edge region AB
        }
        let cp = p - self.c;
        let d5 = ab.dot(cp);
        let d6 = ac.dot(cp);
        if d6 >= 0.0 && d5 <= d6 {
            return self.c; // vertex region C
        }
        let vb = d5 * d2 - d1 * d6;
        if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
            let w = d2 / (d2 - d6);
            return self.a + ac * w; // edge region AC
        }
        let va = d3 * d6 - d5 * d4;
        if va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0 {
            let w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
            return self.b + (self.c - self.b) * w; // edge region BC
        }
        // Face region: project onto the plane via barycentrics.
        let denom = va + vb + vc;
        if denom.abs() < 1e-30 {
            // Fully degenerate triangle whose region tests all failed
            // (can only happen with NaN-free but collapsed geometry):
            // fall back to the nearest vertex.
            let da = (p - self.a).length_squared();
            let db = (p - self.b).length_squared();
            let dc = (p - self.c).length_squared();
            return if da <= db && da <= dc {
                self.a
            } else if db <= dc {
                self.b
            } else {
                self.c
            };
        }
        let v = vb / denom;
        let w = vc / denom;
        self.a + ab * v + ac * w
    }

    /// Squared Euclidean distance from `p` to the closest point on the
    /// triangle. The primitive under the k-NN and radius-gather kernels,
    /// which compare squared distances throughout to avoid square roots.
    #[inline]
    pub fn distance_squared(&self, p: Vec3) -> f32 {
        (p - self.closest_point(p)).length_squared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_tri() -> Triangle {
        Triangle::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    #[test]
    fn area_and_normal() {
        let t = unit_tri();
        assert_eq!(t.area(), 0.5);
        assert_eq!(t.normal(), Vec3::Z);
        assert_eq!(t.centroid(), Vec3::new(1.0 / 3.0, 1.0 / 3.0, 0.0));
    }

    #[test]
    fn bounds_cover_vertices() {
        let t = unit_tri();
        let b = t.bounds();
        assert!(b.contains_point(t.a));
        assert!(b.contains_point(t.b));
        assert!(b.contains_point(t.c));
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn frontal_hit() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.2, 0.2, -3.0), Vec3::Z);
        let hit = t.intersect(&ray, 0.0, f32::INFINITY).unwrap();
        assert!((hit.t - 3.0).abs() < 1e-5);
        assert!((hit.u - 0.2).abs() < 1e-5);
        assert!((hit.v - 0.2).abs() < 1e-5);
    }

    #[test]
    fn backface_hit_reported() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.2, 0.2, 3.0), -Vec3::Z);
        assert!(t.intersect(&ray, 0.0, f32::INFINITY).is_some());
    }

    #[test]
    fn miss_outside_triangle() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.9, 0.9, -3.0), Vec3::Z);
        assert!(t.intersect(&ray, 0.0, f32::INFINITY).is_none());
    }

    #[test]
    fn parallel_ray_misses() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.2, 0.2, 1.0), Vec3::X);
        assert!(t.intersect(&ray, 0.0, f32::INFINITY).is_none());
    }

    #[test]
    fn respects_t_range() {
        let t = unit_tri();
        let ray = Ray::new(Vec3::new(0.2, 0.2, -3.0), Vec3::Z);
        assert!(t.intersect(&ray, 0.0, 2.0).is_none());
        assert!(t.intersect(&ray, 3.5, 10.0).is_none());
        assert!(t.intersect(&ray, 2.0, 4.0).is_some());
    }

    #[test]
    fn degenerate_triangle_never_hit() {
        let t = Triangle::new(Vec3::ZERO, Vec3::ZERO, Vec3::X);
        assert!(t.is_degenerate());
        let ray = Ray::new(Vec3::new(0.5, 0.0, -1.0), Vec3::Z);
        assert!(t.intersect(&ray, 0.0, f32::INFINITY).is_none());
    }

    #[test]
    fn closest_point_regions() {
        let t = unit_tri();
        // Face region: directly above an interior point.
        let p = Vec3::new(0.25, 0.25, 3.0);
        assert!((t.closest_point(p) - Vec3::new(0.25, 0.25, 0.0)).length() < 1e-6);
        assert!((t.distance_squared(p) - 9.0).abs() < 1e-5);
        // Vertex regions.
        assert_eq!(t.closest_point(Vec3::new(-1.0, -1.0, 0.0)), t.a);
        assert_eq!(t.closest_point(Vec3::new(3.0, -1.0, 0.0)), t.b);
        assert_eq!(t.closest_point(Vec3::new(-1.0, 3.0, 0.0)), t.c);
        // Edge AB region: below the hypotenuse-free edge y=0.
        let q = t.closest_point(Vec3::new(0.5, -2.0, 0.0));
        assert!((q - Vec3::new(0.5, 0.0, 0.0)).length() < 1e-6);
        // A point on the triangle is its own closest point.
        let on = Vec3::new(0.2, 0.3, 0.0);
        assert!((t.closest_point(on) - on).length() < 1e-6);
        assert_eq!(t.distance_squared(on), 0.0);
    }

    #[test]
    fn closest_point_degenerate_triangle() {
        // Collapsed to a segment along X: behaves like the segment.
        let t = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::new(2.0, 0.0, 0.0));
        let q = t.closest_point(Vec3::new(1.5, 2.0, 0.0));
        assert!((q - Vec3::new(1.5, 0.0, 0.0)).length() < 1e-5);
        // Collapsed to a point.
        let t = Triangle::new(Vec3::ONE, Vec3::ONE, Vec3::ONE);
        assert_eq!(t.closest_point(Vec3::new(5.0, 1.0, 1.0)), Vec3::ONE);
        assert!((t.distance_squared(Vec3::new(5.0, 1.0, 1.0)) - 16.0).abs() < 1e-4);
    }

    fn arb_vec(range: std::ops::Range<f32>) -> impl Strategy<Value = Vec3> {
        (range.clone(), range.clone(), range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    /// Möller–Trumbore with the division first, as `intersect` was before
    /// the pre-division `u` test; kept verbatim as the reference that
    /// test must reproduce bit for bit.
    fn division_first(tri: &Triangle, ray: &Ray, t_min: f32, t_max: f32) -> Option<Hit> {
        let e1 = tri.b - tri.a;
        let e2 = tri.c - tri.a;
        let pvec = ray.dir.cross(e2);
        let det = e1.dot(pvec);
        // Parallel (or degenerate) triangles produce |det| ~ 0.
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        let tvec = ray.origin - tri.a;
        let u = tvec.dot(pvec) * inv_det;
        if !(-EPS..=1.0 + EPS).contains(&u) {
            return None;
        }
        let qvec = tvec.cross(e1);
        let v = ray.dir.dot(qvec) * inv_det;
        if v < -EPS || u + v > 1.0 + EPS {
            return None;
        }
        let t = e2.dot(qvec) * inv_det;
        if t <= t_min || t >= t_max {
            return None;
        }
        Some(Hit::new(t, usize::MAX, u, v))
    }

    type HitBits = Option<(u32, u32, u32)>;

    fn hit_bits(hit: Option<Hit>) -> HitBits {
        hit.map(|h| (h.t.to_bits(), h.u.to_bits(), h.v.to_bits()))
    }

    /// `x` moved by `ulps` units in the last place (away from zero for a
    /// positive count); `x` must be finite and nonzero.
    fn nudge(x: f32, ulps: i32) -> f32 {
        f32::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    /// The first `W` rays as one packet against [`division_first`], lane
    /// by lane.
    fn packet_matches_division_first<const W: usize>(
        tri: &Triangle,
        rays: &[Ray; 16],
        t_min: f32,
        t_max: f32,
    ) -> Result<(), TestCaseError> {
        let lanes: [Ray; W] = std::array::from_fn(|l| rays[l]);
        let p = crate::RayPacket::new(lanes, [t_max; W]);
        let h = tri.intersect_packet(&p, t_min, &[t_max; W], crate::RayPacket::<W>::ALL);
        for (l, ray) in lanes.iter().enumerate() {
            let got: HitBits = (h.mask & (1 << l) != 0)
                .then(|| (h.t[l].to_bits(), h.u[l].to_bits(), h.v[l].to_bits()));
            let want = hit_bits(division_first(tri, ray, t_min, t_max));
            prop_assert_eq!(got, want, "W = {} lane {} {:?} {:?}", W, l, tri, ray);
        }
        Ok(())
    }

    /// `intersect` and every lane of `intersect_packet` at W = 4, 8 and
    /// 16 against [`division_first`]: the same `None`-ness and the same
    /// `t`, `u` and `v` bits.
    fn matches_division_first(
        tri: &Triangle,
        rays: &[Ray; 16],
        t_min: f32,
        t_max: f32,
    ) -> Result<(), TestCaseError> {
        for ray in rays {
            prop_assert_eq!(
                hit_bits(tri.intersect(ray, t_min, t_max)),
                hit_bits(division_first(tri, ray, t_min, t_max)),
                "{:?} {:?}",
                tri,
                ray
            );
        }
        packet_matches_division_first::<4>(tri, rays, t_min, t_max)?;
        packet_matches_division_first::<8>(tri, rays, t_min, t_max)?;
        packet_matches_division_first::<16>(tri, rays, t_min, t_max)
    }

    /// Sixteen rays through the right triangle `(0,0,0), (s,0,0),
    /// (0,s,0)`, four lanes per bound and both signs of `det`. A ray
    /// through `(x, y)` has the exact barycentrics `u = x / s` and
    /// `v = y / s`, so a coordinate placed `ulps[l]` units around `-EPS·s`
    /// or `(1 + EPS)·s` puts the computed `u`, `v` or `u + v` within a few
    /// ulps of the test's bounds, after rounding that depends on `s`.
    fn rays_at_the_bounds(s: f32, w: f32, ulps: &[i32; 16]) -> [Ray; 16] {
        std::array::from_fn(|l| {
            let k = ulps[l];
            let (x, y) = match l % 4 {
                0 => (nudge(-EPS * s, k), w * s),
                1 => (nudge((1.0 + EPS) * s, k), 0.0),
                2 => (w * s, nudge(-EPS * s, k)),
                _ => (w * s, nudge((1.0 + EPS) * s - w * s, k)),
            };
            // Lanes 0-7 look down -z (det = s²), lanes 8-15 up +z
            // (det = -s²).
            let z = if l < 8 { 1.0 } else { -1.0 };
            Ray::new(Vec3::new(x, y, z), Vec3::new(0.0, 0.0, -z))
        })
    }

    /// Replaces one coordinate with NaN, `+inf` or `-inf` (`kind` 0-2).
    fn poison(v: &mut Vec3, axis: usize, kind: usize) {
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
        match axis {
            0 => v.x = bad,
            1 => v.y = bad,
            _ => v.z = bad,
        }
    }

    /// Poisons coordinate `which / 16` (origin x, y, z, then direction
    /// x, y, z) of lane `which % 16`; `which >= 96` poisons nothing.
    fn poison_ray(rays: &mut [Ray; 16], which: usize, kind: usize) {
        if which >= 96 {
            return;
        }
        let (lane, comp) = (which % 16, which / 16);
        let (mut origin, mut dir) = (rays[lane].origin, rays[lane].dir);
        poison(
            if comp < 3 { &mut origin } else { &mut dir },
            comp % 3,
            kind,
        );
        rays[lane] = Ray::new(origin, dir);
    }

    proptest! {
        /// The pre-division `u` test changes no verdict and no bit: the
        /// scalar test and every packet lane against the division-first
        /// formula, on random pairs and on pairs whose `u`, `v` or
        /// `u + v` sit within a few ulps of `-EPS` or `1 + EPS` for both
        /// signs of `det`, at scales from `|det|` just around the `1e-12`
        /// cut-off up to `1e6`, with NaN and ±inf coordinates injected.
        #[test]
        fn deferred_division_matches_division_first_bitwise(
            (a, b, c) in (arb_vec(-5.0..5.0), arb_vec(-5.0..5.0), arb_vec(-5.0..5.0)),
            origins in prop::array::uniform16(arb_vec(-10.0..10.0)),
            dirs in prop::array::uniform16(arb_vec(-1.0..1.0)),
            (scale_exp, near_cutoff, w) in (-5.9f32..3.0, 0.98f32..1.02, 0.05f32..0.95),
            ulps in prop::array::uniform16(-6i32..=6),
            (ray_poison, tri_poison, kind) in (0usize..128, 0usize..27, 0usize..3),
        ) {
            let t_max = 100.0;
            let mut tri = Triangle::new(a, b, c);
            let mut rays: [Ray; 16] = std::array::from_fn(|l| Ray::new(origins[l], dirs[l]));
            matches_division_first(&tri, &rays, 0.0, t_max)?;
            for s in [10f32.powf(scale_exp), 1e-6 * near_cutoff] {
                let right = Triangle::new(Vec3::ZERO, Vec3::X * s, Vec3::Y * s);
                let mut bounds = rays_at_the_bounds(s, w, &ulps);
                matches_division_first(&right, &bounds, 0.0, t_max)?;
                poison_ray(&mut bounds, ray_poison, kind);
                matches_division_first(&right, &bounds, 0.0, t_max)?;
            }
            // One poisoned ray coordinate and one poisoned vertex
            // coordinate (each draw leaves some cases clean).
            poison_ray(&mut rays, ray_poison, kind);
            if tri_poison < 9 {
                let vertex = match tri_poison / 3 {
                    0 => &mut tri.a,
                    1 => &mut tri.b,
                    _ => &mut tri.c,
                };
                poison(vertex, tri_poison % 3, kind);
            }
            matches_division_first(&tri, &rays, 0.0, t_max)?;
        }
    }

    proptest! {
        /// A ray aimed at a point strictly inside the triangle must hit it,
        /// and the hit point must lie in the triangle's bounding box.
        #[test]
        fn aimed_rays_hit(
            a in arb_vec(-10.0..10.0),
            b in arb_vec(-10.0..10.0),
            c in arb_vec(-10.0..10.0),
            (wa, wb) in (0.05f32..0.9, 0.05f32..0.9),
            origin in arb_vec(-30.0..30.0),
        ) {
            let tri = Triangle::new(a, b, c);
            prop_assume!(tri.area() > 1e-3);
            let (wa, wb) = if wa + wb > 0.95 {
                (wa / (wa + wb) * 0.9, wb / (wa + wb) * 0.9)
            } else {
                (wa, wb)
            };
            let target = a * (1.0 - wa - wb) + b * wa + c * wb;
            let dir = target - origin;
            prop_assume!(dir.length() > 1e-3);
            // Origin must not be (nearly) in the triangle's plane.
            let n = tri.normal();
            prop_assume!(n.dot(origin - a).abs() > 1e-2);
            let ray = Ray::new(origin, dir.normalized());
            let hit = tri.intersect(&ray, 0.0, f32::INFINITY);
            prop_assert!(hit.is_some(), "ray aimed at interior point missed");
            let hit = hit.unwrap();
            let p = ray.at(hit.t);
            let slack = 1e-3 * (1.0 + p.length());
            prop_assert!(tri.bounds().expanded(slack).contains_point(p));
        }

        /// The closest point must (a) lie on the triangle (reconstructible
        /// from clamped barycentrics), and (b) beat or match a dense
        /// sampling of the triangle's surface.
        #[test]
        fn closest_point_beats_surface_samples(
            a in arb_vec(-5.0..5.0),
            b in arb_vec(-5.0..5.0),
            c in arb_vec(-5.0..5.0),
            p in arb_vec(-10.0..10.0),
        ) {
            let tri = Triangle::new(a, b, c);
            let d2 = tri.distance_squared(p);
            let steps = 12;
            for i in 0..=steps {
                for j in 0..=(steps - i) {
                    let u = i as f32 / steps as f32;
                    let v = j as f32 / steps as f32;
                    let q = a * (1.0 - u - v) + b * u + c * v;
                    let sample = (p - q).length_squared();
                    // The sampled point can only be farther (up to fp slack).
                    prop_assert!(
                        d2 <= sample + 1e-3 * (1.0 + sample),
                        "closest {} beaten by sample {}", d2, sample
                    );
                }
            }
        }

        /// Barycentrics returned by the intersector reconstruct the hit
        /// point: `p = (1-u-v) a + u b + v c`.
        #[test]
        fn barycentrics_reconstruct_point(
            a in arb_vec(-5.0..5.0),
            b in arb_vec(-5.0..5.0),
            c in arb_vec(-5.0..5.0),
        ) {
            let tri = Triangle::new(a, b, c);
            prop_assume!(tri.area() > 1e-2);
            let target = tri.centroid();
            let n = tri.normal();
            let origin = target + n * 7.0;
            let ray = Ray::new(origin, -n);
            if let Some(hit) = tri.intersect(&ray, 0.0, f32::INFINITY) {
                let p = ray.at(hit.t);
                let q = a * (1.0 - hit.u - hit.v) + b * hit.u + c * hit.v;
                prop_assert!((p - q).length() < 1e-2 * (1.0 + p.length()));
            }
        }
    }
}
