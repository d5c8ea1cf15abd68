//! Axis-aligned bounding boxes.

use crate::{Axis, Ray, Vec3};

/// An axis-aligned bounding box, stored as component-wise `min`/`max`
/// corners.
///
/// An *empty* box (`Aabb::EMPTY`) has `min = +inf`, `max = -inf`; unioning
/// anything with it yields the other operand, which makes it the identity
/// for [`Aabb::union`] and a natural accumulator seed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Aabb {
    /// Component-wise minimum corner.
    pub min: Vec3,
    /// Component-wise maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// The empty box: identity element for [`Aabb::union`].
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f32::INFINITY),
        max: Vec3::splat(f32::NEG_INFINITY),
    };

    /// Creates a box from corners. Components of `min` must not exceed the
    /// corresponding components of `max` for the box to be non-empty, but
    /// this is not enforced (empty boxes are legal values).
    #[inline]
    pub const fn new(min: Vec3, max: Vec3) -> Aabb {
        Aabb { min, max }
    }

    /// The box containing a single point.
    #[inline]
    pub fn point(p: Vec3) -> Aabb {
        Aabb { min: p, max: p }
    }

    /// Builds the bounding box of an iterator of points.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Aabb {
        points
            .into_iter()
            .fold(Aabb::EMPTY, |acc, p| acc.union_point(p))
    }

    /// True if the box contains no points (any `min` component exceeds the
    /// corresponding `max` component).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// The smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The smallest box containing `self` and the point `p`.
    #[inline]
    pub fn union_point(&self, p: Vec3) -> Aabb {
        Aabb {
            min: self.min.min(p),
            max: self.max.max(p),
        }
    }

    /// The intersection of both boxes; empty if they do not overlap.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.max(other.min),
            max: self.max.min(other.max),
        }
    }

    /// Extent along each axis. Negative for empty boxes.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Center point of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Surface area (`2(wh + wd + hd)`), the quantity at the heart of the
    /// Surface Area Heuristic. Returns `0.0` for empty boxes.
    #[inline]
    pub fn surface_area(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        Aabb::area_of_extent(self.extent())
    }

    /// Surface area of a box with extents `e`: the sum
    /// [`Aabb::surface_area`] takes for a non-empty box, term for term, so
    /// a caller holding a box's extents gets the same bits.
    #[inline]
    pub fn area_of_extent(e: Vec3) -> f32 {
        2.0 * (e.x * e.y + e.x * e.z + e.y * e.z)
    }

    /// Volume of the box. Returns `0.0` for empty boxes.
    #[inline]
    pub fn volume(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Axis with the largest extent.
    #[inline]
    pub fn longest_axis(&self) -> Axis {
        self.extent().max_axis()
    }

    /// True if point `p` lies inside or on the boundary of the box.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True if `other` lies entirely within `self` (empty boxes are
    /// contained in everything).
    #[inline]
    pub fn contains(&self, other: &Aabb) -> bool {
        other.is_empty() || (self.contains_point(other.min) && self.contains_point(other.max))
    }

    /// True if the boxes share at least one point (closed-interval overlap).
    #[inline]
    pub fn overlaps(&self, other: &Aabb) -> bool {
        !self.intersection(other).is_empty()
    }

    /// Splits the box by the axis-aligned plane `axis = pos` into
    /// `(left, right)` halves. `pos` is clamped to the box so both halves
    /// remain valid (possibly flat) boxes.
    #[inline]
    pub fn split(&self, axis: Axis, pos: f32) -> (Aabb, Aabb) {
        let pos = pos.clamp(self.min[axis], self.max[axis]);
        let mut left = *self;
        let mut right = *self;
        left.max[axis] = pos;
        right.min[axis] = pos;
        (left, right)
    }

    /// Slab test: returns the parametric interval `[t_enter, t_exit]` where
    /// the ray overlaps the box, clipped against `[t_min, t_max]`, or `None`
    /// if there is no overlap.
    ///
    /// Uses the precomputed reciprocal direction in [`Ray`]; IEEE semantics
    /// make axis-parallel rays (zero direction components) work out through
    /// infinities.
    #[inline]
    pub fn intersect_ray(&self, ray: &Ray, t_min: f32, t_max: f32) -> Option<(f32, f32)> {
        let mut t0 = t_min;
        let mut t1 = t_max;
        for axis in Axis::ALL {
            let inv = ray.inv_dir[axis];
            let mut near = (self.min[axis] - ray.origin[axis]) * inv;
            let mut far = (self.max[axis] - ray.origin[axis]) * inv;
            if near > far {
                std::mem::swap(&mut near, &mut far);
            }
            // NaN (origin exactly on a flat box face with zero direction)
            // must not poison the interval: fall back to keeping the
            // previous bounds in that case.
            if near.is_nan() || far.is_nan() {
                // Ray is parallel to the slab and the origin lies exactly on
                // a face; treat as inside the slab.
                continue;
            }
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }

    /// Squared Euclidean distance from `p` to the closest point of the box
    /// (0 when `p` is inside). Used by the point-query kernels to reject
    /// whole subtrees against a search radius without visiting them.
    #[inline]
    pub fn distance_squared_to_point(&self, p: Vec3) -> f32 {
        let nearest = p.max(self.min).min(self.max);
        (p - nearest).length_squared()
    }

    /// Grows the box by `margin` in all directions.
    #[inline]
    pub fn expanded(&self, margin: f32) -> Aabb {
        Aabb {
            min: self.min - Vec3::splat(margin),
            max: self.max + Vec3::splat(margin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn empty_is_identity_for_union() {
        let b = unit();
        assert_eq!(Aabb::EMPTY.union(&b), b);
        assert_eq!(b.union(&Aabb::EMPTY), b);
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.surface_area(), 0.0);
        assert_eq!(Aabb::EMPTY.volume(), 0.0);
    }

    #[test]
    fn surface_area_and_volume() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.surface_area(), 2.0 * (6.0 + 8.0 + 12.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.longest_axis(), Axis::Z);
    }

    #[test]
    fn split_partitions_surface() {
        let b = unit();
        let (l, r) = b.split(Axis::X, 0.25);
        assert_eq!(l.max.x, 0.25);
        assert_eq!(r.min.x, 0.25);
        assert_eq!(l.union(&r), b);
        // Clamping keeps out-of-range planes inside the box.
        let (l2, _r2) = b.split(Axis::X, -5.0);
        assert_eq!(l2.max.x, 0.0);
        assert_eq!(l2.volume(), 0.0);
    }

    #[test]
    fn containment_and_overlap() {
        let b = unit();
        let inner = Aabb::new(Vec3::splat(0.25), Vec3::splat(0.75));
        let outside = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(b.contains(&inner));
        assert!(!inner.contains(&b));
        assert!(b.overlaps(&inner));
        assert!(!b.overlaps(&outside));
        assert!(b.contains(&Aabb::EMPTY));
        assert!(b.contains_point(Vec3::splat(0.5)));
        assert!(!b.contains_point(Vec3::splat(1.5)));
    }

    #[test]
    fn ray_hits_unit_box() {
        let b = unit();
        let ray = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        let (t0, t1) = b.intersect_ray(&ray, 0.0, f32::INFINITY).unwrap();
        assert!((t0 - 1.0).abs() < 1e-6);
        assert!((t1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ray_misses_box() {
        let b = unit();
        let ray = Ray::new(Vec3::new(2.0, 2.0, -1.0), Vec3::Z);
        assert!(b.intersect_ray(&ray, 0.0, f32::INFINITY).is_none());
        // Pointing away.
        let ray = Ray::new(Vec3::new(0.5, 0.5, -1.0), -Vec3::Z);
        assert!(b.intersect_ray(&ray, 0.0, f32::INFINITY).is_none());
    }

    #[test]
    fn axis_parallel_ray_inside_slab() {
        let b = unit();
        // Direction has a zero x component; origin x inside the box.
        let ray = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(b.intersect_ray(&ray, 0.0, f32::INFINITY).is_some());
        // Zero x component but origin x outside: must miss.
        let ray = Ray::new(Vec3::new(5.0, 0.5, -1.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(b.intersect_ray(&ray, 0.0, f32::INFINITY).is_none());
    }

    #[test]
    fn ray_starting_inside() {
        let b = unit();
        let ray = Ray::new(Vec3::splat(0.5), Vec3::X);
        let (t0, t1) = b.intersect_ray(&ray, 0.0, f32::INFINITY).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-6);
    }

    fn arb_vec3(range: std::ops::Range<f32>) -> impl Strategy<Value = Vec3> {
        (range.clone(), range.clone(), range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_aabb() -> impl Strategy<Value = Aabb> {
        (arb_vec3(-100.0..100.0), arb_vec3(-100.0..100.0))
            .prop_map(|(a, b)| Aabb::new(a.min(b), a.max(b)))
    }

    proptest! {
        #[test]
        fn union_contains_both(a in arb_aabb(), b in arb_aabb()) {
            let u = a.union(&b);
            prop_assert!(u.contains(&a));
            prop_assert!(u.contains(&b));
        }

        #[test]
        fn union_is_commutative_and_associative(
            a in arb_aabb(), b in arb_aabb(), c in arb_aabb()
        ) {
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        }

        #[test]
        fn split_preserves_total_volume(
            a in arb_aabb(),
            axis_idx in 0usize..3,
            t in 0.0f32..=1.0
        ) {
            let axis = Axis::from_index(axis_idx);
            let pos = a.min[axis] + t * (a.max[axis] - a.min[axis]);
            let (l, r) = a.split(axis, pos);
            let vol = a.volume();
            let parts = l.volume() + r.volume();
            prop_assert!((vol - parts).abs() <= 1e-2 * vol.max(1.0),
                "{} vs {}", vol, parts);
        }

        #[test]
        fn intersection_is_contained(a in arb_aabb(), b in arb_aabb()) {
            let i = a.intersection(&b);
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
        }

        #[test]
        fn surface_area_monotone_under_union(a in arb_aabb(), b in arb_aabb()) {
            let u = a.union(&b);
            prop_assert!(u.surface_area() + 1e-3 >= a.surface_area());
            prop_assert!(u.surface_area() + 1e-3 >= b.surface_area());
        }

        #[test]
        fn ray_interval_within_input_bounds(
            a in arb_aabb(),
            origin in arb_vec3(-200.0..200.0),
            dir in arb_vec3(-1.0..1.0)
        ) {
            prop_assume!(dir.length() > 1e-3);
            let ray = Ray::new(origin, dir.normalized());
            if let Some((t0, t1)) = a.intersect_ray(&ray, 0.0, 1e6) {
                prop_assert!(t0 <= t1);
                prop_assert!(t0 >= 0.0);
                prop_assert!(t1 <= 1e6);
                // The midpoint of the interval must lie inside a slightly
                // expanded box (floating-point slack).
                let mid = ray.at((t0 + t1) * 0.5);
                prop_assert!(a.expanded(1e-2 * (1.0 + mid.length())).contains_point(mid));
            }
        }
    }
}
