//! Const-generic wide coherent ray packets (SoA) and the vectorizable
//! kernels over them.
//!
//! A [`RayPacket<W>`] carries `W` rays (4, 8 or 16 — SSE/NEON, AVX2,
//! AVX-512 respectively) in structure-of-arrays layout — `[f32; W]` per
//! component — so the slab test and Möller–Trumbore intersection can be
//! written as straight-line lane-parallel arithmetic that the
//! autovectorizer lowers to packed instructions of the matching width.
//! Every kernel here is **bit-identical per lane** to its scalar
//! counterpart ([`Aabb::intersect_ray`], [`Triangle::intersect`]): the
//! same operations in the same order on the same `f32` values, with the
//! scalar early-out branches turned into accept masks of identical
//! polarity (so NaN comparison semantics carry over too). This is what
//! lets the packet render path promise bit-identical images at every
//! width.
//!
//! [`PacketFrustum`] bounds a whole packet with per-axis origin and
//! reciprocal-direction intervals (Reshetov-style interval arithmetic).
//! Traversals use it to classify the entire packet against a split plane
//! in O(1) — descending or skipping a child only when every lane
//! provably agrees — instead of running the O(W) per-lane test.

use crate::triangle::{U_HI, U_LO};
use crate::{Aabb, Hit, Ray, Triangle, EPS};

// Elementwise helpers over `[f32; W]`. Fixed-length, branch-free lane
// loops like these are what LLVM's unroll + SLP pass reliably lowers to
// single packed SSE/AVX/NEON instructions; writing the kernels as chains
// of them (operation-major, not lane-major) is what keeps the whole
// kernel on the vector unit. Each is exactly the scalar operator per
// lane, so lane results stay bit-identical to scalar code using the
// same ops.

#[inline(always)]
fn splat<const W: usize>(v: f32) -> [f32; W] {
    [v; W]
}

#[inline(always)]
fn add<const W: usize>(a: [f32; W], b: [f32; W]) -> [f32; W] {
    std::array::from_fn(|l| a[l] + b[l])
}

#[inline(always)]
fn sub<const W: usize>(a: [f32; W], b: [f32; W]) -> [f32; W] {
    std::array::from_fn(|l| a[l] - b[l])
}

#[inline(always)]
fn mul<const W: usize>(a: [f32; W], b: [f32; W]) -> [f32; W] {
    std::array::from_fn(|l| a[l] * b[l])
}

#[inline(always)]
fn div<const W: usize>(a: [f32; W], b: [f32; W]) -> [f32; W] {
    std::array::from_fn(|l| a[l] / b[l])
}

/// `a * b - c * d`, the cross-product component shape.
#[inline(always)]
fn mul_sub<const W: usize>(a: [f32; W], b: [f32; W], c: [f32; W], d: [f32; W]) -> [f32; W] {
    sub(mul(a, b), mul(c, d))
}

/// `a · b` over lane triples, with [`crate::Vec3::dot`]'s summation
/// order `(x*x + y*y) + z*z`.
#[inline(always)]
fn dot3<const W: usize>(
    ax: [f32; W],
    ay: [f32; W],
    az: [f32; W],
    bx: [f32; W],
    by: [f32; W],
    bz: [f32; W],
) -> [f32; W] {
    add(add(mul(ax, bx), mul(ay, by)), mul(az, bz))
}

/// Packs a lane predicate into a bitmask (bit `l` = `m[l]`).
#[inline(always)]
fn mask_of<const W: usize>(m: [bool; W]) -> u32 {
    let mut bits = 0u32;
    let mut l = 0;
    while l < W {
        bits |= (m[l] as u32) << l;
        l += 1;
    }
    bits
}

/// `W` rays in SoA layout, with a per-lane `t_max` and an active-lane
/// mask (bit `l` set = lane `l` participates in queries). `W` must be
/// in `1..=32`; the traversal and render paths instantiate 4, 8 and 16.
///
/// The original [`Ray`]s are retained so traversals can fall back to the
/// scalar path for incoherent lanes without reconstructing them.
#[derive(Clone, Copy, Debug)]
pub struct RayPacket<const W: usize> {
    /// Origins, `origin[axis][lane]`.
    origin: [[f32; W]; 3],
    /// Directions, `dir[axis][lane]`.
    dir: [[f32; W]; 3],
    /// Reciprocal directions, `inv_dir[axis][lane]`.
    inv_dir: [[f32; W]; 3],
    /// Per-lane search upper bound.
    t_max: [f32; W],
    /// Active-lane mask (low `W` bits).
    active: u32,
    /// All origins are bitwise identical (primary-ray packets) —
    /// traversals may then classify the shared origin once per split
    /// instead of per lane.
    common_origin: bool,
    /// The source rays, for scalar fallback.
    rays: [Ray; W],
}

impl<const W: usize> RayPacket<W> {
    /// Lane-mask with every one of the `W` lanes active.
    pub const ALL: u32 = (((1u64 << W) - 1) & 0xFFFF_FFFF) as u32;

    /// Packs `W` rays with per-lane `t_max`; all lanes active.
    pub fn new(rays: [Ray; W], t_max: [f32; W]) -> RayPacket<W> {
        RayPacket::with_mask(rays, t_max, Self::ALL)
    }

    /// Packs `W` rays with an explicit active-lane mask. Inactive lanes
    /// must still hold *some* finite ray (duplicate an active lane or use
    /// any placeholder) — their lanes are computed but never observed.
    pub fn with_mask(rays: [Ray; W], t_max: [f32; W], active: u32) -> RayPacket<W> {
        let mut origin = [[0.0; W]; 3];
        let mut dir = [[0.0; W]; 3];
        let mut inv_dir = [[0.0; W]; 3];
        for l in 0..W {
            let r = &rays[l];
            origin[0][l] = r.origin.x;
            origin[1][l] = r.origin.y;
            origin[2][l] = r.origin.z;
            dir[0][l] = r.dir.x;
            dir[1][l] = r.dir.y;
            dir[2][l] = r.dir.z;
            inv_dir[0][l] = r.inv_dir.x;
            inv_dir[1][l] = r.inv_dir.y;
            inv_dir[2][l] = r.inv_dir.z;
        }
        let common_origin =
            (0..3).all(|a| (1..W).all(|l| origin[a][l].to_bits() == origin[a][0].to_bits()));
        RayPacket {
            origin,
            dir,
            inv_dir,
            t_max,
            active: active & Self::ALL,
            common_origin,
            rays,
        }
    }

    /// The active-lane mask (low `W` bits).
    #[inline(always)]
    pub fn active(&self) -> u32 {
        self.active
    }

    /// The source ray of lane `l`.
    #[inline(always)]
    pub fn ray(&self, l: usize) -> &Ray {
        &self.rays[l]
    }

    /// Per-lane search upper bounds.
    #[inline(always)]
    pub fn t_maxes(&self) -> [f32; W] {
        self.t_max
    }

    /// Lane origins along `axis` (0 = x, 1 = y, 2 = z).
    #[inline(always)]
    pub fn origin_axis(&self, axis: usize) -> &[f32; W] {
        &self.origin[axis]
    }

    /// Lane directions along `axis`.
    #[inline(always)]
    pub fn dir_axis(&self, axis: usize) -> &[f32; W] {
        &self.dir[axis]
    }

    /// Lane reciprocal directions along `axis`.
    #[inline(always)]
    pub fn inv_dir_axis(&self, axis: usize) -> &[f32; W] {
        &self.inv_dir[axis]
    }

    /// Whether every lane shares one bitwise-identical origin (true for
    /// primary-ray packets from a pinhole camera).
    #[inline(always)]
    pub fn common_origin(&self) -> bool {
        self.common_origin
    }

    /// The conservative interval frustum over this packet's active
    /// lanes. Invalid (never fast-pathed) when no lane is active or any
    /// active lane has a non-finite reciprocal direction.
    pub fn frustum(&self) -> PacketFrustum {
        PacketFrustum::of_packet(self)
    }
}

/// Result of a `W`-wide triangle intersection: per-lane `t` and
/// barycentrics, with bit `l` of `mask` set when lane `l` accepted the
/// hit. Values of rejected lanes are unspecified.
#[derive(Clone, Copy, Debug)]
pub struct PacketHit<const W: usize> {
    /// Per-lane ray parameter.
    pub t: [f32; W],
    /// Per-lane barycentric `u`.
    pub u: [f32; W],
    /// Per-lane barycentric `v`.
    pub v: [f32; W],
    /// Accepting lanes.
    pub mask: u32,
}

impl<const W: usize> PacketHit<W> {
    /// The lane's result as a scalar [`Hit`] (prim = `usize::MAX`, as in
    /// [`Triangle::intersect`]).
    #[inline]
    pub fn lane_hit(&self, l: usize) -> Hit {
        Hit::new(self.t[l], usize::MAX, self.u[l], self.v[l])
    }
}

/// A conservative interval bound over one packet: per-axis origin and
/// reciprocal-direction intervals covering every **active** lane
/// (Reshetov-style interval frustum over the camera's row/column ray
/// table deltas).
///
/// Traversals use it to classify the whole packet against a kd split
/// plane in O(1): with `diff = pos - origin` bounded by
/// [`diff_bounds`](PacketFrustum::diff_bounds) and `t_plane = diff *
/// inv_dir` bounded by
/// [`t_plane_bounds`](PacketFrustum::t_plane_bounds), a packet whose
/// bounds land entirely on one side of the scalar near/far predicates
/// provably has every lane agreeing with the per-lane test — so the
/// shared step can descend without touching any lane data, and stays
/// bit-identical by construction.
///
/// The bounds are sound in rounded `f32` arithmetic: IEEE subtraction
/// and multiplication are monotone under rounding, and the bilinear
/// product `diff * inv` attains its extremes at the interval corners,
/// so the min/max of the four rounded corner products bound every
/// rounded lane product. This argument needs every factor finite —
/// hence the validity rule below.
#[derive(Clone, Copy, Debug)]
pub struct PacketFrustum {
    /// Per-axis lower origin bound over active lanes.
    o_lo: [f32; 3],
    /// Per-axis upper origin bound over active lanes.
    o_hi: [f32; 3],
    /// Per-axis lower reciprocal-direction bound over active lanes.
    inv_lo: [f32; 3],
    /// Per-axis upper reciprocal-direction bound over active lanes.
    inv_hi: [f32; 3],
    /// True only when at least one lane is active and **every** active
    /// lane's reciprocal direction is finite on all three axes. An
    /// infinite `inv_dir` (zero direction component) would turn the
    /// corner products into `±inf`/NaN and poison the interval bound.
    valid: bool,
}

impl PacketFrustum {
    /// A frustum that never fast-paths (used when no bound is known).
    pub const INVALID: PacketFrustum = PacketFrustum {
        o_lo: [0.0; 3],
        o_hi: [0.0; 3],
        inv_lo: [0.0; 3],
        inv_hi: [0.0; 3],
        valid: false,
    };

    /// Bounds the active lanes of `p`. Returns an invalid frustum when
    /// no lane is active or an active lane has a non-finite reciprocal
    /// direction on any axis.
    pub fn of_packet<const W: usize>(p: &RayPacket<W>) -> PacketFrustum {
        if p.active() == 0 {
            return PacketFrustum::INVALID;
        }
        let mut o_lo = [f32::INFINITY; 3];
        let mut o_hi = [f32::NEG_INFINITY; 3];
        let mut inv_lo = [f32::INFINITY; 3];
        let mut inv_hi = [f32::NEG_INFINITY; 3];
        let mut valid = true;
        for axis in 0..3 {
            let o = p.origin_axis(axis);
            let inv = p.inv_dir_axis(axis);
            for l in 0..W {
                if p.active() & (1 << l) == 0 {
                    continue;
                }
                valid &= inv[l].is_finite() && o[l].is_finite();
                o_lo[axis] = o_lo[axis].min(o[l]);
                o_hi[axis] = o_hi[axis].max(o[l]);
                inv_lo[axis] = inv_lo[axis].min(inv[l]);
                inv_hi[axis] = inv_hi[axis].max(inv[l]);
            }
        }
        PacketFrustum {
            o_lo,
            o_hi,
            inv_lo,
            inv_hi,
            valid,
        }
    }

    /// Whether the interval bounds are usable for fast-path decisions.
    #[inline(always)]
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Conservative bounds on `pos - origin[axis]` over every active
    /// lane: `(lo, hi)` with `lo <= fl(pos - o_l) <= hi` for each lane
    /// `l` (monotonicity of rounded subtraction). The sign of `diff` is
    /// exact — `fl(pos - o) > 0 ⟺ o < pos` — so `lo > 0` proves every
    /// lane origin is strictly below the plane and `hi < 0` strictly
    /// above.
    #[inline(always)]
    pub fn diff_bounds(&self, axis: usize, pos: f32) -> (f32, f32) {
        (pos - self.o_hi[axis], pos - self.o_lo[axis])
    }

    /// Conservative bounds on the split-plane parameter
    /// `fl(fl(pos - o_l) * inv_l)` over every active lane: the min/max
    /// of the four rounded corner products of the `diff` and `inv_dir`
    /// intervals. Only meaningful when [`valid`](PacketFrustum::valid).
    #[inline(always)]
    pub fn t_plane_bounds(&self, axis: usize, pos: f32) -> (f32, f32) {
        let (d_lo, d_hi) = self.diff_bounds(axis, pos);
        let (i_lo, i_hi) = (self.inv_lo[axis], self.inv_hi[axis]);
        let a = d_lo * i_lo;
        let b = d_lo * i_hi;
        let c = d_hi * i_lo;
        let d = d_hi * i_hi;
        (a.min(b).min(c.min(d)), a.max(b).max(c.max(d)))
    }
}

impl Aabb {
    /// `W`-wide slab test: clips each lane's ray against the box over
    /// `[t_min, packet t_max]`, returning per-lane `(t_enter, t_exit)`
    /// and the mask of lanes that overlap the box. Per lane this is
    /// bit-identical to [`Aabb::intersect_ray`] (including the
    /// NaN-skipping of flat-box faces). Lanes outside the packet's
    /// active mask are still computed but masked out of the result.
    #[inline]
    pub fn intersect_ray_packet<const W: usize>(
        &self,
        p: &RayPacket<W>,
        t_min: f32,
    ) -> ([f32; W], [f32; W], u32) {
        let min = [self.min.x, self.min.y, self.min.z];
        let max = [self.max.x, self.max.y, self.max.z];
        let mut t0 = splat(t_min);
        let mut t1 = p.t_maxes();
        for axis in 0..3 {
            let o = *p.origin_axis(axis);
            let inv = *p.inv_dir_axis(axis);
            let near = mul(sub(splat(min[axis]), o), inv);
            let far = mul(sub(splat(max[axis]), o), inv);
            // The scalar swap-if-greater, as selects (`near > far` is
            // false on NaN, exactly like the scalar branch).
            let lo: [f32; W] =
                std::array::from_fn(|l| if near[l] > far[l] { far[l] } else { near[l] });
            let hi: [f32; W] =
                std::array::from_fn(|l| if near[l] > far[l] { near[l] } else { far[l] });
            // Same skip as the scalar slab test: a NaN on *either* side
            // (origin exactly on a face, zero direction) leaves the
            // lane's whole interval untouched — NaN can land on one side
            // only, with the other at ±inf. `max`/`min` are the scalar
            // `f32::max`/`f32::min` calls, so updated lanes carry the
            // scalar result to the bit.
            let skip: [bool; W] = std::array::from_fn(|l| lo[l].is_nan() || hi[l].is_nan());
            t0 = std::array::from_fn(|l| if skip[l] { t0[l] } else { t0[l].max(lo[l]) });
            t1 = std::array::from_fn(|l| if skip[l] { t1[l] } else { t1[l].min(hi[l]) });
        }
        // The scalar test early-returns as soon as t0 > t1; the interval
        // updates are monotone, so checking once at the end yields the
        // same verdict and the same final interval for hitting lanes.
        let mask = mask_of::<W>(std::array::from_fn(|l| t0[l] <= t1[l]));
        (t0, t1, mask & p.active())
    }
}

impl Triangle {
    /// `W`-wide Möller–Trumbore: intersects this triangle with every
    /// lane of the packet, accepting hits with `t` in the open interval
    /// `(t_min, t_max[lane])`. Only lanes in `lanes` (intersected with
    /// the packet's active mask) can appear in the result mask.
    ///
    /// Per lane this is bit-identical to [`Triangle::intersect`]: the
    /// same straight-line arithmetic, with the scalar early-out branches
    /// folded into reject flags of identical comparison polarity (so a
    /// NaN falls through exactly the same way).
    ///
    /// `inline(always)`: this runs once per (leaf, triangle) — the
    /// hottest loop of a packet render — and an out-of-line call would
    /// spill the packet SoA registers and return the hit through memory.
    #[inline(always)]
    pub fn intersect_packet<const W: usize>(
        &self,
        p: &RayPacket<W>,
        t_min: f32,
        t_max: &[f32; W],
        lanes: u32,
    ) -> PacketHit<W> {
        let e1x = splat(self.b.x - self.a.x);
        let e1y = splat(self.b.y - self.a.y);
        let e1z = splat(self.b.z - self.a.z);
        let e2x = splat(self.c.x - self.a.x);
        let e2y = splat(self.c.y - self.a.y);
        let e2z = splat(self.c.z - self.a.z);
        let (ox, oy, oz) = (*p.origin_axis(0), *p.origin_axis(1), *p.origin_axis(2));
        let (dx, dy, dz) = (*p.dir_axis(0), *p.dir_axis(1), *p.dir_axis(2));

        // pvec = dir × e2 (same component formulas as Vec3::cross).
        let pvx = mul_sub(dy, e2z, dz, e2y);
        let pvy = mul_sub(dz, e2x, dx, e2z);
        let pvz = mul_sub(dx, e2y, dy, e2x);
        // det = e1 · pvec (same summation order as Vec3::dot).
        let det = dot3(e1x, e1y, e1z, pvx, pvy, pvz);
        // tvec = origin - a.
        let tvx = sub(ox, splat(self.a.x));
        let tvy = sub(oy, splat(self.a.y));
        let tvz = sub(oz, splat(self.a.z));
        let u_det = dot3(tvx, tvy, tvz, pvx, pvy, pvz);
        // The scalar test's `det` cut-off and pre-division `u` window,
        // lanewise; a packet with no lane left returns before dividing.
        let u_out = mul(
            sub(u_det, mul(splat(U_LO), det)),
            sub(u_det, mul(splat(U_HI), det)),
        );
        let live = !mask_of::<W>(std::array::from_fn(|l| det[l].abs() < 1e-12))
            & !mask_of::<W>(std::array::from_fn(|l| u_out[l] > 0.0))
            & lanes
            & p.active();
        if live == 0 {
            return PacketHit {
                t: u_det,
                u: u_det,
                v: u_det,
                mask: 0,
            };
        }
        let inv_det = div(splat(1.0), det);
        let u = mul(u_det, inv_det);
        // qvec = tvec × e1.
        let qvx = mul_sub(tvy, e1z, tvz, e1y);
        let qvy = mul_sub(tvz, e1x, tvx, e1z);
        let qvz = mul_sub(tvx, e1y, tvy, e1x);
        let v = mul(dot3(dx, dy, dz, qvx, qvy, qvz), inv_det);
        let t = mul(dot3(e2x, e2y, e2z, qvx, qvy, qvz), inv_det);
        // One *single-compare* bitmask per scalar early-out, combined as
        // `u32` masks. This shape matters: each `mask_of` of one lane
        // compare lowers to a packed compare + movemask, whereas one
        // fused multi-condition predicate decays into per-lane scalar
        // compare/`set*` chains. Comparison polarity matches the scalar
        // early-outs exactly so NaNs fall through the same way:
        // `live`'s negated compares accept a NaN det or `u_det` (scalar's
        // reject branches do not fire), the `u` window is `contains`'s
        // `-EPS <= u && u <= 1 + EPS` (NaN u rejects), and the negated
        // `v`/`t` rejects accept NaN like the scalar `||` branches.
        //
        // `t <= t_min` has a runtime scalar RHS, which lowers to scalar
        // `ucomiss`; it is rephrased as `t - t_min <= 0` (IEEE
        // subtraction is sign-exact: a nonzero difference of two floats
        // is at least one ulp and never rounds to zero, equality gives
        // `+0`, and NaN stays NaN — so the verdict is bit-identical).
        // `t >= t_max` keeps the direct form: its RHS is already a lane
        // array, and a difference would break when both sides are `+∞`
        // (`∞ - ∞ = NaN`).
        let uv = add(u, v);
        let dt_min = sub(t, splat(t_min));
        let mask = live
            & mask_of::<W>(std::array::from_fn(|l| -EPS <= u[l]))
            & mask_of::<W>(std::array::from_fn(|l| u[l] <= 1.0 + EPS))
            & !mask_of::<W>(std::array::from_fn(|l| v[l] < -EPS))
            & !mask_of::<W>(std::array::from_fn(|l| uv[l] > 1.0 + EPS))
            & !mask_of::<W>(std::array::from_fn(|l| dt_min[l] <= 0.0))
            & !mask_of::<W>(std::array::from_fn(|l| t[l] >= t_max[l]));
        PacketHit { t, u, v, mask }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;
    use proptest::prelude::*;

    fn arb_vec(range: std::ops::Range<f32>) -> impl Strategy<Value = Vec3> {
        (range.clone(), range.clone(), range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    /// Lane-for-lane bit identity of the `W`-wide slab test against the
    /// scalar slab test, for one set of rays.
    fn assert_slab_matches_scalar<const W: usize>(b: &Aabb, rays: [Ray; W], t_max: f32) {
        let p = RayPacket::new(rays, [t_max; W]);
        let (t0, t1, mask) = b.intersect_ray_packet(&p, 0.0);
        for (l, ray) in rays.iter().enumerate() {
            let scalar = b.intersect_ray(ray, 0.0, t_max);
            assert_eq!(mask & (1 << l) != 0, scalar.is_some(), "lane {l} verdict");
            if let Some((s0, s1)) = scalar {
                assert_eq!(t0[l].to_bits(), s0.to_bits(), "lane {l} t0");
                assert_eq!(t1[l].to_bits(), s1.to_bits(), "lane {l} t1");
            }
        }
    }

    /// Lane-for-lane bit identity of `W`-wide Möller–Trumbore against
    /// the scalar intersector, for one set of rays.
    fn assert_mt_matches_scalar<const W: usize>(tri: &Triangle, rays: [Ray; W], t_max: f32) {
        let p = RayPacket::new(rays, [t_max; W]);
        let h = tri.intersect_packet(&p, 0.0, &[t_max; W], RayPacket::<W>::ALL);
        for (l, ray) in rays.iter().enumerate() {
            let scalar = tri.intersect(ray, 0.0, t_max);
            assert_eq!(h.mask & (1 << l) != 0, scalar.is_some(), "lane {l} verdict");
            if let Some(s) = scalar {
                assert_eq!(h.t[l].to_bits(), s.t.to_bits(), "lane {l} t");
                assert_eq!(h.u[l].to_bits(), s.u.to_bits(), "lane {l} u");
                assert_eq!(h.v[l].to_bits(), s.v.to_bits(), "lane {l} v");
                assert_eq!(h.lane_hit(l).prim, usize::MAX);
            }
        }
    }

    /// The frustum bounds really bound every active lane's `diff` and
    /// `t_plane` for one packet and plane.
    fn assert_frustum_conservative<const W: usize>(rays: [Ray; W], axis: usize, pos: f32) {
        let p = RayPacket::new(rays, [f32::INFINITY; W]);
        let f = p.frustum();
        if !f.valid() {
            return;
        }
        let (d_lo, d_hi) = f.diff_bounds(axis, pos);
        let (tp_lo, tp_hi) = f.t_plane_bounds(axis, pos);
        for l in 0..W {
            let diff = pos - p.origin_axis(axis)[l];
            let t_plane = diff * p.inv_dir_axis(axis)[l];
            assert!(
                d_lo <= diff && diff <= d_hi,
                "lane {l} diff {diff} outside [{d_lo}, {d_hi}]"
            );
            assert!(
                tp_lo <= t_plane && t_plane <= tp_hi,
                "lane {l} t_plane {t_plane} outside [{tp_lo}, {tp_hi}]"
            );
        }
    }

    fn spread_rays<const W: usize>(seed: u32) -> [Ray; W] {
        std::array::from_fn(|l| {
            let s = (seed.wrapping_mul(0x9E37_79B9).wrapping_add(l as u32)) as f32;
            let jitter = (s % 17.0) * 0.013;
            Ray::new(
                Vec3::new(0.1 + jitter, 0.2 - jitter, -1.0 - 0.01 * l as f32),
                Vec3::new(0.1 * l as f32 - 0.2, jitter, 1.0),
            )
        })
    }

    #[test]
    fn packet_layout_round_trips() {
        let rays = [
            Ray::new(Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.0, 0.0, 1.0)),
            Ray::new(Vec3::new(4.0, 5.0, 6.0), Vec3::new(0.0, 1.0, 0.0)),
            Ray::new(Vec3::new(7.0, 8.0, 9.0), Vec3::new(1.0, 0.0, 0.0)),
            Ray::new(Vec3::new(-1.0, -2.0, -3.0), Vec3::new(0.5, 0.5, 0.5)),
        ];
        let p = RayPacket::new(rays, [f32::INFINITY; 4]);
        assert_eq!(p.active(), RayPacket::<4>::ALL);
        for (l, ray) in rays.iter().enumerate() {
            assert_eq!(p.origin_axis(0)[l], ray.origin.x);
            assert_eq!(p.origin_axis(2)[l], ray.origin.z);
            assert_eq!(p.dir_axis(1)[l], ray.dir.y);
            assert_eq!(p.inv_dir_axis(0)[l].to_bits(), ray.inv_dir.x.to_bits());
            assert_eq!(p.ray(l).origin, ray.origin);
        }
    }

    #[test]
    fn all_mask_matches_width() {
        assert_eq!(RayPacket::<4>::ALL, 0b1111);
        assert_eq!(RayPacket::<8>::ALL, 0xFF);
        assert_eq!(RayPacket::<16>::ALL, 0xFFFF);
    }

    #[test]
    fn mask_is_clamped_to_width() {
        let r = Ray::new(Vec3::ZERO, Vec3::Z);
        let p = RayPacket::<4>::with_mask([r; 4], [1.0; 4], 0xFF);
        assert_eq!(p.active(), RayPacket::<4>::ALL);
        let p = RayPacket::<4>::with_mask([r; 4], [1.0; 4], 0b0101);
        assert_eq!(p.active(), 0b0101);
        let p = RayPacket::<8>::with_mask([r; 8], [1.0; 8], 0xFFFF_FFFF);
        assert_eq!(p.active(), 0xFF);
        let p = RayPacket::<16>::with_mask([r; 16], [1.0; 16], 0x5_AAAA);
        assert_eq!(p.active(), 0xAAAA);
    }

    #[test]
    fn common_origin_detected_at_every_width() {
        let o = Vec3::new(0.5, -0.25, 3.0);
        let shared: [Ray; 8] =
            std::array::from_fn(|l| Ray::new(o, Vec3::new(0.1 * l as f32 - 0.3, 0.2, 1.0)));
        assert!(RayPacket::new(shared, [1.0; 8]).common_origin());
        let mut scattered = shared;
        scattered[5] = Ray::new(Vec3::new(0.5, -0.25, 3.0000002), shared[5].dir);
        assert!(!RayPacket::new(scattered, [1.0; 8]).common_origin());
    }

    #[test]
    fn slab_handles_axis_parallel_rays_like_scalar() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        // Lane 0 inside the slab (parallel), lane 1 outside (parallel),
        // lanes 2/3 plain hits/misses.
        let rays = [
            Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::new(0.0, 0.0, 1.0)),
            Ray::new(Vec3::new(5.0, 0.5, -1.0), Vec3::new(0.0, 0.0, 1.0)),
            Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z),
            Ray::new(Vec3::new(0.5, 0.5, -1.0), -Vec3::Z),
        ];
        assert_slab_matches_scalar(&b, rays, f32::INFINITY);
    }

    #[test]
    fn inactive_lanes_never_hit() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let hit = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        let p = RayPacket::<4>::with_mask([hit; 4], [f32::INFINITY; 4], 0b0010);
        let (_, _, mask) = b.intersect_ray_packet(&p, 0.0);
        assert_eq!(mask, 0b0010);
        let tri = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y);
        let shifted = Ray::new(Vec3::new(0.25, 0.25, -1.0), Vec3::Z);
        let p = RayPacket::<4>::with_mask([shifted; 4], [f32::INFINITY; 4], 0b1000);
        let h = tri.intersect_packet(&p, 0.0, &[f32::INFINITY; 4], RayPacket::<4>::ALL);
        assert_eq!(h.mask, 0b1000);
        let p = RayPacket::<16>::with_mask([shifted; 16], [f32::INFINITY; 16], 0x8001);
        let h = tri.intersect_packet(&p, 0.0, &[f32::INFINITY; 16], RayPacket::<16>::ALL);
        assert_eq!(h.mask, 0x8001);
    }

    #[test]
    fn wide_kernels_match_scalar_on_spread_rays() {
        let b = Aabb::new(Vec3::new(-0.5, -0.5, 0.0), Vec3::new(1.5, 1.5, 2.0));
        let tri = Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y);
        for seed in 0..8 {
            assert_slab_matches_scalar(&b, spread_rays::<8>(seed), 100.0);
            assert_slab_matches_scalar(&b, spread_rays::<16>(seed), 100.0);
            assert_mt_matches_scalar(&tri, spread_rays::<8>(seed), 100.0);
            assert_mt_matches_scalar(&tri, spread_rays::<16>(seed), 100.0);
        }
    }

    #[test]
    fn frustum_rejects_non_finite_inv_dir() {
        let ok = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::new(0.3, 0.4, 1.0));
        let axis_parallel = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::Z);
        assert!(RayPacket::new([ok; 4], [1.0; 4]).frustum().valid());
        assert!(!RayPacket::new([ok, ok, axis_parallel, ok], [1.0; 4])
            .frustum()
            .valid());
        // …unless the offending lane is inactive.
        let p = RayPacket::<4>::with_mask([ok, ok, axis_parallel, ok], [1.0; 4], 0b1011);
        assert!(p.frustum().valid());
        assert!(!RayPacket::<4>::with_mask([ok; 4], [1.0; 4], 0)
            .frustum()
            .valid());
    }

    proptest! {
        /// Lane-for-lane bit identity of the wide slab test with the
        /// scalar slab test, on random boxes and rays, at W = 4/8/16.
        #[test]
        fn slab_matches_scalar_bitwise(
            bmin in arb_vec(-10.0..10.0),
            ext in arb_vec(0.0..10.0),
            origins in prop::array::uniform16(arb_vec(-20.0..20.0)),
            dirs in prop::array::uniform16(arb_vec(-1.0..1.0)),
            t_max in 1.0f32..1e6,
        ) {
            let b = Aabb::new(bmin, bmin + ext);
            let rays: [Ray; 16] =
                std::array::from_fn(|l| Ray::new(origins[l], dirs[l]));
            assert_slab_matches_scalar::<4>(&b, rays[..4].try_into().unwrap(), t_max);
            assert_slab_matches_scalar::<8>(&b, rays[..8].try_into().unwrap(), t_max);
            assert_slab_matches_scalar::<16>(&b, rays, t_max);
        }

        /// Lane-for-lane bit identity of wide Möller–Trumbore with the
        /// scalar intersector, on random triangles and rays, at
        /// W = 4/8/16.
        #[test]
        fn moller_trumbore_matches_scalar_bitwise(
            a in arb_vec(-5.0..5.0),
            b in arb_vec(-5.0..5.0),
            c in arb_vec(-5.0..5.0),
            origins in prop::array::uniform16(arb_vec(-10.0..10.0)),
            dirs in prop::array::uniform16(arb_vec(-1.0..1.0)),
            t_max in 0.5f32..100.0,
        ) {
            let tri = Triangle::new(a, b, c);
            let rays: [Ray; 16] =
                std::array::from_fn(|l| Ray::new(origins[l], dirs[l]));
            assert_mt_matches_scalar::<4>(&tri, rays[..4].try_into().unwrap(), t_max);
            assert_mt_matches_scalar::<8>(&tri, rays[..8].try_into().unwrap(), t_max);
            assert_mt_matches_scalar::<16>(&tri, rays, t_max);
        }

        /// The interval frustum's `diff` and `t_plane` bounds contain
        /// every lane's scalar value for random packets and planes.
        #[test]
        fn frustum_bounds_are_conservative(
            origins in prop::array::uniform8(arb_vec(-10.0..10.0)),
            dirs in prop::array::uniform8(arb_vec(-1.0..1.0)),
            axis in 0usize..3,
            pos in -20.0f32..20.0,
        ) {
            let rays: [Ray; 8] =
                std::array::from_fn(|l| Ray::new(origins[l], dirs[l]));
            assert_frustum_conservative(rays, axis, pos);
            assert_frustum_conservative::<4>(rays[..4].try_into().unwrap(), axis, pos);
        }
    }
}
