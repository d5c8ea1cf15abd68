//! Split-plane search and primitive classification.
//!
//! The sweep here is the event-based search of Wald & Havran: for each axis
//! the candidate planes are the primitive bound extrema, visited in sorted
//! order while incrementally maintaining the left/right counts. The
//! builders sort the events once per build (and per deferred node when
//! lazy expansion starts) and partition them stably down the tree, so
//! nothing below a root sorts: O(n log n) per build. [`best_split_sweep`]
//! and [`best_split_sweep_idx`] sort the one node they are given.

use crate::scan::partition_in_place;
use crate::SahParams;
use kdtune_geometry::{Aabb, Axis};

/// A candidate split plane with its SAH cost and resulting child counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitPlane {
    /// Axis the plane is perpendicular to.
    pub axis: Axis,
    /// Plane position along `axis`.
    pub pos: f32,
    /// SAH cost of this split (paper eq. 1).
    pub cost: f32,
    /// Number of primitives assigned to the left child (straddlers count
    /// on both sides).
    pub n_left: usize,
    /// Number of primitives assigned to the right child.
    pub n_right: usize,
}

/// Side assignment of a primitive relative to a split plane.
///
/// The rule, applied identically by the sweep and by [`classify`]:
/// a primitive goes **left** when `min < pos`, **right** when `max > pos`,
/// and a primitive lying flat *on* the plane (`min == max == pos`) goes
/// left only. Straddlers satisfy both and are duplicated.
#[inline]
pub(crate) fn sides(b: &Aabb, axis: Axis, pos: f32) -> (bool, bool) {
    let (lo, hi) = (b.min[axis], b.max[axis]);
    let left = lo < pos || (lo == pos && hi == pos);
    let right = hi > pos;
    (left, right)
}

/// One split-candidate event packed so that a plain integer sort orders
/// events by position (as `f32::total_cmp`), then kind, then primitive:
/// bits 63–32 hold an order-preserving key of the position, bits 31–30 the
/// kind — End 0 < Planar 1 < Start 2, so at equal positions the counts
/// match [`sides`] — and bits 29–0 the primitive id, which the packed tree
/// caps at [`crate::MAX_NODE_PAYLOAD`] anyway.
pub(crate) type Event = u64;

/// A node's three per-axis event lists, X then Y then Z, back to back in
/// one buffer: list `a` ends at `ends[a]`.
#[derive(Default)]
pub(crate) struct AxisEvents {
    /// The three lists.
    pub events: Vec<Event>,
    /// Where each list ends in `events`.
    pub ends: [usize; 3],
}

const END: u64 = 0;
const PLANAR: u64 = 1;
const START: u64 = 2;
const PRIM_MASK: u64 = (1 << 30) - 1;
/// [`pos_key`] of −0.0.
const NEG_ZERO_KEY: u64 = 0x7FFF_FFFF;

/// Order-preserving integer key of a position: flipping every bit of a
/// negative float and the sign bit of any other orders keys like
/// `f32::total_cmp` (−NaN < −inf < … < −0.0 < +0.0 < … < +inf < NaN).
#[inline]
fn pos_key(pos: f32) -> u64 {
    let bits = pos.to_bits();
    u64::from(bits ^ ((bits as i32 >> 31) as u32 | 0x8000_0000))
}

/// The position an event sits at, bit for bit (inverse of [`pos_key`]).
#[inline]
fn event_pos(e: Event) -> f32 {
    let key = (e >> 32) as u32;
    f32::from_bits(key ^ (!((key as i32 >> 31) as u32) | 0x8000_0000))
}

/// The primitive an event belongs to.
#[inline]
pub(crate) fn event_prim(e: Event) -> u32 {
    (e & PRIM_MASK) as u32
}

impl AxisEvents {
    /// Events of `prims` on all three axes, each list sorted: a Start and
    /// an End per primitive, or one Planar event for a primitive flat on
    /// that axis. With `fork` the three sorts run as rayon tasks.
    pub(crate) fn sorted(
        bounds: &[Aabb],
        prims: impl ExactSizeIterator<Item = u32> + Clone,
        fork: bool,
    ) -> AxisEvents {
        let mut events = Vec::with_capacity(6 * prims.len());
        let mut ends = [0; 3];
        for axis in Axis::ALL {
            for p in prims.clone() {
                debug_assert!(u64::from(p) <= PRIM_MASK);
                let b = &bounds[p as usize];
                let (lo, hi) = (b.min[axis], b.max[axis]);
                let prim = u64::from(p);
                if lo == hi {
                    events.push(pos_key(lo) << 32 | PLANAR << 30 | prim);
                } else {
                    events.push(pos_key(lo) << 32 | START << 30 | prim);
                    events.push(pos_key(hi) << 32 | END << 30 | prim);
                }
            }
            ends[axis as usize] = events.len();
        }
        let (x, rest) = events.split_at_mut(ends[0]);
        let (y, z) = rest.split_at_mut(ends[1] - ends[0]);
        if fork {
            rayon::join(
                || rayon::join(|| x.sort_unstable(), || y.sort_unstable()),
                || z.sort_unstable(),
            );
        } else {
            for list in [x, y, z] {
                list.sort_unstable();
            }
        }
        AxisEvents { events, ends }
    }

    /// The X, Y and Z lists.
    pub(crate) fn lists(&self) -> [&[Event]; 3] {
        let [x, y, _] = self.ends;
        let (xs, rest) = self.events.split_at(x);
        let (ys, zs) = rest.split_at(y - x);
        [xs, ys, zs]
    }
}

/// Sweeps one axis's sorted event list over a node of `n` primitives,
/// returning the best plane on that axis. A candidate groups the events
/// whose positions compare `==`: one key, or −0.0 then +0.0 (adjacent
/// keys), which make one plane at −0.0. A NaN groups only with its own
/// bit pattern, so it is passed over, never a candidate.
///
/// The node's area and the extents a split leaves alone are worked out
/// once, before the candidates: a child differs from the node only along
/// `axis`, so its area is [`Aabb::area_of_extent`] of the node's extents
/// with that one replaced, the very sum [`SahParams::split_cost`] takes.
/// A node of zero or non-finite area keeps `split_cost` per candidate.
pub(crate) fn sweep_events(
    events: &[Event],
    n: usize,
    node: &Aabb,
    sah: &SahParams,
    axis: Axis,
) -> Option<SplitPlane> {
    let area = node.surface_area();
    if !(area > 0.0 && area.is_finite()) {
        return sweep(events, n, node, axis, |pos, n_left, n_right| {
            sah.split_cost(node, axis, pos, n_left, n_right, n)
        });
    }
    let (lo, hi, extent) = (node.min[axis], node.max[axis], node.extent());
    sweep(events, n, node, axis, |pos, n_left, n_right| {
        // A candidate lies strictly inside the node, where `Aabb::split`
        // leaves `pos` unclamped.
        let (mut left, mut right) = (extent, extent);
        left[axis] = pos - lo;
        right[axis] = hi - pos;
        let p_l = Aabb::area_of_extent(left) / area;
        let p_r = Aabb::area_of_extent(right) / area;
        sah.cost_from_ratios(p_l, p_r, n_left, n_right, n)
    })
}

/// The candidate loop of [`sweep_events`], pricing each plane strictly
/// inside the node with `cost(pos, n_left, n_right)`.
#[inline(always)]
fn sweep(
    events: &[Event],
    n: usize,
    node: &Aabb,
    axis: Axis,
    cost: impl Fn(f32, usize, usize) -> f32,
) -> Option<SplitPlane> {
    let (node_lo, node_hi) = (node.min[axis], node.max[axis]);
    let mut best: Option<SplitPlane> = None;
    let mut n_left = 0usize;
    let mut n_right = n;
    let mut i = 0;
    while i < events.len() {
        let key = events[i] >> 32;
        let pos = event_pos(events[i]);
        // −0.0 runs on into +0.0, the next key.
        let also = key + u64::from(key == NEG_ZERO_KEY);
        let (mut ends, mut planars, mut starts) = (0usize, 0usize, 0usize);
        while let Some(&e) = events.get(i) {
            if e >> 32 != key && e >> 32 != also {
                break;
            }
            let kind = (e >> 30) & 3;
            ends += usize::from(kind == END);
            planars += usize::from(kind == PLANAR);
            starts += usize::from(kind == START);
            i += 1;
        }
        n_right -= ends + planars;
        if pos > node_lo && pos < node_hi {
            let nl = n_left + planars;
            let cost = cost(pos, nl, n_right);
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(SplitPlane {
                    axis,
                    pos,
                    cost,
                    n_left: nl,
                    n_right,
                });
            }
        }
        n_left += starts + planars;
    }
    best
}

/// Finds the minimum-SAH-cost plane over a node's three presorted event
/// lists (`n` primitives). Ties go to the lower axis. With `fork` the
/// three sweeps run as rayon tasks; the plane is the same either way.
pub(crate) fn best_split_events(
    events: &AxisEvents,
    n: usize,
    node: &Aabb,
    sah: &SahParams,
    fork: bool,
) -> Option<SplitPlane> {
    let lists = events.lists();
    let sweep = |axis: Axis| sweep_events(lists[axis as usize], n, node, sah, axis);
    let per_axis = if fork {
        let ((x, y), z) = rayon::join(
            || rayon::join(|| sweep(Axis::X), || sweep(Axis::Y)),
            || sweep(Axis::Z),
        );
        [x, y, z]
    } else {
        Axis::ALL.map(sweep)
    };
    per_axis
        .into_iter()
        .flatten()
        .reduce(|best, p| if p.cost < best.cost { p } else { best })
}

/// Finds the minimum-SAH-cost split plane over all three axes with the
/// O(n log n) event sweep. Returns `None` when no candidate plane lies
/// strictly inside the node (e.g. all primitives span the whole node).
pub fn best_split_sweep(bounds: &[Aabb], node: &Aabb, sah: &SahParams) -> Option<SplitPlane> {
    let events = AxisEvents::sorted(bounds, 0..bounds.len() as u32, false);
    best_split_events(&events, bounds.len(), node, sah, false)
}

/// Indexed variant of [`best_split_sweep`]: searches only the primitives in
/// `indices`.
pub fn best_split_sweep_idx(
    bounds: &[Aabb],
    indices: &[u32],
    node: &Aabb,
    sah: &SahParams,
) -> Option<SplitPlane> {
    let events = AxisEvents::sorted(bounds, indices.iter().copied(), false);
    best_split_events(&events, indices.len(), node, sah, false)
}

/// O(n²) reference implementation of the split search: evaluates the SAH at
/// every candidate plane by recounting from scratch. Used by tests to
/// validate [`best_split_sweep`]; never called on hot paths.
pub fn best_split_naive(bounds: &[Aabb], node: &Aabb, sah: &SahParams) -> Option<SplitPlane> {
    let n = bounds.len();
    let mut best: Option<SplitPlane> = None;
    for axis in Axis::ALL {
        let mut candidates: Vec<f32> = bounds
            .iter()
            .flat_map(|b| [b.min[axis], b.max[axis]])
            .filter(|&p| p > node.min[axis] && p < node.max[axis])
            .collect();
        candidates.sort_unstable_by(|a, b| a.total_cmp(b));
        candidates.dedup();
        for pos in candidates {
            let mut n_left = 0;
            let mut n_right = 0;
            for b in bounds {
                let (l, r) = sides(b, axis, pos);
                n_left += l as usize;
                n_right += r as usize;
            }
            let cost = sah.split_cost(node, axis, pos, n_left, n_right, n);
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(SplitPlane {
                    axis,
                    pos,
                    cost,
                    n_left,
                    n_right,
                });
            }
        }
    }
    best
}

/// Partitions primitive indices by a split plane. Straddlers appear in both
/// outputs; the assignment rule matches the sweep exactly, so the returned
/// list lengths equal the plane's `n_left`/`n_right`.
pub fn classify(bounds: &[Aabb], indices: &[u32], axis: Axis, pos: f32) -> (Vec<u32>, Vec<u32>) {
    let (mut left, mut right) = (indices.to_vec(), Vec::new());
    let side = |i: u32| sides(&bounds[i as usize], axis, pos);
    partition_in_place(
        &mut left,
        &mut [indices.len()],
        &mut right,
        indices.len(),
        side,
    );
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_geometry::Vec3;
    use proptest::prelude::*;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    fn slab(axis: Axis, lo: f32, hi: f32) -> Aabb {
        let mut b = unit();
        b.min[axis] = lo;
        b.max[axis] = hi;
        b
    }

    #[test]
    fn separable_prims_split_between_clusters() {
        // Two clusters along x: [0.0, 0.2] and [0.8, 1.0].
        let bounds = vec![
            slab(Axis::X, 0.0, 0.2),
            slab(Axis::X, 0.05, 0.18),
            slab(Axis::X, 0.8, 1.0),
            slab(Axis::X, 0.85, 0.95),
        ];
        let plane = best_split_sweep(&bounds, &unit(), &SahParams::default()).unwrap();
        assert_eq!(plane.axis, Axis::X);
        assert!(plane.pos >= 0.2 && plane.pos <= 0.8, "pos = {}", plane.pos);
        assert_eq!(plane.n_left, 2);
        assert_eq!(plane.n_right, 2);
    }

    #[test]
    fn no_candidates_when_all_prims_span_node() {
        let bounds = vec![unit(), unit()];
        assert!(best_split_sweep(&bounds, &unit(), &SahParams::default()).is_none());
        assert!(best_split_naive(&bounds, &unit(), &SahParams::default()).is_none());
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(best_split_sweep(&[], &unit(), &SahParams::default()).is_none());
    }

    #[test]
    fn straddler_counted_on_both_sides() {
        let bounds = vec![
            slab(Axis::X, 0.0, 0.3),
            slab(Axis::X, 0.2, 0.8), // straddles any plane in (0.3, 0.7)
            slab(Axis::X, 0.7, 1.0),
        ];
        let plane = best_split_sweep(&bounds, &unit(), &SahParams::new(17.0, 0.0)).unwrap();
        let (l, r) = classify(&bounds, &[0, 1, 2], plane.axis, plane.pos);
        assert_eq!(l.len(), plane.n_left);
        assert_eq!(r.len(), plane.n_right);
        assert!(l.len() + r.len() >= 3);
    }

    #[test]
    fn planar_prims_go_left() {
        let flat = slab(Axis::X, 0.5, 0.5);
        let (l, r) = sides(&flat, Axis::X, 0.5);
        assert!(l && !r);
        // And straddlers go both ways.
        let wide = slab(Axis::X, 0.2, 0.8);
        let (l, r) = sides(&wide, Axis::X, 0.5);
        assert!(l && r);
    }

    #[test]
    fn classification_matches_plane_counts_with_planars() {
        let bounds = vec![
            slab(Axis::X, 0.5, 0.5),
            slab(Axis::X, 0.0, 0.5),
            slab(Axis::X, 0.5, 1.0),
            slab(Axis::X, 0.1, 0.9),
        ];
        let idx: Vec<u32> = (0..4).collect();
        let plane = best_split_sweep(&bounds, &unit(), &SahParams::default()).unwrap();
        let (l, r) = classify(&bounds, &idx, plane.axis, plane.pos);
        assert_eq!(l.len(), plane.n_left, "plane {plane:?}");
        assert_eq!(r.len(), plane.n_right, "plane {plane:?}");
    }

    #[test]
    fn high_duplication_cost_avoids_straddling_planes() {
        // Prims overlap around x = 0.45; with CB = 0 a straddling split can
        // win, with a huge CB the search must pick the duplication-free
        // plane at x = 0.55.
        let bounds = vec![
            slab(Axis::X, 0.0, 0.45),
            slab(Axis::X, 0.4, 0.55),
            slab(Axis::X, 0.55, 1.0),
        ];
        let cheap = best_split_sweep(&bounds, &unit(), &SahParams::new(17.0, 0.0)).unwrap();
        let costly = best_split_sweep(&bounds, &unit(), &SahParams::new(17.0, 1000.0)).unwrap();
        let dup_cheap = cheap.n_left + cheap.n_right - 3;
        let dup_costly = costly.n_left + costly.n_right - 3;
        assert!(dup_costly <= dup_cheap);
        assert_eq!(dup_costly, 0);
    }

    #[test]
    fn event_keys_order_like_total_cmp_and_round_trip() {
        let mut positions = vec![
            -f32::NAN,
            f32::NEG_INFINITY,
            -1.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            2.0,
            f32::INFINITY,
            f32::NAN,
        ];
        assert_eq!(pos_key(-0.0), NEG_ZERO_KEY);
        assert_eq!(pos_key(0.0), NEG_ZERO_KEY + 1);
        let sorted = positions.clone();
        positions.reverse();
        let mut events: Vec<Event> = positions.iter().map(|&p| pos_key(p) << 32).collect();
        events.sort_unstable();
        let back: Vec<u32> = events.iter().map(|&e| event_pos(e).to_bits()).collect();
        assert_eq!(back, sorted.iter().map(|p| p.to_bits()).collect::<Vec<_>>());
        for (a, b) in sorted.iter().zip(&sorted[1..]) {
            assert_eq!(a.total_cmp(b), pos_key(*a).cmp(&pos_key(*b)), "{a} vs {b}");
        }
    }

    #[test]
    fn events_sort_by_position_then_kind_and_keep_their_primitive() {
        let bounds = vec![
            slab(Axis::X, 0.5, 0.5),
            slab(Axis::X, 0.2, 0.5),
            slab(Axis::X, 0.5, 0.9),
        ];
        let events = AxisEvents::sorted(&bounds, 0..3, false);
        let decoded: Vec<(f32, u64, u32)> = events.lists()[0]
            .iter()
            .map(|&e| (event_pos(e), (e >> 30) & 3, event_prim(e)))
            .collect();
        assert_eq!(
            decoded,
            vec![
                (0.2, START, 1),
                (0.5, END, 1),
                (0.5, PLANAR, 0),
                (0.5, START, 2),
                (0.9, END, 2)
            ]
        );
    }

    #[test]
    fn signed_zeros_make_one_candidate_plane() {
        // Bounds meeting at −0.0 and +0.0 and a flat primitive on each:
        // one plane at −0.0 whose counts agree with `classify`.
        let node = Aabb::new(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0));
        let bounds = vec![
            slab(Axis::X, -1.0, -0.0),
            slab(Axis::X, -0.0, -0.0),
            slab(Axis::X, 0.0, 0.0),
            slab(Axis::X, 0.0, 1.0),
        ];
        let events = AxisEvents::sorted(&bounds, 0..4, false);
        let x = events.lists()[0];
        let plane = sweep_events(x, 4, &node, &SahParams::default(), Axis::X).unwrap();
        assert_eq!(plane.pos.to_bits(), (-0.0f32).to_bits());
        let (l, r) = classify(&bounds, &[0, 1, 2, 3], Axis::X, plane.pos);
        assert_eq!((plane.n_left, plane.n_right), (l.len(), r.len()));
    }

    #[test]
    fn nan_positions_are_skipped_not_revisited() {
        let nan = Aabb::new(Vec3::new(f32::NAN, 0.0, 0.0), Vec3::new(f32::NAN, 1.0, 1.0));
        let bounds = vec![slab(Axis::X, 0.0, 0.3), nan, slab(Axis::X, 0.7, 1.0)];
        let plane = best_split_sweep(&bounds, &unit(), &SahParams::default()).unwrap();
        assert!(plane.pos.is_finite());
    }

    fn arb_bounds(n: usize) -> impl Strategy<Value = Vec<Aabb>> {
        proptest::collection::vec(
            (
                (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
                (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
            )
                .prop_map(|((ax, ay, az), (bx, by, bz))| {
                    let a = Vec3::new(ax, ay, az);
                    let b = Vec3::new(bx, by, bz);
                    Aabb::new(a.min(b), a.max(b))
                }),
            1..n,
        )
    }

    proptest! {
        /// The sweep finds the same minimum cost as the O(n²) reference.
        #[test]
        fn sweep_matches_naive(bounds in arb_bounds(24)) {
            let sah = SahParams::default();
            let node = unit();
            let s = best_split_sweep(&bounds, &node, &sah);
            let n = best_split_naive(&bounds, &node, &sah);
            match (s, n) {
                (None, None) => {}
                (Some(s), Some(n)) => {
                    prop_assert!((s.cost - n.cost).abs() <= 1e-3 * n.cost.max(1.0),
                        "sweep {s:?} vs naive {n:?}");
                }
                (s, n) => prop_assert!(false, "sweep {s:?} vs naive {n:?}"),
            }
        }

        /// Plane counts always agree with classify, and every primitive
        /// lands on at least one side.
        #[test]
        fn counts_agree_with_classification(bounds in arb_bounds(24)) {
            let sah = SahParams::default();
            let node = unit();
            if let Some(p) = best_split_sweep(&bounds, &node, &sah) {
                let idx: Vec<u32> = (0..bounds.len() as u32).collect();
                let (l, r) = classify(&bounds, &idx, p.axis, p.pos);
                prop_assert_eq!(l.len(), p.n_left);
                prop_assert_eq!(r.len(), p.n_right);
                prop_assert!(l.len() + r.len() >= bounds.len());
                // The plane strictly subdivides the node.
                prop_assert!(p.pos > node.min[p.axis] && p.pos < node.max[p.axis]);
            }
        }

        /// The three per-axis sweeps forked as tasks select exactly the
        /// sequential plane (bit-identical, including tie-breaks).
        #[test]
        fn forked_sweep_matches_sequential(bounds in arb_bounds(24)) {
            let sah = SahParams::default();
            let node = unit();
            let idx: Vec<u32> = (0..bounds.len() as u32).collect();
            let s = best_split_sweep_idx(&bounds, &idx, &node, &sah);
            let events = AxisEvents::sorted(&bounds, 0..bounds.len() as u32, true);
            let p = best_split_events(&events, bounds.len(), &node, &sah, true);
            prop_assert_eq!(s, p);
        }

        /// The sweep's hoisted costs are `split_cost`'s bits, on node
        /// boxes of every shape (here stretched along each axis).
        #[test]
        fn hoisted_sweep_costs_match_split_cost(
            bounds in arb_bounds(24),
            scale in (0.01f32..100.0, 0.01f32..100.0, 0.01f32..100.0),
        ) {
            let sah = SahParams::new(72.0, 12.0);
            let s = Vec3::new(scale.0, scale.1, scale.2);
            let stretch = |b: &Aabb| Aabb::new(b.min.hadamard(s), b.max.hadamard(s));
            let bounds: Vec<Aabb> = bounds.iter().map(stretch).collect();
            let node = stretch(&unit());
            let events = AxisEvents::sorted(&bounds, 0..bounds.len() as u32, false);
            let n = bounds.len();
            for (axis, list) in Axis::ALL.into_iter().zip(events.lists()) {
                if let Some(p) = sweep_events(list, n, &node, &sah, axis) {
                    let general = sah.split_cost(&node, axis, p.pos, p.n_left, p.n_right, n);
                    prop_assert_eq!(p.cost.to_bits(), general.to_bits(), "{:?}", p);
                }
            }
        }

        /// Lowering CB can only lower (or keep) the optimal cost.
        #[test]
        fn cost_monotone_in_cb(bounds in arb_bounds(16)) {
            let node = unit();
            let lo = best_split_sweep(&bounds, &node, &SahParams::new(17.0, 0.0));
            let hi = best_split_sweep(&bounds, &node, &SahParams::new(17.0, 60.0));
            if let (Some(lo), Some(hi)) = (lo, hi) {
                prop_assert!(lo.cost <= hi.cost + 1e-3);
            }
        }
    }
}
