//! The Surface Area Heuristic cost model (paper §III-B).

use kdtune_geometry::{Aabb, Axis};

/// SAH cost parameters.
///
/// The heuristic estimates the expected cost of shooting a ray through a
/// node split by plane `h` (paper eq. 1):
///
/// ```text
/// SAH(h, b) = CT + p(l,b)·Nl·CI + p(r,b)·Nr·CI + (Nl + Nr − Nb)·CB
/// ```
///
/// where `p(x, b) = A(x)/A(b)` is the surface-area ratio, `Nl`/`Nr` count
/// primitives assigned to each half (straddlers count twice) and `Nb` the
/// primitives in the node. `CT` is fixed to 10 by convention (§IV-A): only
/// the *ratios* of the three costs matter, so the tuner explores `CI` and
/// `CB` against a constant `CT`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SahParams {
    /// Cost of traversing an inner node. Fixed to 10 in the paper.
    pub ct: f32,
    /// Cost of intersecting a triangle (tunable, paper range [3, 101]).
    pub ci: f32,
    /// Cost of duplicating a primitive that straddles the split plane
    /// (tunable, paper range [0, 60]).
    pub cb: f32,
}

/// The paper fixes the traversal cost to an arbitrary 10 (§IV-A).
pub const FIXED_CT: f32 = 10.0;

impl Default for SahParams {
    /// The paper's base configuration: `CI = 17`, `CB = 10` (§V-C).
    fn default() -> Self {
        SahParams {
            ct: FIXED_CT,
            ci: 17.0,
            cb: 10.0,
        }
    }
}

impl SahParams {
    /// Creates SAH parameters with the conventional fixed `CT = 10`.
    pub fn new(ci: f32, cb: f32) -> SahParams {
        SahParams {
            ct: FIXED_CT,
            ci,
            cb,
        }
    }

    /// Cost of making a leaf containing `n` primitives.
    #[inline]
    pub fn leaf_cost(&self, n: usize) -> f32 {
        n as f32 * self.ci
    }

    /// Full SAH cost (eq. 1) of splitting `bounds` at `axis = pos` with the
    /// given left/right/total primitive counts.
    ///
    /// Returns `f32::INFINITY` for degenerate parents (zero surface area),
    /// which makes such splits lose against any leaf.
    #[inline]
    pub fn split_cost(
        &self,
        bounds: &Aabb,
        axis: Axis,
        pos: f32,
        n_left: usize,
        n_right: usize,
        n_total: usize,
    ) -> f32 {
        let area = bounds.surface_area();
        if area <= 0.0 {
            return f32::INFINITY;
        }
        let (l, r) = bounds.split(axis, pos);
        let p_l = l.surface_area() / area;
        let p_r = r.surface_area() / area;
        self.cost_from_ratios(p_l, p_r, n_left, n_right, n_total)
    }

    /// Eq. 1 from the children's surface-area ratios `p_l` and `p_r`: the
    /// tail of [`SahParams::split_cost`], which the sweep also calls with
    /// ratios it works out from the node's extents.
    #[inline]
    pub(crate) fn cost_from_ratios(
        &self,
        p_l: f32,
        p_r: f32,
        n_left: usize,
        n_right: usize,
        n_total: usize,
    ) -> f32 {
        let duplicated = (n_left + n_right).saturating_sub(n_total);
        self.ct
            + p_l * n_left as f32 * self.ci
            + p_r * n_right as f32 * self.ci
            + duplicated as f32 * self.cb
    }

    /// Termination criterion (eq. 2): stop splitting when intersecting all
    /// primitives in the node is cheaper than the best split found.
    #[inline]
    pub fn should_stop(&self, n_total: usize, best_split_cost: f32) -> bool {
        self.leaf_cost(n_total) < best_split_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_geometry::Vec3;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn default_is_paper_base_configuration() {
        let p = SahParams::default();
        assert_eq!((p.ct, p.ci, p.cb), (10.0, 17.0, 10.0));
    }

    #[test]
    fn leaf_cost_is_linear() {
        let p = SahParams::new(5.0, 1.0);
        assert_eq!(p.leaf_cost(0), 0.0);
        assert_eq!(p.leaf_cost(10), 50.0);
    }

    #[test]
    fn balanced_split_of_separable_prims_beats_leaf() {
        // 10 prims on the left half, 10 on the right, none straddling:
        // splitting in the middle halves the expected intersection work.
        let p = SahParams::new(17.0, 10.0);
        let b = unit();
        let split = p.split_cost(&b, Axis::X, 0.5, 10, 10, 20);
        let leaf = p.leaf_cost(20);
        assert!(split < leaf, "split {split} should beat leaf {leaf}");
        assert!(!p.should_stop(20, split));
    }

    #[test]
    fn tiny_nodes_prefer_leaves() {
        // One primitive: any split pays CT for nothing.
        let p = SahParams::new(17.0, 10.0);
        let b = unit();
        let split = p.split_cost(&b, Axis::X, 0.5, 1, 0, 1);
        assert!(p.should_stop(1, split));
    }

    #[test]
    fn duplication_cost_penalizes_straddlers() {
        let p_free = SahParams::new(17.0, 0.0);
        let p_costly = SahParams::new(17.0, 60.0);
        let b = unit();
        // 4 of 12 prims straddle: n_left + n_right = 16.
        let c_free = p_free.split_cost(&b, Axis::X, 0.5, 8, 8, 12);
        let c_costly = p_costly.split_cost(&b, Axis::X, 0.5, 8, 8, 12);
        assert_eq!(c_costly - c_free, 4.0 * 60.0);
    }

    #[test]
    fn split_cost_uses_surface_area_ratio() {
        let p = SahParams::new(10.0, 0.0);
        let b = unit();
        // All prims on the left of an off-center plane: the left box has a
        // smaller area ratio when the plane is near the minimum.
        let near = p.split_cost(&b, Axis::X, 0.1, 10, 0, 10);
        let far = p.split_cost(&b, Axis::X, 0.9, 10, 0, 10);
        assert!(near < far, "cutting empty space off should be cheaper");
    }

    #[test]
    fn degenerate_parent_yields_infinite_cost() {
        let p = SahParams::default();
        let flat = Aabb::new(Vec3::ZERO, Vec3::ZERO);
        assert_eq!(p.split_cost(&flat, Axis::X, 0.0, 1, 1, 2), f32::INFINITY);
    }

    #[test]
    fn probabilities_sum_via_shared_face() {
        // For a unit cube split in half: each half has area 2·(0.5 + 0.5 +
        // 0.25) = 4, parent 6, so p_l = p_r = 2/3 (they share a face).
        let p = SahParams {
            ct: 0.0,
            ci: 1.0,
            cb: 0.0,
        };
        let c = p.split_cost(&unit(), Axis::X, 0.5, 3, 3, 6);
        assert!((c - (2.0 / 3.0) * 6.0).abs() < 1e-5);
    }
}
