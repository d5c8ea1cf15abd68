//! Masked `W`-wide nearest-hit packet traversal over the packed-node
//! tree. The renderer traces its primary rays through it; shadow rays
//! share no origin and are traced scalar (see DESIGN.md, packet
//! traversal).
//!
//! A [`RayPacket<W>`] (W = 4, 8 or 16) descends the tree as a group: one
//! node fetch and one split classification serve up to `W` rays, and
//! leaf triangles are tested with the `W`-wide Möller–Trumbore kernel.
//! The traversal keeps a **shared** fixed-size stack whose entries carry
//! a per-lane mask and per-lane parametric intervals, so each lane still
//! pops its deferred subtrees in exactly the order the scalar traversal
//! would.
//!
//! ## Bit-identity with the scalar path
//!
//! The packet result is guaranteed bit-identical to running
//! [`KdTree::intersect`] per lane. Three mechanisms make that hold:
//!
//! 1. **Order preservation.** Active lanes only traverse jointly while
//!    they agree on the near child (`below_first`). Per-lane split
//!    classification (near-only / far-only / both) uses the exact scalar
//!    predicates; far-only lanes ride along dormant inside the deferred
//!    entry (their next *processed* node is the far child — the same node
//!    the scalar code jumps to directly), so every lane's sequence of
//!    processed nodes matches its scalar sequence.
//! 2. **Exact kernels.** The wide slab and triangle kernels in
//!    `kdtune-geometry` replicate the scalar arithmetic per lane to the
//!    bit, including NaN comparison polarity.
//! 3. **Scalar resume.** When lanes disagree on `below_first`, or the
//!    active count drops below the divergence threshold `min_active`,
//!    the affected lanes are handed to [`intersect_core`] — a
//!    *continuation* of the scalar loop from the lane's current node,
//!    interval, best hit, and pending stack entries, which is scalar
//!    execution by construction.
//!
//! One scalar quirk needs care: the scalar nearest-hit pop discards
//! entries whose `t_enter` lies beyond the current best (`s0 > t_best`),
//! but a far-only lane *jumps* to the far child without popping, so no
//! such check applies to it. Shared-stack entries therefore track a
//! `skip_exempt` mask of far-only lanes that must bypass the pop check.
//!
//! ## Frustum fast path
//!
//! This traversal maintains **exact** per-lane `[t0, t1]` intervals, so
//! a node's interval equals the true ray∩box range and classic
//! "cull the subtree" frustum tests can never remove a node any lane
//! actually owes a visit. What an interval frustum *can* do is replace
//! the O(W) per-lane split classification with an O(1) whole-packet
//! one: [`PacketFrustum`] carries per-axis origin and inverse-direction
//! intervals over the active lanes, and each inner step
//! first asks it (a) do all origins sit strictly on one side of the
//! plane (`diff_bounds`), and (b) do the conservative `t_plane` bounds
//! prove every lane near-only or every lane far-only against running
//! scalar bounds `t0_lo <= min t0[l]`, `t1_hi >= max t1[l]` carried on
//! the stack? The bounds are computed once at the root and *inherited*
//! down the tree (child intervals are subsets of the parent's, so the
//! parent's bounds remain sound) — looser than a per-step min/max scan,
//! but an O(W) scan per step costs more than the classification saves.
//! When both hold, the packet descends (or jumps to the far
//! child) with no lane arithmetic at all — and because the fast path
//! fires only when the per-lane outcome is provably identical, the
//! visit sequence, intervals and results stay bit-identical to the
//! per-lane path, frustum on or off. Fired steps are counted in
//! [`PacketCounters::frustum_steps`].

// Lane-indexed `for l in 0..W` loops over parallel `[f32; W]` arrays
// are the house style for the masked code here — iterator chains over
// zipped lane arrays obscure the lane structure.
#![allow(clippy::needless_range_loop)]

use crate::query::per_lane_nearest;
use crate::traverse::{intersect_core, ArrayStack, Gathered, FIXED_TRAVERSAL_STACK, T_EPS};
use crate::tree::KdTree;
use kdtune_geometry::{Hit, PacketFrustum, RayPacket};

/// Work counters for the packet traversal, reported alongside render
/// stats so per-scene divergence is observable. Unlike
/// [`crate::TraversalCounters`] these describe *packet* work: one
/// `node_steps` increment covers up to `W` rays. Only primary rays
/// travel in packets, so these count primary-ray work alone; a render's
/// shadow rays are scalar and appear in no field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PacketCounters {
    /// Primary-ray packets traced (one per `intersect_packet`).
    pub packets: u64,
    /// Nodes processed by the shared packet loop (inner + leaf).
    pub node_steps: u64,
    /// Sum over node steps of the number of active lanes at that step.
    pub lane_steps: u64,
    /// Sum over node steps of the packet width `W` at that step — the
    /// lane-slot capacity the shared loop paid for. Widths can be mixed
    /// in one counter (e.g. 8-wide primaries, 4-wide remainders), which
    /// a fixed `W * node_steps` denominator could not express.
    pub lane_slots: u64,
    /// Leaf nodes among `node_steps`.
    pub leaf_steps: u64,
    /// Wide triangle tests (one per `(leaf, triangle)` pair).
    pub tri_tests: u64,
    /// Inner-node steps among `node_steps` resolved by the O(1) frustum
    /// interval classification instead of the per-lane split test.
    pub frustum_steps: u64,
    /// Lanes traced on the scalar path (divergence, `min_active`, or a
    /// tree without a packet loop: too deep, or lazy).
    pub scalar_fallback_lanes: u64,
}

impl PacketCounters {
    /// Element-wise sum.
    pub fn merge(self, o: PacketCounters) -> PacketCounters {
        PacketCounters {
            packets: self.packets + o.packets,
            node_steps: self.node_steps + o.node_steps,
            lane_steps: self.lane_steps + o.lane_steps,
            lane_slots: self.lane_slots + o.lane_slots,
            leaf_steps: self.leaf_steps + o.leaf_steps,
            tri_tests: self.tri_tests + o.tri_tests,
            frustum_steps: self.frustum_steps + o.frustum_steps,
            scalar_fallback_lanes: self.scalar_fallback_lanes + o.scalar_fallback_lanes,
        }
    }

    /// Mean active-lane fraction over all shared node steps:
    /// `lane_steps / lane_slots`, in `[0, 1]` (`0.0` when no packet
    /// steps ran — e.g. everything fell back to scalar).
    ///
    /// Accounting rules, pinned by `lane_utilization_accounting`:
    /// every shared step — including steps the frustum fast path
    /// resolved — adds its active-lane count to `lane_steps` and the
    /// packet width `W` to `lane_slots`. Lanes handed to the scalar
    /// resume path are counted once in `scalar_fallback_lanes` and then
    /// appear in **neither** numerator nor denominator: scalar-resumed
    /// work is per-lane by construction, so folding it in as if those
    /// lanes occupied packet slots would understate how full the
    /// genuinely shared steps ran.
    pub fn lane_utilization(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.lane_steps as f64 / self.lane_slots as f64
        }
    }

    /// Fraction of inner-node shared steps resolved by the frustum fast
    /// path, in `[0, 1]` (`0.0` when no inner steps ran).
    pub fn frustum_rate(&self) -> f64 {
        let inner = self.node_steps.saturating_sub(self.leaf_steps);
        if inner == 0 {
            0.0
        } else {
            self.frustum_steps as f64 / inner as f64
        }
    }
}

/// A deferred subtree shared by several lanes: the far child of a split,
/// with each lane's parametric interval and the mask of lanes that still
/// owe it a visit. `skip_exempt` marks far-only lanes (scalar would have
/// jumped, not popped — see module docs). `t0_lo`/`t1_hi` are the
/// conservative scalar interval bounds over the entry's lanes that the
/// frustum fast path compares against (inherited from the bounds in
/// force when the entry was pushed); they are restored on pop.
#[derive(Clone, Copy)]
struct PacketEntry<const W: usize> {
    node: u32,
    mask: u32,
    skip_exempt: u32,
    t0_lo: f32,
    t1_hi: f32,
    t0: [f32; W],
    t1: [f32; W],
}

impl<const W: usize> PacketEntry<W> {
    const EMPTY: PacketEntry<W> = PacketEntry {
        node: 0,
        mask: 0,
        skip_exempt: 0,
        t0_lo: 0.0,
        t1_hi: 0.0,
        t0: [0.0; W],
        t1: [0.0; W],
    };
}

/// Conservative scalar bounds over the masked lanes' intervals:
/// `(min t0[l], max t1[l])`. `f32::min`/`max` drop a NaN operand, and
/// masked lanes carry no NaN anyway whenever the frustum is valid (the
/// only case the bounds are consulted).
#[inline(always)]
fn lane_bounds<const W: usize>(mask: u32, t0: &[f32; W], t1: &[f32; W]) -> (f32, f32) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for l in 0..W {
        if mask & (1 << l) != 0 {
            lo = lo.min(t0[l]);
            hi = hi.max(t1[l]);
        }
    }
    (lo, hi)
}

/// Fixed-capacity shared stack. As in the scalar traversal, at most one
/// entry is live per inner node on the current root-to-leaf path, so the
/// scalar depth bound caps the length; the public wrappers only take the
/// packet path when the bound fits.
struct PacketStack<const W: usize> {
    entries: [PacketEntry<W>; FIXED_TRAVERSAL_STACK],
    len: usize,
}

impl<const W: usize> PacketStack<W> {
    #[inline(always)]
    fn new() -> PacketStack<W> {
        PacketStack {
            entries: [PacketEntry::EMPTY; FIXED_TRAVERSAL_STACK],
            len: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, e: PacketEntry<W>) {
        self.entries[self.len] = e;
        self.len += 1;
    }

    /// Remaining entries, top of stack first — the order a bailing lane
    /// would pop them in.
    #[inline]
    fn pending(&self) -> impl Iterator<Item = &PacketEntry<W>> {
        self.entries[..self.len].iter().rev()
    }

    /// Pops until an entry with surviving lanes turns up; restores the
    /// entry's intervals (and interval bounds) into `t0`/`t1`/`bounds`
    /// and returns `(node, mask)`. Non-exempt lanes are dropped from an
    /// entry when it starts beyond their best hit — the scalar
    /// `s0 > t_best` pop check, applied lanewise. The negated comparison
    /// is deliberate: a NaN `t0` (deferred with a NaN split `t_plane`)
    /// must *keep* the entry, as in the scalar pop.
    ///
    /// The restore copies whole lane arrays: lanes outside the returned
    /// mask are dead (every mask downstream — split classification,
    /// leaf tests, pushes — is intersected with the current mask), so
    /// overwriting their interval slots is unobservable and cheaper than
    /// masked stores.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn pop_next(
        &mut self,
        live: u32,
        t_best: &[f32; W],
        t0: &mut [f32; W],
        t1: &mut [f32; W],
        bounds: &mut (f32, f32),
    ) -> Option<(u32, u32)> {
        while self.len > 0 {
            self.len -= 1;
            let e = &self.entries[self.len];
            let mut m = e.mask & live;
            if m == 0 {
                continue;
            }
            let mut keep = e.skip_exempt;
            for l in 0..W {
                keep |= (!(e.t0[l] > t_best[l]) as u32) << l;
            }
            m &= keep;
            if m == 0 {
                continue;
            }
            *t0 = e.t0;
            *t1 = e.t1;
            *bounds = (e.t0_lo, e.t1_hi);
            return Some((e.node, m));
        }
        None
    }
}

/// Continues lane `l` of a suspended nearest-hit packet traversal on the
/// scalar path: runs the scalar loop from the lane's current node and
/// state, then — unless that run early-exited — replays the lane's
/// pending shared-stack entries top-down, applying the scalar pop check
/// to non-exempt entries. This is exactly the instruction stream the
/// scalar traversal would have executed from here.
#[allow(clippy::too_many_arguments)]
fn resume_lane_nearest<const W: usize>(
    tree: &KdTree,
    p: &RayPacket<W>,
    l: usize,
    t_min: f32,
    node: u32,
    t0: f32,
    t1: f32,
    best0: Option<Hit>,
    t_best0: f32,
    stack: &PacketStack<W>,
) -> Option<Hit> {
    let ray = p.ray(l);
    let mut scratch = ArrayStack::new();
    let (mut best, mut early) = intersect_core(
        tree,
        ray,
        t_min,
        node,
        t0,
        t1,
        &mut scratch,
        best0,
        t_best0,
        &mut Gathered,
    );
    let mut t_best = best.map_or(t_best0, |h| h.t);
    let bit = 1u32 << l;
    for e in stack.pending() {
        if early || e.mask & bit == 0 {
            continue;
        }
        if e.skip_exempt & bit == 0 && e.t0[l] > t_best {
            continue;
        }
        scratch.clear();
        (best, early) = intersect_core(
            tree,
            ray,
            t_min,
            e.node,
            e.t0[l],
            e.t1[l],
            &mut scratch,
            best,
            t_best,
            &mut Gathered,
        );
        t_best = best.map_or(t_best, |h| h.t);
    }
    best
}

/// Outcome of one shared nearest-hit inner-node step.
enum InnerStep {
    /// Descend into `(node, mask)`.
    Descend(u32, u32),
    /// Active lanes disagree on the near child; intervals and stack are
    /// untouched. The loop must bail to the order-exact scalar resume.
    Diverged,
}

/// O(1) whole-packet split classification against the interval frustum.
/// Fires only when every active lane provably (a) sits strictly on one
/// side of the plane and (b) classifies near-only or far-only — in
/// which case the per-lane step would descend the same child with
/// untouched intervals and no push, so skipping the lane arithmetic is
/// bit-exact. Returns the descend target, or `None` with the proven
/// `below_first` agreement (if any) for the per-lane path to reuse.
#[inline(always)]
fn frustum_classify(
    frustum: &PacketFrustum,
    axis: usize,
    pos: f32,
    cur_node: u32,
    right_child: u32,
    cur_mask: u32,
    bounds: (f32, f32),
) -> Result<(u32, u32), Option<bool>> {
    if !frustum.valid() {
        return Err(None);
    }
    let (d_lo, d_hi) = frustum.diff_bounds(axis, pos);
    // `fl(pos - o) > 0 ⟺ o < pos` (sign-exact subtraction), so these
    // prove every origin strictly below / strictly above the plane —
    // the `o == pos` tie and mixed packets fall to the per-lane test.
    let all_below = d_lo > 0.0;
    let all_above = d_hi < 0.0;
    if !all_below && !all_above {
        return Err(None);
    }
    let below_first = all_below;
    let (first, second) = if below_first {
        (cur_node + 1, right_child)
    } else {
        (right_child, cur_node + 1)
    };
    let (tp_lo, tp_hi) = frustum.t_plane_bounds(axis, pos);
    let (t0_lo, t1_hi) = bounds;
    // Every lane near-only: `t_plane[l] <= tp_hi <= 0`, or
    // `t_plane[l] >= tp_lo > t1_hi >= t1[l]`. The scalar step then
    // descends the near child with unchanged intervals and no push.
    if tp_hi <= 0.0 || tp_lo > t1_hi {
        return Ok((first, cur_mask));
    }
    // Every lane far-only: `t_plane[l] >= tp_lo > 0` and
    // `t_plane[l] <= tp_hi < t0_lo <= t0[l]` (and `t_plane < t0 <= t1`
    // keeps it inside the exit). The scalar step jumps straight to the
    // far child with unchanged intervals.
    if tp_lo > 0.0 && tp_hi < t0_lo {
        return Ok((second, cur_mask));
    }
    Err(Some(below_first))
}

/// One shared inner-node step: agrees on a near child, classifies every
/// lane against the split (scalar predicates: near-only when
/// `t_plane > t1 || t_plane <= 0`, far-only when `t_plane < t0`, else
/// both — NaN `t_plane` fails every comparison and lands in `both`,
/// exactly like the scalar branch chain), defers the far subtree with
/// the lanes that owe it a visit, and narrows `t1` for straddling
/// lanes. Returns the `(node, mask)` to descend into, or the divergence
/// split when active lanes disagree on the near child.
///
/// This step runs a few dozen times per packet — more often than the
/// leaf kernels — so the frustum classification is consulted first
/// (resolving coherent packets in a handful of scalar compares), and
/// the per-lane work is phrased as branch-free compare/select chains
/// (`|`/`&` on compare bits, `if`-expressions with no side effects)
/// that lower to packed compares and blends instead of per-lane
/// branches.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn inner_step<const W: usize>(
    p: &RayPacket<W>,
    frustum: &PacketFrustum,
    node: &crate::tree::PackedNode,
    cur_node: u32,
    cur_mask: u32,
    t0: &mut [f32; W],
    t1: &mut [f32; W],
    bounds: &mut (f32, f32),
    stack: &mut PacketStack<W>,
    counters: &mut PacketCounters,
) -> InnerStep {
    let axis = node.axis_index();
    let pos = node.split_pos();
    let agreed = match frustum_classify(
        frustum,
        axis,
        pos,
        cur_node,
        node.right_child(),
        cur_mask,
        *bounds,
    ) {
        Ok((next, mask)) => {
            counters.frustum_steps += 1;
            return InnerStep::Descend(next, mask);
        }
        Err(agreed) => agreed,
    };
    let o = p.origin_axis(axis);
    let d = p.dir_axis(axis);
    let inv = p.inv_dir_axis(axis);
    let mut diff = [0.0f32; W];
    for l in 0..W {
        diff[l] = pos - o[l];
    }
    let mut t_plane = [0.0f32; W];
    for l in 0..W {
        t_plane[l] = diff[l] * inv[l];
    }
    let below_first = match agreed {
        Some(below) => below,
        None => {
            let bf = below_first_mask(p, &diff, d);
            let below_first = bf & cur_mask == cur_mask;
            if !below_first && bf & cur_mask != 0 {
                // Lanes straddle the plane: no agreed near child, so the
                // shared loop cannot preserve per-lane order.
                return InnerStep::Diverged;
            }
            below_first
        }
    };
    let mut is_far = [false; W];
    let mut is_both = [false; W];
    for l in 0..W {
        let near = (t_plane[l] > t1[l]) | (t_plane[l] <= 0.0);
        is_far[l] = !near & (t_plane[l] < t0[l]);
        is_both[l] = !near & !is_far[l];
    }
    let far = mask_of(is_far) & cur_mask;
    let both = mask_of(is_both) & cur_mask;
    let (first, second) = if below_first {
        (cur_node + 1, node.right_child())
    } else {
        (node.right_child(), cur_node + 1)
    };
    let down = cur_mask & !far;
    if down == 0 {
        // Every lane skips the near child: direct jump, no entry,
        // intervals unchanged.
        return InnerStep::Descend(second, cur_mask);
    }
    if far | both != 0 {
        let mut e = PacketEntry {
            node: second,
            mask: far | both,
            skip_exempt: far,
            t0_lo: 0.0,
            t1_hi: 0.0,
            t0: *t0,
            t1: *t1,
        };
        for l in 0..W {
            e.t0[l] = if is_both[l] { t_plane[l] } else { e.t0[l] };
        }
        // Child intervals are subsets of the parent's, so the current
        // bounds stay sound for the entry — inherited, never recomputed
        // (an O(W) min/max scan here costs more than the frustum saves).
        (e.t0_lo, e.t1_hi) = *bounds;
        stack.push(e);
    }
    for l in 0..W {
        t1[l] = if is_both[l] { t_plane[l] } else { t1[l] };
    }
    InnerStep::Descend(first, down)
}

/// Packs a lane predicate into a bitmask (bit `l` = `m[l]`).
#[inline(always)]
fn mask_of<const W: usize>(m: [bool; W]) -> u32 {
    let mut bits = 0u32;
    for l in 0..W {
        bits |= (m[l] as u32) << l;
    }
    bits
}

/// Scalar near-child pick per lane: below first iff
/// `o < pos || (o == pos && d <= 0)`. Phrased over the already-computed
/// difference — `o < pos ⟺ pos - o > 0` and `o == pos ⟺ pos - o == 0`
/// (IEEE subtraction preserves the exact sign: a nonzero difference of
/// two floats is at least one ulp, so it never rounds to zero, and
/// NaN/∞ fail both forms alike). Primary-ray packets share one origin
/// bitwise, so the origin classification collapses to one scalar
/// compare; otherwise the per-lane predicates are combined as
/// *bitmasks* of single-compare arrays, which lower to one packed
/// compare + movemask each instead of per-lane compare/branch chains.
#[inline(always)]
fn below_first_mask<const W: usize>(p: &RayPacket<W>, diff: &[f32; W], d: &[f32; W]) -> u32 {
    if p.common_origin() {
        if diff[0] > 0.0 {
            RayPacket::<W>::ALL
        } else if diff[0] == 0.0 {
            mask_of::<W>(std::array::from_fn(|l| d[l] <= 0.0))
        } else {
            0
        }
    } else {
        let o_below = mask_of::<W>(std::array::from_fn(|l| diff[l] > 0.0));
        let o_on = mask_of::<W>(std::array::from_fn(|l| diff[l] == 0.0));
        let d_neg = mask_of::<W>(std::array::from_fn(|l| d[l] <= 0.0));
        o_below | (o_on & d_neg)
    }
}

/// Shared-loop nearest-hit packet traversal. `min_active` is the
/// divergence threshold: when fewer active lanes than this remain at a
/// node, they are handed to the scalar resume path (values `<= 1`
/// disable the threshold).
fn packet_nearest<const W: usize>(
    tree: &KdTree,
    p: &RayPacket<W>,
    t_min: f32,
    min_active: u32,
    use_frustum: bool,
    counters: &mut PacketCounters,
) -> [Option<Hit>; W] {
    let mut best: [Option<Hit>; W] = [None; W];
    // `t_best[l]` mirrors `best[l].t` whenever `has_best` has bit `l`
    // set, keeping the hot compares on flat `[f32; W]` arrays instead of
    // the `Option<Hit>` array.
    let mut has_best = 0u32;
    let mut t_best = p.t_maxes();
    let (mut t0, mut t1, root_mask) = tree.bounds().intersect_ray_packet(p, t_min);
    let mut live = root_mask;
    if live == 0 {
        return best;
    }
    let frustum = if use_frustum {
        p.frustum()
    } else {
        PacketFrustum::INVALID
    };
    let mut bounds = if frustum.valid() {
        lane_bounds(live, &t0, &t1)
    } else {
        (f32::NEG_INFINITY, f32::INFINITY)
    };
    let mut cur_node = 0u32;
    let mut cur_mask = live;
    let mut stack = PacketStack::new();
    let nodes = tree.nodes();
    let tris = tree.leaf_tris();
    loop {
        let mut bail = (cur_mask.count_ones()) < min_active;
        let node = nodes[cur_node as usize];
        let mut descend: Option<(u32, u32)> = None;
        if !bail && !node.is_leaf() {
            match inner_step(
                p,
                &frustum,
                &node,
                cur_node,
                cur_mask,
                &mut t0,
                &mut t1,
                &mut bounds,
                &mut stack,
                counters,
            ) {
                InnerStep::Descend(next, mask) => descend = Some((next, mask)),
                InnerStep::Diverged => bail = true,
            }
        }
        if bail {
            counters.scalar_fallback_lanes += cur_mask.count_ones() as u64;
            for l in 0..W {
                if cur_mask & (1 << l) != 0 {
                    best[l] = resume_lane_nearest(
                        tree, p, l, t_min, cur_node, t0[l], t1[l], best[l], t_best[l], &stack,
                    );
                }
            }
            live &= !cur_mask;
        } else if let Some((next, mask)) = descend {
            counters.node_steps += 1;
            counters.lane_steps += cur_mask.count_ones() as u64;
            counters.lane_slots += W as u64;
            cur_node = next;
            cur_mask = mask;
            continue;
        } else {
            counters.node_steps += 1;
            counters.lane_steps += cur_mask.count_ones() as u64;
            counters.lane_slots += W as u64;
            // Leaf: wide triangle tests, sequential over triangles so
            // each lane's running `t_best` matches the scalar leaf loop.
            let first = node.prim_first() as usize;
            let count = node.prim_count() as usize;
            counters.leaf_steps += 1;
            counters.tri_tests += count as u64;
            for lt in &tris[first..first + count] {
                let h = lt.tri.intersect_packet(p, t_min, &t_best, cur_mask);
                let mut m = h.mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mut hit = h.lane_hit(l);
                    hit.prim = lt.prim as usize;
                    t_best[l] = hit.t;
                    best[l] = Some(hit);
                    has_best |= 1 << l;
                }
            }
            // Scalar early exit, lanewise: a hit within this leaf's
            // parametric range ends that lane's traversal.
            let in_leaf = mask_of::<W>(std::array::from_fn(|l| t_best[l] <= t1[l] + T_EPS));
            live &= !(cur_mask & has_best & in_leaf);
        }
        match stack.pop_next(live, &t_best, &mut t0, &mut t1, &mut bounds) {
            Some((n, m)) => {
                cur_node = n;
                cur_mask = m;
            }
            None => return best,
        }
    }
}

impl KdTree {
    /// Nearest intersection for every active lane of a `W`-wide packet,
    /// with ray parameters in `(t_min, lane t_max)`. Bit-identical per
    /// lane to [`KdTree::intersect`] at every width and with the frustum
    /// fast path on or off; inactive lanes return `None`.
    ///
    /// `min_active` is the divergence threshold: packet steps with fewer
    /// active lanes hand those lanes to the scalar path (pass `0` or `1`
    /// to keep packets together to the end). `use_frustum` enables the
    /// O(1) interval-frustum split classification (see module docs) —
    /// results are identical either way. Trees too deep for the fixed
    /// traversal stack run entirely per-lane.
    pub fn intersect_packet<const W: usize>(
        &self,
        p: &RayPacket<W>,
        t_min: f32,
        min_active: u32,
        use_frustum: bool,
        counters: &mut PacketCounters,
    ) -> [Option<Hit>; W] {
        if !self.fits_fixed_stack() || p.active() == 0 {
            return per_lane_nearest(self, p, t_min, counters);
        }
        counters.packets += 1;
        packet_nearest(self, p, t_min, min_active, use_frustum, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the `lane_utilization` formula: `lane_steps / lane_slots`,
    /// with scalar-resumed lanes in neither term and frustum-resolved
    /// steps in both.
    #[test]
    fn lane_utilization_accounting() {
        let c = PacketCounters::default();
        assert_eq!(c.lane_utilization(), 0.0);
        assert_eq!(c.frustum_rate(), 0.0);
        // Three 8-wide steps at 8, 6 and 4 active lanes, one of them
        // frustum-resolved, plus two lanes handed to scalar resume: the
        // resumed lanes change neither numerator nor denominator.
        let c = PacketCounters {
            packets: 1,
            node_steps: 3,
            lane_steps: 8 + 6 + 4,
            lane_slots: 3 * 8,
            leaf_steps: 1,
            tri_tests: 5,
            frustum_steps: 1,
            scalar_fallback_lanes: 2,
        };
        assert_eq!(c.lane_utilization(), 18.0 / 24.0);
        assert_eq!(c.frustum_rate(), 0.5);
        // Mixed widths accumulate per-step capacities: one full 8-wide
        // step plus one full 4-wide step is 100% utilization — the old
        // fixed-width formula (`lane_steps / (4 * node_steps)`) would
        // report 150%.
        let mixed = PacketCounters {
            packets: 2,
            node_steps: 2,
            lane_steps: 8 + 4,
            lane_slots: 8 + 4,
            ..PacketCounters::default()
        };
        assert_eq!(mixed.lane_utilization(), 1.0);
        let merged = c.merge(mixed);
        assert_eq!(merged.lane_steps, 30);
        assert_eq!(merged.lane_slots, 36);
        assert_eq!(merged.scalar_fallback_lanes, 2);
    }
}
