//! The four parallel construction algorithms (paper §IV) and their shared
//! parameters.
//!
//! All builders make identical split decisions — the SAH event sweep plus
//! the termination test of eq. 2 — and differ only in how the work is
//! scheduled:
//!
//! * [`Algorithm::NodeLevel`]: depth-first recursion, `rayon::join` over
//!   independent subtrees until roughly `threads · S` tasks exist.
//! * [`Algorithm::Nested`]: node-level tasking plus parallel classification
//!   of the primitive lists inside large nodes ([`crate::scan`]).
//! * [`Algorithm::InPlace`]: breadth-first over an arena, one level at a
//!   time — the level's frontier nodes run as parallel tasks (grained to
//!   `threads · S`), large nodes classify their primitive lists with the
//!   parallel scan, and child slots come from a prefix scan over the
//!   level's split decisions.
//! * [`Algorithm::Lazy`]: the breadth-first builder stopped at resolution
//!   `R`; nodes holding ≤ `R` primitives are deferred and only expanded
//!   when a ray reaches them ([`crate::LazyKdTree`]).
//!
//! The depth-first builds write packed preorder nodes and leaf lists
//! straight into their output ([`Preorder`]); a forked right subtree is
//! written into buffers of its own and appended. Every build task keeps
//! its working-set buffers on a free list ([`Scratch`]), so a build
//! allocates a handful of buffers rather than a few per node.
//!
//! Each build is wrapped in a `kdtree.build` telemetry span, the tasking
//! builders count spawned subtree tasks on `kdtree.build.tasks`, and the
//! breadth-first builders emit one `kdtree.build.level` event per level
//! (node/primitive counts and the time of its two passes) plus the
//! `kdtree.build.levels` counter — see the `kdtune-telemetry` crate.

use crate::query::BuiltTree;
use crate::sah::SahParams;
use crate::scan::{par_map, par_partition, partition_in_place};
use crate::split::{best_split_events, classify, event_prim, sides, AxisEvents, SplitPlane};
use crate::tree::{flatten, KdTree, Open, Preorder, MAX_NODE_PAYLOAD};
use crate::LazyKdTree;
use kdtune_geometry::{Aabb, Axis, TriangleMesh};
use kdtune_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Algorithm & parameters
// ---------------------------------------------------------------------------

/// The construction algorithms evaluated by the paper (§IV-A..D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Depth-first recursion, parallel over independent subtrees.
    NodeLevel,
    /// Node-level parallelism plus parallel in-node classification.
    Nested,
    /// Breadth-first, one level at a time, parallel over primitives.
    InPlace,
    /// In-place down to resolution `R`, rest expanded on ray contact.
    Lazy,
}

impl Algorithm {
    /// All four algorithms, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::NodeLevel,
        Algorithm::Nested,
        Algorithm::InPlace,
        Algorithm::Lazy,
    ];

    /// Stable snake_case name (CLI flag values, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::NodeLevel => "node_level",
            Algorithm::Nested => "nested",
            Algorithm::InPlace => "in_place",
            Algorithm::Lazy => "lazy",
        }
    }

    /// Inverse of [`Algorithm::name`].
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable build parameters — the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BuildParams {
    /// SAH costs `CT` (fixed), `CI`, `CB`.
    pub sah: SahParams,
    /// Parallel granularity: target subtree tasks per thread (`S`,
    /// paper range [1, 8]).
    pub s: u32,
    /// Lazy resolution: nodes with ≤ `R` primitives are deferred
    /// (paper range [16, 8192]; ignored by the eager algorithms).
    pub r: u32,
    /// Hard depth limit override; `None` uses the standard
    /// `8 + 1.3·log2(n)` bound.
    pub max_depth: Option<u32>,
}

impl Default for BuildParams {
    /// The paper's base configuration `C_base`: `CI = 17`, `CB = 10`,
    /// `S = 3`, `R = 4096`.
    fn default() -> Self {
        BuildParams {
            sah: SahParams::default(),
            s: 3,
            r: 4096,
            max_depth: None,
        }
    }
}

impl BuildParams {
    /// Parameters from a tuner configuration point `(CI, CB, S, R)`.
    pub fn from_config(ci: f32, cb: f32, s: u32, r: u32) -> BuildParams {
        BuildParams {
            sah: SahParams::new(ci, cb),
            s,
            r,
            ..BuildParams::default()
        }
    }

    /// The depth cap used for a (sub)tree over `n` primitives: the
    /// conventional `8 + 1.3·log2(n)` unless overridden by `max_depth`.
    pub fn effective_max_depth(&self, n: usize) -> u32 {
        match self.max_depth {
            Some(d) => d,
            None => (8.0 + 1.3 * (n.max(1) as f64).log2()).round() as u32,
        }
    }

    /// Recursion depth down to which subtree tasks are spawned, so the
    /// task count reaches roughly `threads · S`.
    pub(crate) fn task_depth(&self) -> u32 {
        let tasks = (rayon::current_num_threads() as u64) * u64::from(self.s.max(1));
        // ceil(log2(tasks)): 2^depth leaves of the task tree.
        (64 - tasks.next_power_of_two().leading_zeros() - 1).min(24)
    }

    /// Target number of frontier tasks per level for the breadth-first
    /// builders — the same `threads · S` budget the tasking builders use
    /// for their subtree forks.
    fn level_tasks(&self) -> usize {
        rayon::current_num_threads().max(1) * self.s.max(1) as usize
    }
}

// ---------------------------------------------------------------------------
// Shared split decision
// ---------------------------------------------------------------------------

/// Immutable per-build state threaded through the recursions.
pub(crate) struct BuildCtx<'a> {
    /// Bounds of every primitive, indexed by primitive id.
    pub bounds: &'a [Aabb],
    /// SAH cost parameters.
    pub sah: SahParams,
    /// Hard depth cap for this (sub)tree.
    pub max_depth: u32,
    /// Spawn subtree tasks while `depth < task_depth`.
    pub task_depth: u32,
    /// Use parallel in-node classification (the Nested algorithm).
    pub nested: bool,
    /// Target frontier tasks per level for the breadth-first builders
    /// (`threads · S`); irrelevant to the recursive builders.
    pub level_tasks: usize,
}

/// Node size from which the in-node partition of the primitive ids and
/// event lists uses the count→scan→scatter path in the breadth-first
/// builders (and the Nested recursion).
const PAR_NODE_MIN_PRIMS: usize = 4096;

/// Node size from which the three per-axis SAH sweeps (and a root's three
/// event sorts) run as parallel tasks — a higher bar than the partition's,
/// since a fork must carry enough sweep work to pay for itself.
const SWEEP_FORK_MIN_PRIMS: usize = 16_384;

/// Primitives per level-decision task: fan a level out into at most
/// `level_prims / LEVEL_TASK_GRAIN + 1` tasks so no fork carries less
/// than a few milliseconds of sweep work.
const LEVEL_TASK_GRAIN: usize = 8_192;

/// A node's working set: its primitive ids in ascending order (the order
/// its leaf keeps, which decides equal-`t` hits) and its three per-axis
/// event lists — sorted once where the (sub)tree starts and partitioned
/// stably from the parent's since.
#[derive(Default)]
pub(crate) struct NodePrims {
    /// Primitive ids, ascending.
    pub ids: Vec<u32>,
    /// Sorted events of `ids` per axis.
    events: AxisEvents,
}

impl NodePrims {
    /// The working set of a (sub)tree's root over all of `ctx.bounds`:
    /// the one place a build sorts events. Without `sort` it carries none
    /// (a lazy root deferred whole: its expansion sorts its own).
    pub(crate) fn root(ctx: &BuildCtx<'_>, sort: bool) -> NodePrims {
        let n = ctx.bounds.len() as u32;
        let events = if sort {
            AxisEvents::sorted(ctx.bounds, 0..n, n as usize >= SWEEP_FORK_MIN_PRIMS)
        } else {
            AxisEvents::default()
        };
        NodePrims {
            ids: (0..n).collect(),
            events,
        }
    }
}

/// One build task's scratch: side marks indexed by primitive id (see
/// [`split_prims`]) and a free list of working-set buffers. A leaf's
/// lists, and the lists of a node the parallel partition copied out of,
/// go back on the list; both children of a parallel partition and the
/// right child of a sequential one take theirs from it. A depth-first
/// task thus holds about one buffer pair per level of its current path,
/// and allocates only while those buffers grow.
pub(crate) struct Scratch {
    marks: Vec<(bool, bool)>,
    free: Vec<NodePrims>,
}

impl Scratch {
    pub(crate) fn new(ctx: &BuildCtx<'_>) -> Scratch {
        Scratch {
            marks: vec![(false, false); ctx.bounds.len()],
            free: Vec::new(),
        }
    }

    /// A working-set buffer pair off the free list (its contents stale).
    fn take(&mut self) -> NodePrims {
        self.free.pop().unwrap_or_default()
    }

    /// Puts a retired working set's buffers back on the free list.
    fn recycle(&mut self, node: NodePrims) {
        self.free.push(node);
    }

    /// A node's ids, its event buffer recycled: what a leaf or a deferred
    /// node of the breadth-first arena keeps.
    fn leaf_ids(&mut self, node: NodePrims) -> Vec<u32> {
        let NodePrims { ids, events } = node;
        self.recycle(NodePrims {
            ids: Vec::new(),
            events,
        });
        ids
    }
}

/// The split decision every algorithm shares: find the best plane and
/// apply the depth cap and the SAH termination criterion (eq. 2).
/// `None` means "make a leaf". With `fork_axes`, large nodes sweep the
/// three axes as parallel tasks; the selected plane is identical either
/// way.
fn choose_split(
    ctx: &BuildCtx<'_>,
    node: &NodePrims,
    bounds: &Aabb,
    depth: u32,
    fork_axes: bool,
) -> Option<SplitPlane> {
    let n = node.ids.len();
    if n == 0 || depth >= ctx.max_depth {
        return None;
    }
    let fork = fork_axes && n >= SWEEP_FORK_MIN_PRIMS;
    let plane = best_split_events(&node.events, n, bounds, &ctx.sah, fork)?;
    (!ctx.sah.should_stop(n, plane.cost)).then_some(plane)
}

/// Partitions a node's working set into its children's by `plane`: the
/// ids as [`classify`] does, and each event with its primitive, so the
/// children's lists stay sorted. With `par` the lists take the
/// count→scan→scatter path; the output is the same. Sequentially, the
/// left child's lists are the node's own, compacted in place; every other
/// child's lists come from the task's free list.
///
/// The node marks its primitives' sides in `scratch.marks` (indexed by
/// primitive id) as it partitions the ids, so each event looks its side
/// up instead of re-testing bounds.
fn split_prims(
    ctx: &BuildCtx<'_>,
    mut node: NodePrims,
    plane: &SplitPlane,
    par: bool,
    scratch: &mut Scratch,
) -> (NodePrims, NodePrims) {
    let side = |p: u32| sides(&ctx.bounds[p as usize], plane.axis, plane.pos);
    let mut right = scratch.take();
    if par {
        let mut left = scratch.take();
        let marks = &mut scratch.marks;
        for &p in &node.ids {
            marks[p as usize] = side(p);
        }
        let marks = &*marks;
        let ids_end = [node.ids.len()];
        par_partition(
            &node.ids,
            ids_end,
            |p| marks[p as usize],
            &mut left.ids,
            &mut right.ids,
        );
        let AxisEvents { events, ends } = &node.events;
        let event_side = |e| marks[event_prim(e) as usize];
        let (left_ends, right_ends) = par_partition(
            events,
            *ends,
            event_side,
            &mut left.events.events,
            &mut right.events.events,
        );
        (left.events.ends, right.events.ends) = (left_ends, right_ends);
        scratch.recycle(node);
        return (left, right);
    }
    let marks = &mut scratch.marks;
    // Sequentially, the marking rides along the ids' own partition.
    let ids_end = &mut [node.ids.len()];
    partition_in_place(&mut node.ids, ids_end, &mut right.ids, plane.n_right, |p| {
        marks[p as usize] = side(p);
        marks[p as usize]
    });
    // A primitive has at most two events per axis.
    let right_cap = 6 * right.ids.len();
    let AxisEvents { events, ends } = &mut node.events;
    right.events.ends =
        partition_in_place(events, ends, &mut right.events.events, right_cap, |e| {
            marks[event_prim(e) as usize]
        });
    (node, right)
}

// ---------------------------------------------------------------------------
// Depth-first recursion (NodeLevel, Nested, lazy expansion)
// ---------------------------------------------------------------------------

/// Builds a whole (sub)tree over `ctx.bounds` depth-first, its root box
/// `bounds`, and returns it in preorder.
pub(crate) fn build_depth_first(ctx: &BuildCtx<'_>, bounds: Aabb) -> Preorder {
    let mut out = Preorder::default();
    let root = NodePrims::root(ctx, true);
    build_recursive(ctx, root, bounds, 0, &mut Scratch::new(ctx), &mut out);
    out
}

/// Recursive SAH build over `node`, written to `out` in preorder. Spawns
/// the two subtrees as parallel tasks while `depth < ctx.task_depth`; the
/// spawned right subtree is written with a scratch and an output of its
/// own, then appended behind the left one.
fn build_recursive(
    ctx: &BuildCtx<'_>,
    node: NodePrims,
    bounds: Aabb,
    depth: u32,
    scratch: &mut Scratch,
    out: &mut Preorder,
) {
    let Some(plane) = choose_split(ctx, &node, &bounds, depth, true) else {
        out.leaf(&node.ids);
        scratch.recycle(node);
        return;
    };
    let par = ctx.nested && node.ids.len() >= PAR_NODE_MIN_PRIMS;
    let (left, right) = split_prims(ctx, node, &plane, par, scratch);
    let (lb, rb) = bounds.split(plane.axis, plane.pos);
    let at = out.open_split();
    if depth < ctx.task_depth {
        telemetry::counter("kdtree.build.tasks").add(2);
        let ((), right) = rayon::join(
            || build_recursive(ctx, left, lb, depth + 1, scratch, out),
            || {
                let mut sub = Preorder::default();
                build_recursive(ctx, right, rb, depth + 1, &mut Scratch::new(ctx), &mut sub);
                sub
            },
        );
        out.close_split(at, plane.axis, plane.pos);
        out.append(&right);
    } else {
        build_recursive(ctx, left, lb, depth + 1, scratch, out);
        out.close_split(at, plane.axis, plane.pos);
        build_recursive(ctx, right, rb, depth + 1, scratch, out);
    }
}

// ---------------------------------------------------------------------------
// Breadth-first arena (InPlace, Lazy)
// ---------------------------------------------------------------------------

/// Arena node used by the breadth-first builders; [`flatten_arena`] packs
/// the finished arena for both of them.
#[derive(Debug)]
enum TempNode {
    /// Finished leaf holding primitive ids.
    Leaf(Vec<u32>),
    /// Inner node; children are arena indices.
    Inner {
        /// Split axis.
        axis: Axis,
        /// Split position.
        pos: f32,
        /// Arena index of the left child.
        left: u32,
        /// Arena index of the right child.
        right: u32,
    },
    /// Unexpanded subtree (lazy builds only): its slot in the build's
    /// deferred table.
    Deferred(u32),
    /// Slot allocated but not yet filled (never survives construction).
    Pending,
}

/// A deferred node's primitive ids and bounds.
pub(crate) type DeferredPrims = (Vec<u32>, Aabb);

/// Per-node outcome of a level's parallel decision pass, before child
/// slots have been assigned.
enum Decision {
    /// Park the node for lazy expansion.
    Defer {
        /// Primitive ids of the deferred subtree.
        prims: Vec<u32>,
        /// The node's bounding box.
        bounds: Aabb,
    },
    /// Terminate with a leaf.
    Leaf(Vec<u32>),
    /// Split; children receive slots in the commit pass.
    Split {
        /// Split axis.
        axis: Axis,
        /// Split position.
        pos: f32,
        /// Left child working set and bounds.
        left: (NodePrims, Aabb),
        /// Right child working set and bounds.
        right: (NodePrims, Aabb),
    },
}

/// Decides one frontier node: defer / leaf / split. Pure with respect to
/// the arena, so a whole level can run as independent parallel tasks.
/// `fork_in_node` turns on in-node axis forking — only worthwhile while
/// the level itself has too few nodes to fill the machine.
/// A deferred node drops its events; expansion sorts its own.
fn decide_node(
    ctx: &BuildCtx<'_>,
    node: NodePrims,
    bounds: Aabb,
    depth: u32,
    defer_below: Option<u32>,
    fork_in_node: bool,
    scratch: &mut Scratch,
) -> Decision {
    if defer_below.is_some_and(|r| defers(node.ids.len(), r)) {
        return Decision::Defer {
            prims: scratch.leaf_ids(node),
            bounds,
        };
    }
    let Some(plane) = choose_split(ctx, &node, &bounds, depth, fork_in_node) else {
        return Decision::Leaf(scratch.leaf_ids(node));
    };
    // §IV-C is "parallel over the primitives of each level": large nodes
    // always partition with count→scan→scatter, whatever the algorithm.
    let par = node.ids.len() >= PAR_NODE_MIN_PRIMS;
    let (left, right) = split_prims(ctx, node, &plane, par, scratch);
    let (lb, rb) = bounds.split(plane.axis, plane.pos);
    Decision::Split {
        axis: plane.axis,
        pos: plane.pos,
        left: (left, lb),
        right: (right, rb),
    }
}

/// Whether a lazy build parks a node of `n` primitives at resolution `r`
/// (empty nodes become leaves: there is nothing to expand).
fn defers(n: usize, r: u32) -> bool {
    n != 0 && n as u32 <= r
}

/// One undecided node on the breadth-first frontier:
/// `(arena slot, working set, bounds, depth)`.
type FrontierNode = (usize, NodePrims, Aabb, u32);

/// Breadth-first SAH build, level-synchronous and parallel (paper §IV-C,
/// after Choi et al.): each level's frontier nodes are decided as rayon
/// tasks (chunked so roughly `threads · S` tasks exist), large nodes use
/// the count→scan→scatter classification internally, and child slots are
/// assigned by a prefix scan over the level's split decisions — giving an
/// arena laid out identically to a sequential frontier walk.
///
/// Nodes with ≤ `defer_below` primitives become [`TempNode::Deferred`]
/// instead of being subdivided (`None` disables deferral — the InPlace
/// algorithm); the returned table holds each one's primitives and bounds.
fn build_arena(
    ctx: &BuildCtx<'_>,
    root: NodePrims,
    root_bounds: Aabb,
    defer_below: Option<u32>,
) -> (Vec<TempNode>, Vec<DeferredPrims>) {
    let mut arena: Vec<TempNode> = vec![TempNode::Pending];
    let mut deferred = Vec::new();
    let mut frontier: Vec<FrontierNode> = vec![(0, root, root_bounds, 0)];
    let mut levels = 0u64;
    while !frontier.is_empty() {
        let level = std::mem::take(&mut frontier);
        let level_nodes = level.len();
        let level_prims: usize = level.iter().map(|(_, node, _, _)| node.ids.len()).sum();
        let clock = telemetry::enabled().then(Instant::now);

        // Decision pass: every frontier node independently, as a
        // join-based fan-out of up to `threads · S` ordered tasks over
        // the level (mirroring the recursive builders' task budget),
        // capped so each task owns enough primitives to amortize its
        // fork. Tasks are contiguous groups of roughly equal primitive
        // mass — splitting by node count would let one huge node stall
        // its whole half. While the groups are too few to fill the
        // machine, the nodes themselves also fork their per-axis sweeps.
        let tasks = ctx
            .level_tasks
            .min(level_prims / LEVEL_TASK_GRAIN + 1)
            .max(1);
        let target_mass = level_prims / tasks + 1;
        let mut groups: Vec<Vec<FrontierNode>> = Vec::with_capacity(tasks);
        let mut cur = Vec::new();
        let mut mass = 0usize;
        for item in level {
            mass += item.1.ids.len();
            cur.push(item);
            if mass >= target_mass {
                groups.push(std::mem::take(&mut cur));
                mass = 0;
            }
        }
        if !cur.is_empty() {
            groups.push(cur);
        }
        let fork = groups.len() < rayon::current_num_threads();
        let n_groups = groups.len();
        let decisions: Vec<(usize, u32, Decision)> = par_map(groups, n_groups, &|group| {
            let mut scratch = Scratch::new(ctx);
            group
                .into_iter()
                .map(|(slot, node, bounds, depth)| {
                    let d = decide_node(ctx, node, bounds, depth, defer_below, fork, &mut scratch);
                    (slot, depth, d)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let decided = clock.map(|start| start.elapsed());

        // Slot allocation: an exclusive prefix scan over the split
        // decisions hands each split a consecutive pair of child slots,
        // in frontier order (exactly the slots a serial `arena.push`
        // walk would have produced).
        let base = arena.len();
        let mut splits = 0usize;
        let child_base: Vec<usize> = decisions
            .iter()
            .map(|(_, _, d)| {
                let b = base + 2 * splits;
                splits += matches!(d, Decision::Split { .. }) as usize;
                b
            })
            .collect();
        arena.resize_with(base + 2 * splits, || TempNode::Pending);

        // Commit pass: fill this level's slots and emit the next frontier.
        for ((slot, depth, decision), children) in decisions.into_iter().zip(child_base) {
            match decision {
                Decision::Defer { prims, bounds } => {
                    arena[slot] = TempNode::Deferred(deferred.len() as u32);
                    deferred.push((prims, bounds));
                }
                Decision::Leaf(prims) => arena[slot] = TempNode::Leaf(prims),
                Decision::Split {
                    axis,
                    pos,
                    left: (left, lb),
                    right: (right, rb),
                } => {
                    arena[slot] = TempNode::Inner {
                        axis,
                        pos,
                        left: children as u32,
                        right: children as u32 + 1,
                    };
                    frontier.push((children, left, lb, depth + 1));
                    frontier.push((children + 1, right, rb, depth + 1));
                }
            }
        }
        if let (Some(start), Some(decided)) = (clock, decided) {
            let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
            telemetry::event(
                "kdtree.build.level",
                &[
                    ("level", levels.into()),
                    ("nodes", level_nodes.into()),
                    ("prims", level_prims.into()),
                    ("decide_us", us(decided).into()),
                    ("commit_us", us(start.elapsed() - decided).into()),
                ],
            );
        }
        levels += 1;
    }
    telemetry::counter("kdtree.build.levels").add(levels);
    (arena, deferred)
}

/// Packs a finished breadth-first arena — the one flatten of both
/// breadth-first builders. A deferred node becomes a deferred leaf (an
/// InPlace arena has none).
fn flatten_arena(mesh: Arc<TriangleMesh>, bounds: Aabb, arena: &[TempNode]) -> KdTree {
    let out = flatten(0, arena.len(), &mut |idx: u32| match &arena[idx as usize] {
        TempNode::Leaf(ids) => Open::Leaf(ids),
        TempNode::Deferred(slot) => Open::Deferred(*slot),
        TempNode::Inner {
            axis,
            pos,
            left,
            right,
        } => Open::Split(*axis, *pos, *left, *right),
        TempNode::Pending => unreachable!("pending node survived construction"),
    });
    KdTree::from_raw_parts(mesh, bounds, out.nodes, out.prims)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn prim_bounds(mesh: &TriangleMesh) -> Vec<Aabb> {
    (0..mesh.len()).map(|i| mesh.triangle(i).bounds()).collect()
}

/// Builds a kD-tree over `mesh` with the chosen algorithm and parameters.
///
/// The eager algorithms return [`BuiltTree::Eager`]; [`Algorithm::Lazy`]
/// returns [`BuiltTree::Lazy`], whose lower levels materialize on first
/// ray contact.
///
/// # Panics
/// When the mesh has more than [`MAX_NODE_PAYLOAD`] triangles: a packed
/// node, like a split event, holds a primitive id in 30 bits.
pub fn build(mesh: Arc<TriangleMesh>, algorithm: Algorithm, params: &BuildParams) -> BuiltTree {
    assert!(
        mesh.len() <= MAX_NODE_PAYLOAD as usize,
        "{} triangles exceed the {MAX_NODE_PAYLOAD} a kD-tree can index",
        mesh.len()
    );
    let mut span = telemetry::span("kdtree.build")
        .field("algorithm", algorithm.name())
        .field("tris", mesh.len());
    let bounds = prim_bounds(&mesh);
    let root_bounds = mesh.bounds();
    let ctx = BuildCtx {
        bounds: &bounds,
        sah: params.sah,
        max_depth: params.effective_max_depth(mesh.len()),
        task_depth: params.task_depth(),
        nested: algorithm == Algorithm::Nested,
        level_tasks: params.level_tasks(),
    };
    let tree = match algorithm {
        Algorithm::NodeLevel | Algorithm::Nested => {
            let out = build_depth_first(&ctx, root_bounds);
            BuiltTree::Eager(KdTree::from_raw_parts(
                mesh,
                root_bounds,
                out.nodes,
                out.prims,
            ))
        }
        Algorithm::InPlace => {
            let (arena, _) = build_arena(&ctx, NodePrims::root(&ctx, true), root_bounds, None);
            BuiltTree::Eager(flatten_arena(mesh, root_bounds, &arena))
        }
        Algorithm::Lazy => {
            let root = NodePrims::root(&ctx, !defers(mesh.len(), params.r));
            let (arena, deferred) = build_arena(&ctx, root, root_bounds, Some(params.r));
            let top = flatten_arena(mesh, root_bounds, &arena);
            BuiltTree::Lazy(LazyKdTree::new(top, deferred, *params))
        }
    };
    if span.is_active() {
        span.add_field("nodes", tree.node_count());
    }
    tree
}

/// Builds a spatial-median tree (split at the center of the longest axis)
/// with leaves of at most `leaf_size` primitives — the non-SAH baseline
/// the paper compares against.
pub fn build_median(mesh: Arc<TriangleMesh>, leaf_size: usize, params: &BuildParams) -> KdTree {
    let _span = telemetry::span("kdtree.build")
        .field("algorithm", "median")
        .field("tris", mesh.len());
    let bounds = prim_bounds(&mesh);
    let root_bounds = mesh.bounds();
    let all: Vec<u32> = (0..mesh.len() as u32).collect();
    let limits = (leaf_size.max(1), params.effective_max_depth(mesh.len()));
    let mut out = Preorder::default();
    median_recursive(&bounds, all, root_bounds, 0, limits, &mut out);
    KdTree::from_raw_parts(mesh, root_bounds, out.nodes, out.prims)
}

/// One node of [`build_median`], written to `out` in preorder; `limits`
/// is `(leaf size, depth cap)`.
fn median_recursive(
    bounds: &[Aabb],
    indices: Vec<u32>,
    node: Aabb,
    depth: u32,
    limits: (usize, u32),
    out: &mut Preorder,
) {
    let (leaf_size, max_depth) = limits;
    if indices.len() <= leaf_size || depth >= max_depth {
        return out.leaf(&indices);
    }
    let axis = node.longest_axis();
    let pos = 0.5 * (node.min[axis] + node.max[axis]);
    let (left_idx, right_idx) = classify(bounds, &indices, axis, pos);
    // No progress: all primitives land on one side (or straddle both).
    if left_idx.len() == indices.len() || right_idx.len() == indices.len() {
        return out.leaf(&indices);
    }
    drop(indices);
    let (lb, rb) = node.split(axis, pos);
    let at = out.open_split();
    median_recursive(bounds, left_idx, lb, depth + 1, limits, out);
    out.close_split(at, axis, pos);
    median_recursive(bounds, right_idx, rb, depth + 1, limits, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use kdtune_geometry::{Triangle, Vec3};

    fn grid_mesh(n: usize) -> Arc<TriangleMesh> {
        let mut mesh = TriangleMesh::new();
        for i in 0..n {
            let x = i as f32;
            mesh.push_triangle(Triangle::new(
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 0.8, 0.0, 0.0),
                Vec3::new(x, 1.0, 0.0),
            ));
        }
        Arc::new(mesh)
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(algo.name()), Some(algo));
            assert_eq!(format!("{algo}"), algo.name());
        }
        assert_eq!(Algorithm::from_name("bogus"), None);
    }

    #[test]
    fn default_params_match_paper_base_configuration() {
        let p = BuildParams::default();
        assert_eq!(p.sah.ci, 17.0);
        assert_eq!(p.sah.cb, 10.0);
        assert_eq!(p.sah.ct, 10.0);
        assert_eq!(p.s, 3);
        assert_eq!(p.r, 4096);
        assert_eq!(p.max_depth, None);
    }

    #[test]
    fn effective_max_depth_grows_logarithmically() {
        let p = BuildParams::default();
        assert!(p.effective_max_depth(1) >= 8);
        assert!(p.effective_max_depth(1 << 20) >= 30);
        assert!(p.effective_max_depth(100) < p.effective_max_depth(100_000));
        let capped = BuildParams {
            max_depth: Some(2),
            ..BuildParams::default()
        };
        assert_eq!(capped.effective_max_depth(1 << 20), 2);
    }

    #[test]
    fn empty_mesh_builds_single_empty_leaf() {
        let mesh = Arc::new(TriangleMesh::new());
        for algo in Algorithm::ALL {
            let tree = build(Arc::clone(&mesh), algo, &BuildParams::default());
            assert_eq!(tree.node_count(), 1, "{algo}");
            if algo == Algorithm::Lazy {
                // An empty root is a leaf, not a deferred node: there is
                // nothing to expand on ray contact.
                let lazy = tree.as_lazy().unwrap();
                assert_eq!(lazy.deferred_count(), 0);
            }
        }
    }

    #[test]
    fn single_triangle_is_one_leaf() {
        let mesh = grid_mesh(1);
        let tree = build(mesh, Algorithm::NodeLevel, &BuildParams::default());
        let tree = tree.as_eager().unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.prim_references(), 1);
    }

    #[test]
    fn nan_bounded_triangle_builds_with_every_algorithm() {
        // All three vertices NaN on x: the triangle's x bounds are NaN,
        // so its events carry NaN positions through the sweep.
        let mut mesh = (*grid_mesh(16)).clone();
        let nan = f32::NAN;
        mesh.push_triangle(Triangle::new(
            Vec3::new(nan, 0.0, 0.0),
            Vec3::new(nan, 1.0, 0.0),
            Vec3::new(nan, 0.0, 1.0),
        ));
        let mesh = Arc::new(mesh);
        for algo in Algorithm::ALL {
            let tree = build(
                Arc::clone(&mesh),
                algo,
                &BuildParams::from_config(17.0, 10.0, 3, 4),
            );
            if let Some(lazy) = tree.as_lazy() {
                lazy.expand_all();
            }
            assert!(tree.node_count() > 1, "{algo}");
        }
    }

    #[test]
    fn lazy_root_defers_when_under_resolution() {
        let mesh = grid_mesh(32);
        let params = BuildParams {
            r: 4096, // 32 ≤ 4096: the whole tree is one deferred node
            ..BuildParams::default()
        };
        let tree = build(mesh, Algorithm::Lazy, &params);
        let lazy = tree.as_lazy().unwrap();
        assert_eq!(lazy.node_count(), 1);
        assert_eq!(lazy.deferred_count(), 1);
        assert_eq!(lazy.expanded_count(), 0);
    }

    #[test]
    fn lazy_small_r_builds_eager_top() {
        let mesh = grid_mesh(256);
        let params = BuildParams {
            r: 16,
            ..BuildParams::default()
        };
        let tree = build(mesh, Algorithm::Lazy, &params);
        let lazy = tree.as_lazy().unwrap();
        assert!(lazy.node_count() > 1, "top of the tree must be eager");
        assert!(lazy.deferred_count() > 1);
    }

    #[test]
    fn median_build_respects_leaf_size_where_divisible() {
        let mesh = grid_mesh(128);
        let tree = build_median(mesh, 8, &BuildParams::default());
        validate(&tree).unwrap();
        assert!(tree.node_count() > 1);
    }

    #[test]
    fn build_emits_telemetry_span_and_task_counts() {
        use kdtune_telemetry::sinks::RingBufferRecorder;
        use kdtune_telemetry::RecordKind;

        let ring = std::sync::Arc::new(RingBufferRecorder::new(65536));
        telemetry::set_recorder(ring.clone());
        let mesh = grid_mesh(64);
        let _ = build(mesh, Algorithm::NodeLevel, &BuildParams::default());
        telemetry::clear_recorder();

        // The recorder is process-global, so builds from concurrently
        // running tests may land in the ring too — find OUR span by its
        // algorithm field rather than taking the first.
        let records = ring.snapshot();
        let span = records
            .iter()
            .filter(|r| r.kind == RecordKind::Span && r.name == "kdtree.build")
            .find(|r| {
                r.fields.iter().any(|(k, v)| {
                    *k == "algorithm" && *v == kdtune_telemetry::Value::Str("node_level".into())
                })
            })
            .expect("build must emit its span");
        assert!(span.duration_us.is_some());
        assert!(span.fields.iter().any(|(k, _)| *k == "nodes"));
    }
}
